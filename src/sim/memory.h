// Sparse byte-addressable memory for the instruction-set simulator.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

namespace abenc::sim {

/// Lazily allocated 4 KiB pages over the full 32-bit space, reached
/// through a two-level table: 1024 leaves of 1024 page pointers, each leaf
/// allocated by the first store into its 4 MiB. Loads from untouched
/// memory read as zero (matching a zero-filled process image) and
/// allocate nothing. All accesses must respect natural alignment, as on a
/// real MIPS, so a half or word never straddles a page: every access is
/// one table walk and one load or store.
class Memory {
 public:
  static constexpr std::uint32_t kPageBits = 12;
  static constexpr std::uint32_t kPageSize = 1u << kPageBits;

  std::uint8_t LoadByte(std::uint32_t address) const {
    const std::uint8_t* byte = Find(address);
    return byte == nullptr ? 0 : *byte;
  }

  // Little-endian assembly from the page bytes; compilers fold each into
  // one load on little-endian hosts.
  std::uint16_t LoadHalf(std::uint32_t address) const {
    CheckAlignment(address, 2);
    const std::uint8_t* p = Find(address);
    if (p == nullptr) return 0;
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
  }

  std::uint32_t LoadWord(std::uint32_t address) const {
    CheckAlignment(address, 4);
    const std::uint8_t* p = Find(address);
    if (p == nullptr) return 0;
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
  }

  void StoreByte(std::uint32_t address, std::uint8_t value) {
    *Ensure(address) = value;
  }

  void StoreHalf(std::uint32_t address, std::uint16_t value) {
    CheckAlignment(address, 2);
    std::uint8_t* p = Ensure(address);
    p[0] = static_cast<std::uint8_t>(value);
    p[1] = static_cast<std::uint8_t>(value >> 8);
  }

  void StoreWord(std::uint32_t address, std::uint32_t value) {
    CheckAlignment(address, 4);
    std::uint8_t* p = Ensure(address);
    p[0] = static_cast<std::uint8_t>(value);
    p[1] = static_cast<std::uint8_t>(value >> 8);
    p[2] = static_cast<std::uint8_t>(value >> 16);
    p[3] = static_cast<std::uint8_t>(value >> 24);
  }

  std::size_t allocated_pages() const {
    std::size_t pages = 0;
    for (const std::unique_ptr<Leaf>& leaf : leaves_) {
      if (leaf == nullptr) continue;
      for (const std::unique_ptr<Page>& page : *leaf) {
        if (page != nullptr) ++pages;
      }
    }
    return pages;
  }

 private:
  static constexpr std::uint32_t kLeafBits = 10;
  static constexpr std::uint32_t kLeafShift = kPageBits + kLeafBits;
  using Page = std::array<std::uint8_t, kPageSize>;
  using Leaf = std::array<std::unique_ptr<Page>, 1u << kLeafBits>;

  static void CheckAlignment(std::uint32_t address, std::uint32_t size) {
    if (address % size != 0) {
      throw std::runtime_error("unaligned access at address " +
                               std::to_string(address));
    }
  }

  static std::uint32_t Slot(std::uint32_t address) {
    return (address >> kPageBits) & ((1u << kLeafBits) - 1);
  }
  static std::uint32_t Offset(std::uint32_t address) {
    return address & (kPageSize - 1);
  }

  const std::uint8_t* Find(std::uint32_t address) const {
    const Leaf* leaf = leaves_[address >> kLeafShift].get();
    if (leaf == nullptr) return nullptr;
    const Page* page = (*leaf)[Slot(address)].get();
    return page == nullptr ? nullptr : page->data() + Offset(address);
  }

  std::uint8_t* Ensure(std::uint32_t address) {
    std::unique_ptr<Leaf>& leaf = leaves_[address >> kLeafShift];
    if (leaf == nullptr) leaf = std::make_unique<Leaf>();
    std::unique_ptr<Page>& page = (*leaf)[Slot(address)];
    if (page == nullptr) page = std::make_unique<Page>();
    return page->data() + Offset(address);
  }

  std::array<std::unique_ptr<Leaf>, 1u << (32 - kLeafShift)> leaves_;
};

}  // namespace abenc::sim
