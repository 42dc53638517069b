// Tests of the MIPS-subset substrate: ISA encoding, assembler, memory,
// CPU semantics, and the benchmark program library.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "sim/assembler.h"
#include "sim/bus_monitor.h"
#include "sim/cpu.h"
#include "sim/isa.h"
#include "sim/memory.h"
#include "sim/program_library.h"
#include "trace/trace_stats.h"

namespace abenc::sim {
namespace {

// ---------------------------------------------------------------------------
// ISA
// ---------------------------------------------------------------------------

TEST(IsaTest, RTypeFieldsRoundTrip) {
  const std::uint32_t word = EncodeR(Funct::kAddu, 3, 4, 5, 0);
  const Instruction i{word};
  EXPECT_EQ(i.opcode(), Opcode::kSpecial);
  EXPECT_EQ(i.funct(), Funct::kAddu);
  EXPECT_EQ(i.rd(), 3u);
  EXPECT_EQ(i.rs(), 4u);
  EXPECT_EQ(i.rt(), 5u);
}

TEST(IsaTest, ITypeSignExtension) {
  const Instruction i{EncodeI(Opcode::kAddiu, 1, 2, 0xFFFF)};
  EXPECT_EQ(i.simmediate(), -1);
  EXPECT_EQ(i.immediate(), 0xFFFFu);
}

TEST(IsaTest, RegisterNamesParse) {
  EXPECT_EQ(ParseRegister("$zero"), 0u);
  EXPECT_EQ(ParseRegister("$t0"), 8u);
  EXPECT_EQ(ParseRegister("$sp"), 29u);
  EXPECT_EQ(ParseRegister("$ra"), 31u);
  EXPECT_EQ(ParseRegister("$17"), 17u);
  EXPECT_EQ(ParseRegister("$32"), std::nullopt);
  EXPECT_EQ(ParseRegister("t0"), std::nullopt);
}

TEST(IsaTest, RegisterNameInverse) {
  for (unsigned r = 0; r < 32; ++r) {
    EXPECT_EQ(ParseRegister(RegisterName(r)), r);
  }
}

// ---------------------------------------------------------------------------
// Memory
// ---------------------------------------------------------------------------

TEST(MemoryTest, UntouchedMemoryReadsZero) {
  Memory m;
  EXPECT_EQ(m.LoadWord(0x10000000), 0u);
  EXPECT_EQ(m.allocated_pages(), 0u);
}

TEST(MemoryTest, WordRoundTripIsLittleEndian) {
  Memory m;
  m.StoreWord(0x1000, 0xDEADBEEF);
  EXPECT_EQ(m.LoadWord(0x1000), 0xDEADBEEFu);
  EXPECT_EQ(m.LoadByte(0x1000), 0xEFu);
  EXPECT_EQ(m.LoadByte(0x1003), 0xDEu);
  EXPECT_EQ(m.LoadHalf(0x1002), 0xDEADu);
}

TEST(MemoryTest, CrossPageAccessWorks) {
  Memory m;
  m.StoreWord(Memory::kPageSize - 4, 0x11223344);
  m.StoreWord(Memory::kPageSize, 0x55667788);
  EXPECT_EQ(m.LoadWord(Memory::kPageSize - 4), 0x11223344u);
  EXPECT_EQ(m.LoadWord(Memory::kPageSize), 0x55667788u);
  EXPECT_EQ(m.allocated_pages(), 2u);
}

TEST(MemoryTest, RejectsUnalignedAccess) {
  Memory m;
  EXPECT_THROW(m.LoadWord(0x1001), std::runtime_error);
  EXPECT_THROW(m.StoreHalf(0x1001, 1), std::runtime_error);
  EXPECT_THROW(m.LoadHalf(0x1003), std::runtime_error);
  for (std::uint32_t offset = 1; offset < 4; ++offset) {
    EXPECT_THROW(m.StoreWord(0x1000 + offset, 1), std::runtime_error) << offset;
  }
  // A refused store allocates nothing.
  EXPECT_EQ(m.allocated_pages(), 0u);
}

// The page table's seams: 0x00400000 starts the second 4 MiB leaf, and
// 0xFFFFFFFC is the last word of the last leaf.
TEST(MemoryTest, WordsMeetAcrossALeafEdge) {
  Memory m;
  m.StoreWord(0x003FFFFC, 0x11223344);
  m.StoreWord(0x00400000, 0x55667788);
  EXPECT_EQ(m.LoadWord(0x003FFFFC), 0x11223344u);
  EXPECT_EQ(m.LoadWord(0x00400000), 0x55667788u);
  EXPECT_EQ(m.LoadByte(0x003FFFFF), 0x11u);
  EXPECT_EQ(m.LoadByte(0x00400000), 0x88u);
  EXPECT_EQ(m.allocated_pages(), 2u);
}

TEST(MemoryTest, TopWordOfTheAddressSpace) {
  Memory m;
  m.StoreWord(0xFFFFFFFC, 0xCAFEF00D);
  EXPECT_EQ(m.LoadWord(0xFFFFFFFC), 0xCAFEF00Du);
  EXPECT_EQ(m.LoadHalf(0xFFFFFFFE), 0xCAFEu);
  EXPECT_EQ(m.LoadByte(0xFFFFFFFF), 0xCAu);
  EXPECT_EQ(m.LoadWord(0xFFFFFFF8), 0u);
  EXPECT_EQ(m.allocated_pages(), 1u);
}

TEST(MemoryTest, HalfInTheLastTwoBytesOfAPage) {
  Memory m;
  const std::uint32_t last = kDataBase + Memory::kPageSize - 2;
  m.StoreHalf(last, 0xBEEF);
  EXPECT_EQ(m.LoadHalf(last), 0xBEEFu);
  EXPECT_EQ(m.LoadByte(last), 0xEFu);
  EXPECT_EQ(m.LoadByte(last + 1), 0xBEu);
  EXPECT_EQ(m.LoadWord(last - 2), 0xBEEF0000u);
  EXPECT_EQ(m.LoadHalf(last + 2), 0u);  // the next page is untouched
  EXPECT_EQ(m.allocated_pages(), 1u);
}

TEST(MemoryTest, UntouchedPageInAnAllocatedLeafReadsZero) {
  Memory m;
  m.StoreWord(kDataBase, 7);  // allocates the leaf and one page of it
  EXPECT_EQ(m.LoadWord(kDataBase + Memory::kPageSize), 0u);
  EXPECT_EQ(m.LoadHalf(kDataBase + 2 * Memory::kPageSize + 2), 0u);
  EXPECT_EQ(m.LoadByte(kDataBase - 1), 0u);
  EXPECT_EQ(m.allocated_pages(), 1u);
  EXPECT_EQ(m.LoadWord(kDataBase), 7u);
}

TEST(MemoryTest, CountsPagesAtBothEndsOfTheSpace) {
  Memory m;
  m.StoreByte(0x00000000, 1);
  m.StoreWord(0xFFFFFFFC, 2);
  EXPECT_EQ(m.allocated_pages(), 2u);
  m.StoreByte(Memory::kPageSize - 1, 3);  // still the first page
  m.StoreHalf(0xFFFFF000, 4);             // still the last page
  EXPECT_EQ(m.allocated_pages(), 2u);
  EXPECT_EQ(m.LoadByte(0x00000000), 1u);
  EXPECT_EQ(m.LoadByte(Memory::kPageSize - 1), 3u);
  EXPECT_EQ(m.LoadHalf(0xFFFFF000), 4u);
  EXPECT_EQ(m.LoadWord(0xFFFFFFFC), 2u);
}

// ---------------------------------------------------------------------------
// Assembler
// ---------------------------------------------------------------------------

TEST(AssemblerTest, EncodesBasicArithmetic) {
  const auto p = Assemble("add $t0, $t1, $t2\n");
  ASSERT_EQ(p.text.size(), 1u);
  EXPECT_EQ(p.text[0], EncodeR(Funct::kAdd, 8, 9, 10));
}

TEST(AssemblerTest, LiExpandsByValue) {
  EXPECT_EQ(Assemble("li $t0, 42\n").text.size(), 1u);
  EXPECT_EQ(Assemble("li $t0, -5\n").text.size(), 1u);
  EXPECT_EQ(Assemble("li $t0, 0x10000\n").text.size(), 1u);     // pure lui
  EXPECT_EQ(Assemble("li $t0, 0x12345678\n").text.size(), 2u);  // lui+ori
}

TEST(AssemblerTest, LaResolvesDataLabels) {
  const auto p = Assemble(
      ".data\n"
      "x: .word 7\n"
      "y: .word 8\n"
      ".text\n"
      "la $t0, y\n");
  EXPECT_EQ(p.Symbol("x"), kDataBase);
  EXPECT_EQ(p.Symbol("y"), kDataBase + 4);
  ASSERT_EQ(p.text.size(), 2u);
  EXPECT_EQ(p.text[0], EncodeI(Opcode::kLui, 8, 0, (kDataBase + 4) >> 16));
  EXPECT_EQ(p.text[1],
            EncodeI(Opcode::kOri, 8, 8, (kDataBase + 4) & 0xFFFF));
}

TEST(AssemblerTest, LabelFormLoadsAndStoresExpandThroughAt) {
  const auto p = Assemble(
      ".data\n"
      "x: .word 0x11223344\n"
      ".text\n"
      "lw $t0, x\n"
      "sw $t0, x\n");
  EXPECT_EQ(p.text.size(), 4u);  // two lui/$at pairs
  Memory memory;
  Cpu cpu(memory);
  cpu.LoadProgram(Assemble(
      ".data\n"
      "x: .word 0x11223344\n"
      "y: .word 0\n"
      ".text\n"
      "lw $t0, x\n"
      "sw $t0, y\n"
      "halt\n"));
  ASSERT_EQ(cpu.Run(100), StopReason::kBreak);
  EXPECT_EQ(cpu.reg(8), 0x11223344u);
  EXPECT_EQ(memory.LoadWord(kDataBase + 4), 0x11223344u);
}

TEST(AssemblerTest, LabelFormHandlesHighLowCarry) {
  // An address whose low half is >= 0x8000 needs the carry-adjusted
  // %hi/%lo split: lui gets high+1 and the offset goes negative.
  const auto p = Assemble(
      ".data\n"
      ".space 0x8100\n"
      "far: .word 42\n"
      ".text\n"
      "lw $t0, far\n"
      "halt\n");
  Memory memory;
  Cpu cpu(memory);
  cpu.LoadProgram(p);
  ASSERT_EQ(cpu.Run(100), StopReason::kBreak);
  EXPECT_EQ(cpu.reg(8), 42u);
}

TEST(AssemblerTest, BranchOffsetsAreRelativeToNextInstruction) {
  const auto p = Assemble(
      "top: addiu $t0, $t0, 1\n"
      "beq $t0, $t1, top\n");
  ASSERT_EQ(p.text.size(), 2u);
  // From pc+4 of the branch (0x400008) back to 0x400000: offset -2.
  EXPECT_EQ(static_cast<std::int16_t>(p.text[1] & 0xFFFF), -2);
}

TEST(AssemblerTest, PseudoBranchesUseAt) {
  const auto p = Assemble(
      "loop: blt $t0, $t1, loop\n");
  ASSERT_EQ(p.text.size(), 2u);
  EXPECT_EQ(p.text[0], EncodeR(Funct::kSlt, 1, 8, 9));  // slt $at, $t0, $t1
}

TEST(AssemblerTest, DataDirectivesLayOutBytes) {
  const auto p = Assemble(
      ".data\n"
      "a: .byte 1, 2\n"
      "b: .half 0x1234\n"
      "c: .word 0xAABBCCDD\n"
      "d: .space 3\n"
      "e: .asciiz \"hi\\n\"\n");
  EXPECT_EQ(p.Symbol("a"), kDataBase);
  EXPECT_EQ(p.Symbol("b"), kDataBase + 2);  // aligned to 2
  EXPECT_EQ(p.Symbol("c"), kDataBase + 4);  // aligned to 4
  EXPECT_EQ(p.Symbol("d"), kDataBase + 8);
  EXPECT_EQ(p.Symbol("e"), kDataBase + 11);
  EXPECT_EQ(p.data[0], 1);
  EXPECT_EQ(p.data[1], 2);
  EXPECT_EQ(p.data[2], 0x34);
  EXPECT_EQ(p.data[4], 0xDD);
  EXPECT_EQ(p.data[11], 'h');
  EXPECT_EQ(p.data[13], '\n');
  EXPECT_EQ(p.data[14], 0);
}

TEST(AssemblerTest, WordDirectiveAcceptsLabels) {
  const auto p = Assemble(
      ".data\n"
      "ptr: .word target\n"
      "target: .word 1\n");
  const std::uint32_t stored = static_cast<std::uint32_t>(p.data[0]) |
                               (p.data[1] << 8) | (p.data[2] << 16) |
                               (static_cast<std::uint32_t>(p.data[3]) << 24);
  EXPECT_EQ(stored, p.Symbol("target"));
}

TEST(AssemblerTest, ReportsErrorsWithLineNumbers) {
  try {
    Assemble("nop\nbogus $t0, $t1\n");
    FAIL() << "expected AssemblyError";
  } catch (const AssemblyError& e) {
    EXPECT_EQ(e.line(), 2u);
  }
}

TEST(AssemblerTest, RejectsDuplicateLabel) {
  EXPECT_THROW(Assemble("x: nop\nx: nop\n"), AssemblyError);
}

TEST(AssemblerTest, RejectsUndefinedLabel) {
  EXPECT_THROW(Assemble("j nowhere\n"), AssemblyError);
}

TEST(AssemblerTest, RejectsOutOfRangeImmediate) {
  EXPECT_THROW(Assemble("addiu $t0, $t0, 40000\n"), AssemblyError);
  EXPECT_THROW(Assemble("andi $t0, $t0, -1\n"), AssemblyError);
  EXPECT_THROW(Assemble("sll $t0, $t0, 32\n"), AssemblyError);
  EXPECT_THROW(Assemble("lw $t0, 40000($sp)\n"), AssemblyError);
}

TEST(AssemblerTest, RejectsMalformedOperands) {
  EXPECT_THROW(Assemble("add $t0, $t1\n"), AssemblyError);       // arity
  EXPECT_THROW(Assemble("add $t0, $t1, 5\n"), AssemblyError);    // not a reg
  EXPECT_THROW(Assemble("lw $t0, 4($nope)\n"), AssemblyError);   // bad base
  EXPECT_THROW(Assemble("lw $t0, x($sp\n"), AssemblyError);      // bad form
  EXPECT_THROW(Assemble("li $t0, banana\n"), AssemblyError);
  EXPECT_THROW(Assemble("li $t0, 0x1FFFFFFFF\n"), AssemblyError);  // 33 bits
}

TEST(AssemblerTest, RejectsMalformedDirectives) {
  EXPECT_THROW(Assemble(".data\n.space -4\n"), AssemblyError);
  EXPECT_THROW(Assemble(".data\n.align 20\n"), AssemblyError);
  EXPECT_THROW(Assemble(".data\n.asciiz no-quotes\n"), AssemblyError);
  EXPECT_THROW(Assemble(".data\n.asciiz \"bad \\q escape\"\n"),
               AssemblyError);
  EXPECT_THROW(Assemble(".word 1\n"), AssemblyError);  // .word in .text
  EXPECT_THROW(Assemble(".frobnicate\n"), AssemblyError);
  EXPECT_THROW(Assemble(".data\n.half some_label\n"), AssemblyError);
}

TEST(AssemblerTest, RejectsFarBranches) {
  // A branch whose displacement exceeds the signed 16-bit field.
  std::string source = "target: nop\n";
  for (int i = 0; i < 33000; ++i) source += "nop\n";
  source += "b target\n";
  EXPECT_THROW(Assemble(source), AssemblyError);
}

TEST(AssemblerTest, LabelArithmeticResolves) {
  const auto p = Assemble(
      ".data\n"
      "arr: .space 64\n"
      ".text\n"
      "la $t0, arr+32\n"
      "la $t1, arr + 8\n");
  // ori immediates carry the offsets.
  EXPECT_EQ(p.text[1] & 0xFFFF, (kDataBase + 32) & 0xFFFF);
  EXPECT_EQ(p.text[3] & 0xFFFF, (kDataBase + 8) & 0xFFFF);
}

// ---------------------------------------------------------------------------
// CPU
// ---------------------------------------------------------------------------

std::uint32_t RunAndGetReg(const std::string& source, unsigned reg,
                           std::uint64_t max_steps = 100000) {
  Memory memory;
  Cpu cpu(memory);
  cpu.LoadProgram(Assemble(source));
  EXPECT_EQ(cpu.Run(max_steps), StopReason::kBreak);
  return cpu.reg(reg);
}

TEST(CpuTest, ArithmeticAndLogic) {
  EXPECT_EQ(RunAndGetReg("li $t0, 6\nli $t1, 7\nmul $t2, $t0, $t1\nhalt\n",
                         10),
            42u);
  EXPECT_EQ(RunAndGetReg("li $t0, -8\nli $t1, 3\ndivq $t2, $t0, $t1\nhalt\n",
                         10),
            static_cast<std::uint32_t>(-2));
  EXPECT_EQ(RunAndGetReg("li $t0, -8\nli $t1, 3\nrem $t2, $t0, $t1\nhalt\n",
                         10),
            static_cast<std::uint32_t>(-2));
  EXPECT_EQ(RunAndGetReg("li $t0, 0xF0\nli $t1, 0x0F\nor $t2, $t0, $t1\n"
                         "halt\n",
                         10),
            0xFFu);
  EXPECT_EQ(RunAndGetReg("li $t0, 1\nsll $t1, $t0, 31\nsra $t2, $t1, 31\n"
                         "halt\n",
                         10),
            0xFFFFFFFFu);
}

TEST(CpuTest, SltVariantsAreSignedAndUnsigned) {
  EXPECT_EQ(RunAndGetReg("li $t0, -1\nli $t1, 1\nslt $t2, $t0, $t1\nhalt\n",
                         10),
            1u);
  EXPECT_EQ(RunAndGetReg("li $t0, -1\nli $t1, 1\nsltu $t2, $t0, $t1\nhalt\n",
                         10),
            0u);  // 0xFFFFFFFF unsigned is large
}

TEST(CpuTest, LoadsSignExtendAndStoresTruncate) {
  const std::string source =
      ".data\n"
      "b: .byte 0x80\n"
      ".text\n"
      "la $t0, b\n"
      "lb $t1, 0($t0)\n"
      "lbu $t2, 0($t0)\n"
      "halt\n";
  EXPECT_EQ(RunAndGetReg(source, 9), 0xFFFFFF80u);
  EXPECT_EQ(RunAndGetReg(source, 10), 0x80u);
}

TEST(CpuTest, LoopSumsCorrectly) {
  const std::string source =
      "li $t0, 0\n"          // sum
      "li $t1, 1\n"          // i
      "loop: li $t9, 100\n"
      "bgt $t1, $t9, done\n"
      "add $t0, $t0, $t1\n"
      "addiu $t1, $t1, 1\n"
      "b loop\n"
      "done: halt\n";
  EXPECT_EQ(RunAndGetReg(source, 8, 10000), 5050u);
}

TEST(CpuTest, CallAndReturnThroughStack) {
  const std::string source =
      "li $a0, 5\n"
      "jal square\n"
      "move $s0, $v0\n"
      "halt\n"
      "square: subi $sp, $sp, 8\n"
      "sw $ra, 4($sp)\n"
      "mul $v0, $a0, $a0\n"
      "lw $ra, 4($sp)\n"
      "addi $sp, $sp, 8\n"
      "jr $ra\n";
  EXPECT_EQ(RunAndGetReg(source, 16, 1000), 25u);
}

TEST(CpuTest, RegisterZeroStaysZero) {
  EXPECT_EQ(RunAndGetReg("li $t0, 7\nadd $zero, $t0, $t0\n"
                         "move $t1, $zero\nhalt\n",
                         9),
            0u);
}

TEST(CpuTest, StepLimitIsReported) {
  Memory memory;
  Cpu cpu(memory);
  cpu.LoadProgram(Assemble("loop: b loop\n"));
  EXPECT_EQ(cpu.Run(100), StopReason::kStepLimit);
}

TEST(CpuTest, PcEscapeThrows) {
  Memory memory;
  Cpu cpu(memory);
  cpu.LoadProgram(Assemble("nop\n"));  // runs off the end
  EXPECT_THROW(cpu.Run(10), ExecutionError);
}

TEST(CpuTest, DivisionByZeroThrows) {
  Memory memory;
  Cpu cpu(memory);
  cpu.LoadProgram(Assemble("li $t0, 1\nli $t1, 0\ndivq $t2, $t0, $t1\n"));
  EXPECT_THROW(cpu.Run(10), ExecutionError);
}

TEST(CpuTest, BusObserverSeesFetchesAndData) {
  Memory memory;
  BusMonitor monitor("probe");
  Cpu cpu(memory, &monitor);
  cpu.LoadProgram(Assemble(
      ".data\n"
      "x: .word 3\n"
      ".text\n"
      "la $t0, x\n"     // 2 fetches
      "lw $t1, 0($t0)\n"  // 1 fetch + 1 data
      "sw $t1, 4($t0)\n"  // 1 fetch + 1 data
      "halt\n"));         // 1 fetch
  cpu.Run(100);
  const AddressTrace& bus = monitor.multiplexed_trace();
  const AddressTrace fetches = bus.Filtered(AccessKind::kInstruction);
  const AddressTrace data = bus.Filtered(AccessKind::kData);
  EXPECT_EQ(fetches.size(), 5u);
  EXPECT_EQ(data.size(), 2u);
  EXPECT_EQ(bus.size(), 7u);
  EXPECT_EQ(data[0].address, kDataBase);
  EXPECT_EQ(data[1].address, kDataBase + 4);
  // Fetches are word-sequential from the entry point.
  EXPECT_EQ(fetches[0].address, kTextBase);
  EXPECT_EQ(fetches[4].address, kTextBase + 16);
}

// ---------------------------------------------------------------------------
// Benchmark program library
// ---------------------------------------------------------------------------

class BenchmarkProgramTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BenchmarkProgramTest, AssemblesRunsAndHalts) {
  const BenchmarkProgram& program = FindBenchmarkProgram(GetParam());
  const ProgramTraces traces = RunBenchmark(program);
  // Enough references for stable statistics, and every stream non-trivial.
  EXPECT_GT(traces.retired_instructions, 20000u) << program.name;
  const std::size_t fetches = traces.instruction().size();
  const std::size_t data = traces.data().size();
  EXPECT_GT(data, 500u) << program.name;
  EXPECT_EQ(traces.multiplexed.size(), fetches + data);
}

TEST_P(BenchmarkProgramTest, StreamStatisticsMatchThePaperRegime) {
  const ProgramTraces traces =
      RunBenchmark(FindBenchmarkProgram(GetParam()));
  const double instr_seq = InSequencePercent(traces.instruction(), 32, 4);
  const double data_seq = InSequencePercent(traces.data(), 32, 4);
  const double mux_seq = InSequencePercent(traces.multiplexed, 32, 4);
  // Instruction streams are dominated by sequential fetches; data streams
  // are mostly non-sequential; the multiplexed stream sits in between.
  EXPECT_GT(instr_seq, 40.0) << GetParam();
  EXPECT_LT(data_seq, 40.0) << GetParam();
  EXPECT_LT(mux_seq, instr_seq) << GetParam();
  EXPECT_GT(instr_seq, data_seq) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    AllPrograms, BenchmarkProgramTest,
    ::testing::Values("gzip", "gunzip", "ghostview", "espresso", "nova",
                      "jedi", "latex", "matlab", "oracle"));

// ---------------------------------------------------------------------------
// Captured streams, pinned
// ---------------------------------------------------------------------------

// 64-bit FNV-1a over every reference of a stream: its address as eight
// little-endian bytes, then its kind as one byte.
std::uint64_t StreamHash(const AddressTrace& trace) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  const auto mix = [&hash](std::uint64_t byte) {
    hash = (hash ^ byte) * 0x100000001B3ULL;
  };
  for (const TraceEntry& e : trace) {
    for (unsigned b = 0; b < 8; ++b) mix((e.address >> (8 * b)) & 0xFF);
    mix(static_cast<std::uint64_t>(e.kind));
  }
  return hash;
}

struct CapturePin {
  std::string_view program;
  std::uint64_t stream_hash;  // StreamHash of the multiplexed stream
  std::uint64_t retired;
  // alu, shift, muldiv, load, store, branch, taken, jump, call, other
  InstructionMix mix;
};

// Taken from the captures of a monitor that recorded all three buses
// separately: a change to the interpreter, the memory model or the
// monitor that moves one reference of one program fails here, by name.
constexpr CapturePin kCapturePins[] = {
    {"gzip", 0xa6af0fbec1700e46ULL, 729082,
     {429728, 1024, 2048, 67964, 2962, 225355, 93868, 0, 0, 1}},
    {"gunzip", 0xd791bfd0d0f015dcULL, 110495,
     {57611, 3056, 4000, 8700, 12236, 24891, 12239, 0, 0, 1}},
    {"ghostview", 0x4dbb2f0450a777d1ULL, 121882,
     {69843, 832, 300, 8342, 4016, 38548, 18218, 0, 0, 1}},
    {"espresso", 0xdf723e48fe4dd018ULL, 247252,
     {139948, 2335, 128, 10352, 2281, 92207, 49092, 0, 0, 1}},
    {"nova", 0xa7b4d8661460c3ddULL, 166726,
     {84736, 24624, 15008, 21520, 1153, 19684, 10344, 0, 0, 1}},
    {"jedi", 0xa76346f1d14f5d9eULL, 919357,
     {457537, 77198, 150272, 149114, 4979, 77240, 39271, 1508, 1508, 1}},
    {"latex", 0xd5f277a49f479b0aULL, 238650,
     {137352, 4001, 8002, 25350, 8321, 55623, 20343, 0, 0, 1}},
    {"matlab", 0xdf9aa94d3ce35324ULL, 340088,
     {149418, 34048, 89344, 29248, 3329, 34700, 17652, 0, 0, 1}},
    {"oracle", 0xb5e41f1fa6df7c29ULL, 387611,
     {177614, 54223, 10048, 23968, 13449, 108308, 45923, 0, 0, 1}},
    {"fft", 0x6e0b90a9080e9e65ULL, 58443,
     {26662, 11272, 2048, 5120, 5121, 8219, 4371, 0, 0, 1}},
    {"qsort", 0xa5b88fa72002bd03ULL, 86423,
     {35702, 10110, 1024, 11252, 8065, 18943, 9676, 663, 663, 1}},
    {"dhry", 0x1b3483e0aca644bbULL, 36034,
     {11677, 128, 128, 9280, 1889, 12931, 5627, 0, 0, 1}},
};

class CapturedStreamTest : public ::testing::TestWithParam<std::string> {
 protected:
  static const CapturePin& Pin(const std::string& program) {
    for (const CapturePin& pin : kCapturePins) {
      if (pin.program == program) return pin;
    }
    throw std::out_of_range("no capture pin for " + program);
  }
};

TEST_P(CapturedStreamTest, StreamRetiredCountAndMixArePinned) {
  const CapturePin& pin = Pin(GetParam());
  const ProgramTraces traces = RunBenchmark(FindBenchmarkProgram(GetParam()));
  EXPECT_EQ(StreamHash(traces.multiplexed), pin.stream_hash) << GetParam();
  EXPECT_EQ(traces.retired_instructions, pin.retired) << GetParam();
  const InstructionMix& mix = traces.mix;
  EXPECT_EQ(mix.alu, pin.mix.alu) << GetParam();
  EXPECT_EQ(mix.shift, pin.mix.shift) << GetParam();
  EXPECT_EQ(mix.muldiv, pin.mix.muldiv) << GetParam();
  EXPECT_EQ(mix.load, pin.mix.load) << GetParam();
  EXPECT_EQ(mix.store, pin.mix.store) << GetParam();
  EXPECT_EQ(mix.branch, pin.mix.branch) << GetParam();
  EXPECT_EQ(mix.branch_taken, pin.mix.branch_taken) << GetParam();
  EXPECT_EQ(mix.jump, pin.mix.jump) << GetParam();
  EXPECT_EQ(mix.call, pin.mix.call) << GetParam();
  EXPECT_EQ(mix.other, pin.mix.other) << GetParam();
}

TEST_P(CapturedStreamTest, DedicatedBusesAreTheMultiplexedOneByKind) {
  const ProgramTraces traces = RunBenchmark(FindBenchmarkProgram(GetParam()));
  const AddressTrace fetches = traces.instruction();
  const AddressTrace data = traces.data();
  EXPECT_EQ(fetches.entries(),
            traces.multiplexed.Filtered(AccessKind::kInstruction).entries())
      << GetParam();
  EXPECT_EQ(data.entries(),
            traces.multiplexed.Filtered(AccessKind::kData).entries())
      << GetParam();
  EXPECT_EQ(fetches.name(), GetParam());
  EXPECT_EQ(data.name(), GetParam());
  // One fetch per retired instruction, one data reference per load or
  // store: counts the CPU keeps apart from the monitor.
  EXPECT_EQ(fetches.size(), traces.retired_instructions) << GetParam();
  EXPECT_EQ(data.size(), traces.mix.load + traces.mix.store) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    AllPrograms, CapturedStreamTest,
    ::testing::Values("gzip", "gunzip", "ghostview", "espresso", "nova",
                      "jedi", "latex", "matlab", "oracle", "fft", "qsort",
                      "dhry"));

TEST(CpuTest, RegImmBranchesCompareAgainstZero) {
  const std::string source =
      "li $t0, -3\n"
      "li $t1, 0\n"
      "bltz $t0, neg\n"
      "li $t2, 111\n"       // skipped
      "neg: bgez $t1, pos\n"
      "li $t3, 222\n"       // skipped
      "pos: li $t4, 7\n"
      "halt\n";
  EXPECT_EQ(RunAndGetReg(source, 12), 7u);   // $t4 reached
  EXPECT_EQ(RunAndGetReg(source, 10), 0u);   // $t2 skipped
  EXPECT_EQ(RunAndGetReg(source, 11), 0u);   // $t3 skipped
}

TEST(CpuTest, RegImmBranchesRoundTripThroughDisassembly) {
  const auto p = Assemble(
      "top: bltz $t0, top\n"
      "bgez $t1, top\n"
      "halt\n");
  ASSERT_EQ(p.text.size(), 3u);
  EXPECT_EQ(p.text[0] >> 26, 1u);             // REGIMM opcode
  EXPECT_EQ((p.text[0] >> 16) & 31u, 0u);     // BLTZ
  EXPECT_EQ((p.text[1] >> 16) & 31u, 1u);     // BGEZ
}

TEST(CpuTest, InstructionMixClassifiesCorrectly) {
  Memory memory;
  Cpu cpu(memory);
  cpu.LoadProgram(Assemble(
      ".data\n"
      "x: .word 5\n"
      ".text\n"
      "la $t0, x\n"        // 2 alu (lui + ori)
      "lw $t1, 0($t0)\n"   // 1 load
      "sll $t2, $t1, 2\n"  // 1 shift
      "mult $t1, $t2\n"    // muldiv
      "mflo $t3\n"         // muldiv
      "sw $t3, 0($t0)\n"   // 1 store
      "beq $t1, $t2, skip\n"  // branch, not taken
      "beq $zero, $zero, skip\n"  // branch, taken
      "nop\n"              // never executed
      "skip: jal leaf\n"   // call
      "halt\n"             // other
      "leaf: jr $ra\n"));  // jump
  ASSERT_EQ(cpu.Run(100), StopReason::kBreak);
  const InstructionMix& mix = cpu.instruction_mix();
  EXPECT_EQ(mix.alu, 2u);
  EXPECT_EQ(mix.load, 1u);
  EXPECT_EQ(mix.store, 1u);
  EXPECT_EQ(mix.shift, 1u);
  EXPECT_EQ(mix.muldiv, 2u);
  EXPECT_EQ(mix.branch, 2u);
  EXPECT_EQ(mix.branch_taken, 1u);
  EXPECT_EQ(mix.call, 1u);
  EXPECT_EQ(mix.jump, 1u);
  EXPECT_EQ(mix.other, 1u);
  EXPECT_EQ(mix.total(), cpu.retired_instructions());
  EXPECT_DOUBLE_EQ(mix.taken_ratio(), 0.5);
}

TEST(CpuTest, BenchmarkMixesLookLikeRealPrograms) {
  // Sanity envelope for the kernels standing in for real applications:
  // a meaningful memory-access share and a mixed branch population.
  for (const BenchmarkProgram& p : BenchmarkPrograms()) {
    const ProgramTraces traces = RunBenchmark(p);
    const InstructionMix& mix = traces.mix;
    const double total = static_cast<double>(mix.total());
    const double memory_share =
        static_cast<double>(mix.load + mix.store) / total;
    EXPECT_GT(memory_share, 0.03) << p.name;
    EXPECT_LT(memory_share, 0.5) << p.name;
    const double control_share =
        static_cast<double>(mix.branch + mix.jump + mix.call) / total;
    EXPECT_GT(control_share, 0.05) << p.name;
  }
}

TEST(ProgramLibraryTest, HasTheNinePaperBenchmarks) {
  EXPECT_EQ(BenchmarkPrograms().size(), 9u);
  EXPECT_THROW(FindBenchmarkProgram("doom"), std::out_of_range);
}

}  // namespace
}  // namespace abenc::sim
