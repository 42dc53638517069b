// Pieces of the offline-paper workload the traced ledger reuses.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// The paper's palette (Tables 2-7); RunComparison adds the binary
/// reference itself.
const std::vector<std::string>& PaperPalette();

/// Accesses per offline-paper job window.
inline constexpr std::size_t kOfflineWindow = 32768;

}  // namespace perfbench
