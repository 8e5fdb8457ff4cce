// Uniform entry point over the four MinIO strategies the paper compares.
//
// Every strategy produces a schedule on the original tree; its I/O volume
// is the FiF evaluation of that schedule (optimal for the schedule by
// Theorem 1), so the comparison across strategies is apples-to-apples.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/core/fif_simulator.hpp"
#include "src/core/tree.hpp"

namespace ooctree::core {

/// The strategies evaluated in Section 6.
enum class Strategy {
  kPostOrderMinIo,  ///< best I/O postorder (Agullo)             — POSTORDERMINIO
  kOptMinMem,       ///< optimal peak-memory traversal + FiF     — OPTMINMEM
  kRecExpand,       ///< expansion heuristic, 2 iterations/node  — RECEXPAND
  kFullRecExpand,   ///< expansion heuristic, unbounded loop     — FULLRECEXPAND
};

/// Display name matching the paper.
[[nodiscard]] std::string strategy_name(Strategy s);

/// Inverse of strategy_name, case-insensitive, also accepting the short CLI
/// spellings (postorder | optminmem | recexpand | full | fullrecexpand).
/// Throws std::invalid_argument on unknown names. Shared by the example
/// CLIs and the service request decoder so every front-end speaks the same
/// vocabulary.
[[nodiscard]] Strategy strategy_from_name(const std::string& name);

/// All four strategies in the paper's plotting order.
[[nodiscard]] std::vector<Strategy> all_strategies();

/// The three cheap strategies used on the TREES dataset (the paper omits
/// FullRecExpand there because of its cost).
[[nodiscard]] std::vector<Strategy> cheap_strategies();

/// Outcome of one strategy on one instance.
struct StrategyOutcome {
  Strategy strategy;
  Schedule schedule;
  FifResult evaluation;  ///< FiF evaluation under the instance's memory bound

  [[nodiscard]] Weight io_volume() const { return evaluation.io_volume; }
};

/// Runs strategies on one tree at any number of memory bounds, sharing the
/// memory-independent passes between runs: the OptMinMem schedule (it does
/// not depend on M) and the opt_minmem_all_peaks vector the RecExpand
/// family skips fitting subtrees with. Both are pure functions of the tree
/// and are computed on first use, so run() is bit-identical whether or not
/// earlier runs filled them. Each run plans once and evaluates its schedule
/// with exactly one simulate_fif call. The tree must outlive the runner.
class StrategyRunner {
 public:
  explicit StrategyRunner(const Tree& tree) : tree_(tree) {}

  [[nodiscard]] StrategyOutcome run(Strategy s, Weight memory);

 private:
  const Tree& tree_;
  std::optional<Schedule> optminmem_;
  std::optional<std::vector<Weight>> all_peaks_;
};

/// Runs one strategy on (tree, memory): a single StrategyRunner::run.
[[nodiscard]] StrategyOutcome run_strategy(Strategy s, const Tree& tree, Weight memory);

}  // namespace ooctree::core
