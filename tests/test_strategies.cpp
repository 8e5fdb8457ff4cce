// Tests for the uniform strategy runner and the paper's qualitative
// orderings between strategies.
#include <gtest/gtest.h>

#include <vector>

#include "src/core/fif_simulator.hpp"
#include "src/core/lower_bounds.hpp"
#include "src/core/minmem_optimal.hpp"
#include "src/core/strategies.hpp"
#include "test_support.hpp"

namespace ooctree {
namespace {

using core::all_strategies;
using core::run_strategy;
using core::Strategy;
using core::Tree;
using core::Weight;

TEST(Strategies, NamesAreStable) {
  EXPECT_EQ(core::strategy_name(Strategy::kPostOrderMinIo), "PostOrderMinIO");
  EXPECT_EQ(core::strategy_name(Strategy::kOptMinMem), "OptMinMem");
  EXPECT_EQ(core::strategy_name(Strategy::kRecExpand), "RecExpand");
  EXPECT_EQ(core::strategy_name(Strategy::kFullRecExpand), "FullRecExpand");
  EXPECT_EQ(all_strategies().size(), 4u);
  EXPECT_EQ(core::cheap_strategies().size(), 3u);
}

TEST(Strategies, AllProduceValidTraversals) {
  util::Rng rng(701);
  for (int rep = 0; rep < 10; ++rep) {
    const Tree t = test::small_random_tree(30, 40, rng);
    const Weight lb = t.min_feasible_memory();
    const Weight peak = core::opt_minmem(t).peak;
    const Weight m = std::max(lb, (lb + peak) / 2);
    for (const Strategy s : all_strategies()) {
      const auto out = run_strategy(s, t, m);
      ASSERT_TRUE(out.evaluation.feasible) << core::strategy_name(s);
      test::expect_valid_traversal(t, out.schedule, out.evaluation.io, m);
      EXPECT_GE(out.io_volume(), core::io_lower_bound_peak_gap(t, m));
    }
  }
}

TEST(Strategies, ZeroIoAtOptimalPeak) {
  util::Rng rng(709);
  const Tree t = test::small_random_tree(40, 20, rng);
  const Weight peak = core::opt_minmem(t).peak;
  // At M = peak, OptMinMem and the expansion heuristics need no I/O; the
  // postorder strategy may still pay (postorder peak >= optimal peak).
  EXPECT_EQ(run_strategy(Strategy::kOptMinMem, t, peak).io_volume(), 0);
  EXPECT_EQ(run_strategy(Strategy::kRecExpand, t, peak).io_volume(), 0);
  EXPECT_EQ(run_strategy(Strategy::kFullRecExpand, t, peak).io_volume(), 0);
}

TEST(Strategies, RecExpandNeverWorseThanOptMinMemOnAverage) {
  // Section 6: RecExpand improves on OptMinMem in the vast majority of
  // cases and is never dramatically worse. Aggregate check over a batch of
  // mid-memory instances.
  util::Rng rng(719);
  std::int64_t opt_total = 0, rec_total = 0;
  int rec_wins = 0, opt_wins = 0;
  for (int rep = 0; rep < 30; ++rep) {
    const Tree t = test::small_random_tree(60, 50, rng);
    const Weight lb = t.min_feasible_memory();
    const Weight peak = core::opt_minmem(t).peak;
    if (peak <= lb) continue;
    const Weight m = (lb + peak) / 2;
    const Weight io_opt = run_strategy(Strategy::kOptMinMem, t, m).io_volume();
    const Weight io_rec = run_strategy(Strategy::kRecExpand, t, m).io_volume();
    opt_total += io_opt;
    rec_total += io_rec;
    rec_wins += (io_rec < io_opt) ? 1 : 0;
    opt_wins += (io_opt < io_rec) ? 1 : 0;
  }
  EXPECT_LE(rec_total, opt_total) << "RecExpand must not lose in aggregate";
  EXPECT_GE(rec_wins, opt_wins);
}

/// The memory bounds the one-evaluation pins sweep: 1.1·LB and 2·LB.
std::vector<Weight> pinned_bounds(const Tree& t) {
  const Weight lb = t.min_feasible_memory();
  return {lb + lb / 10, 2 * lb};
}

TEST(Strategies, EvaluationIsTheFifOfTheReturnedSchedule) {
  // run_strategy evaluates once; that evaluation must be simulate_fif of
  // the schedule it returns, field for field.
  util::Rng rng(733);
  for (const core::MemoryModel model :
       {core::MemoryModel::kMaxInOut, core::MemoryModel::kSumInOut}) {
    for (int rep = 0; rep < 4; ++rep) {
      const Tree t = test::small_random_tree(80, 40, rng).with_memory_model(model);
      for (const Weight m : pinned_bounds(t)) {
        for (const Strategy s : all_strategies()) {
          const core::StrategyOutcome out = run_strategy(s, t, m);
          const core::FifResult fif = core::simulate_fif(t, out.schedule, m);
          EXPECT_EQ(out.strategy, s);
          EXPECT_EQ(out.evaluation.feasible, fif.feasible) << core::strategy_name(s);
          EXPECT_EQ(out.evaluation.io, fif.io) << core::strategy_name(s);
          EXPECT_EQ(out.evaluation.io_volume, fif.io_volume) << core::strategy_name(s);
          EXPECT_EQ(out.evaluation.peak_resident, fif.peak_resident) << core::strategy_name(s);
          EXPECT_EQ(out.evaluation.evictions, fif.evictions) << core::strategy_name(s);
        }
      }
    }
  }
}

TEST(Strategies, SharedRunnerMatchesOneShotRuns) {
  // One StrategyRunner serving every (strategy, bound) pair — in an order
  // that fills its shared OptMinMem schedule and peaks early — must answer
  // exactly what independent run_strategy calls answer.
  util::Rng rng(739);
  for (const core::MemoryModel model :
       {core::MemoryModel::kMaxInOut, core::MemoryModel::kSumInOut}) {
    const Tree t = test::small_random_tree(120, 40, rng).with_memory_model(model);
    core::StrategyRunner runner(t);
    for (const Weight m : pinned_bounds(t)) {
      for (const Strategy s : all_strategies()) {
        const core::StrategyOutcome shared = runner.run(s, m);
        const core::StrategyOutcome alone = run_strategy(s, t, m);
        EXPECT_EQ(shared.schedule, alone.schedule) << core::strategy_name(s);
        EXPECT_EQ(shared.evaluation.io, alone.evaluation.io) << core::strategy_name(s);
        EXPECT_EQ(shared.evaluation.peak_resident, alone.evaluation.peak_resident);
        EXPECT_EQ(shared.evaluation.evictions, alone.evaluation.evictions);
      }
    }
  }
}

TEST(Strategies, HomogeneousPostorderIsUnbeatable) {
  // Theorem 4: on homogeneous trees no strategy beats PostOrderMinIO.
  util::Rng rng(727);
  for (int rep = 0; rep < 10; ++rep) {
    const Tree t = treegen::uniform_binary_tree_exact(20, rng);
    const Weight lb = t.min_feasible_memory();
    const Weight peak = core::opt_minmem(t).peak;
    if (peak <= lb) continue;
    const Weight m = std::max(lb, (lb + peak) / 2);
    const Weight post = run_strategy(Strategy::kPostOrderMinIo, t, m).io_volume();
    for (const Strategy s : all_strategies()) {
      EXPECT_GE(run_strategy(s, t, m).io_volume(), post) << core::strategy_name(s);
    }
  }
}

}  // namespace
}  // namespace ooctree
