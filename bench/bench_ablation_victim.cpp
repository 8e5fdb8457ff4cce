// Ablation A3: the expansion victim-selection rule. Algorithm 2 picks the
// FiF-positive node whose parent is scheduled latest; this bench compares
// that rule against three alternatives under the RecExpand(2) budget.
#include <cstdio>

#include "experiment.hpp"
#include "src/core/minmem_optimal.hpp"
#include "src/core/rec_expand.hpp"
#include "src/util/csv.hpp"
#include "src/util/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace ooctree;
  using core::Weight;
  const bench::Scale scale = bench::parse_scale(argc, argv);
  const int count = bench::synth_count(scale) / 3;
  const auto data = bench::synth_dataset(count, bench::synth_nodes(scale), 616161);

  const std::vector<std::pair<core::VictimRule, const char*>> rules{
      {core::VictimRule::kLatestParent, "latest-parent (paper)"},
      {core::VictimRule::kEarliestParent, "earliest-parent"},
      {core::VictimRule::kLargestIo, "largest-tau"},
      {core::VictimRule::kFirstScheduled, "first-scheduled"},
  };

  std::printf("== ablation A3: expansion victim rule (%d instances) ==\n", count);
  util::CsvWriter csv("ablation_victim.csv", {"instance", "memory", "rule", "io_volume"});

  struct Row {
    Weight memory = 0;
    std::vector<Weight> io;
    bool kept = false;
  };
  std::vector<Row> rows(data.size());
  util::parallel_for(data.size(), [&](std::size_t i) {
    const core::Tree& t = data[i].tree;
    const Weight lb = t.min_feasible_memory();
    const Weight peak = core::opt_minmem_peak(t, t.root());
    if (peak <= lb) return;
    Row& row = rows[i];
    row.memory = (lb + peak - 1) / 2;
    row.kept = true;
    for (const auto& [rule, name] : rules) {
      core::RecExpandOptions opts;
      opts.max_expansions_per_node = 2;
      opts.victim_rule = rule;
      const core::Schedule schedule = core::rec_expand(t, row.memory, opts).schedule;
      row.io.push_back(core::simulate_fif(t, schedule, row.memory).io_volume);
    }
  });

  std::vector<std::int64_t> totals(rules.size(), 0);
  std::vector<int> wins(rules.size(), 0);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (!rows[i].kept) continue;
    ++kept;
    const Weight best = *std::min_element(rows[i].io.begin(), rows[i].io.end());
    for (std::size_t r = 0; r < rules.size(); ++r) {
      totals[r] += rows[i].io[r];
      wins[r] += (rows[i].io[r] == best) ? 1 : 0;
      csv.row({data[i].name, rows[i].memory, rules[r].second, rows[i].io[r]});
    }
  }

  std::printf("%-24s %16s %10s\n", "rule", "total io", "best-on");
  for (std::size_t r = 0; r < rules.size(); ++r) {
    std::printf("%-24s %16lld %9d/%zu\n", rules[r].second,
                static_cast<long long>(totals[r]), wins[r], kept);
  }
  std::printf("results written to ablation_victim.csv\n");
  return 0;
}
