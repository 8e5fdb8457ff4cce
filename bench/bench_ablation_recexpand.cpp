// Ablation A2: the RecExpand iteration cap. The paper exits the expansion
// loop after 2 iterations and reports results "very similar" to the
// unbounded FullRecExpand; this bench sweeps the cap over 1, 2, 3, 4 and
// unbounded to show where the returns diminish.
#include <cstdio>
#include <limits>

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
  const auto data = bench::synth_dataset(count, bench::synth_nodes(scale), 515151);

  const std::vector<std::size_t> caps{1, 2, 3, 4, std::numeric_limits<std::size_t>::max()};
  const auto cap_name = [](std::size_t c) {
    return c == std::numeric_limits<std::size_t>::max() ? std::string("inf") : std::to_string(c);
  };

  std::printf("== ablation A2: RecExpand iteration cap (%d instances) ==\n", count);
  util::CsvWriter csv("ablation_recexpand.csv",
                      {"instance", "memory", "cap", "io_volume", "expansions"});

  struct Row {
    Weight memory = 0;
    std::vector<Weight> io;
    std::vector<std::size_t> expansions;
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
    for (const std::size_t cap : caps) {
      core::RecExpandOptions opts;
      opts.max_expansions_per_node = cap;
      const auto r = core::rec_expand(t, row.memory, opts);
      row.io.push_back(core::simulate_fif(t, r.schedule, row.memory).io_volume);
      row.expansions.push_back(r.expansions);
    }
  });

  std::vector<std::int64_t> totals(caps.size(), 0);
  std::vector<std::int64_t> exp_totals(caps.size(), 0);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (!rows[i].kept) continue;
    ++kept;
    for (std::size_t c = 0; c < caps.size(); ++c) {
      totals[c] += rows[i].io[c];
      exp_totals[c] += static_cast<std::int64_t>(rows[i].expansions[c]);
      csv.row({data[i].name, rows[i].memory, cap_name(caps[c]), rows[i].io[c],
               rows[i].expansions[c]});
    }
  }

  std::printf("%-6s %16s %16s %18s\n", "cap", "total io", "total expans.", "io vs cap=inf");
  const double base = static_cast<double>(totals.back());
  for (std::size_t c = 0; c < caps.size(); ++c) {
    std::printf("%-6s %16lld %16lld %17.4fx\n", cap_name(caps[c]).c_str(),
                static_cast<long long>(totals[c]), static_cast<long long>(exp_totals[c]),
                base > 0 ? static_cast<double>(totals[c]) / base : 1.0);
  }
  std::printf("(%zu instances kept; the paper's claim: cap=2 is within a few %% of inf)\n", kept);
  std::printf("results written to ablation_recexpand.csv\n");
  return 0;
}
