// The request-path benchmark: three seeded closed-loop workloads over the
// planning service, the paged parallel replay and the multi-tenant server.
//
//   perfbench --workload plan_cold|replay_paged|serve_mixed --seed N
//             --seconds T --trace 0|1 [--out-dir DIR]
//   perfbench --self-test
//
// Every workload builds one *pass* — a fixed request sequence generated
// from --seed — then serves it in a closed loop driven by one client
// thread: an untimed warm-up pass (counted in setup_s, together with input
// generation and building the service or server), then whole passes until
// --seconds have elapsed. Set-up runs kSetups times and reports its median.
// Every pass answers the same requests, so the exact counters (I/O volume,
// simulated makespan, pages moved) are per-pass sums that must repeat
// exactly; any difference, failed request or shed request fails the run.
//
// --trace 1 is a separate run over the same pass with spans recorded
// around the public layer calls (see README.md for the layer table). It
// prints the per-layer metrics; --trace 0 prints the end-to-end ones.
// Stdout ends with two JSON lines: a detail record (exact counters,
// sample and per-class counts beside each percentile, diagnostics) and
// the result record {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "metrics.hpp"
#include "src/core/fif_simulator.hpp"
#include "src/core/minio_postorder.hpp"
#include "src/core/minmem_optimal.hpp"
#include "src/core/rec_expand.hpp"
#include "src/core/snapshot.hpp"
#include "src/parallel/parallel_sim.hpp"
#include "src/server/plan_server.hpp"
#include "src/service/plan_service.hpp"
#include "src/service/request_io.hpp"
#include "src/sparse/assembly_tree.hpp"
#include "src/sparse/generators.hpp"
#include "src/sparse/matrix_market.hpp"
#include "src/sparse/ordering.hpp"
#include "src/treegen/random_binary.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace ooctree;
using perfbench::Clock;
using perfbench::ms_between;
using perfbench::Scope;
using perfbench::Tracer;
using service::PlanRequest;
using service::PlanStats;
using StatsPtr = std::shared_ptr<const PlanStats>;

constexpr int kSetups = 3;             ///< set-ups per untraced run; setup_s is their median
constexpr std::size_t kWindow = 8;     ///< serve_mixed: requests the client keeps outstanding
constexpr std::size_t kPlanCacheCapacity = 32;  ///< plan_cold / replay_paged: far below a pass

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".perfbench";
};

/// One request of a pass and the class its latency is counted under.
struct Item {
  PlanRequest request;  ///< plan_cold / replay_paged: handed to the service as is
  std::string line;     ///< serve_mixed: the JSONL line the client decodes
  int klass = 0;
};

/// serve_mixed's request classes (Item::klass).
enum MixedClass : int { kRepeat, kFused, kSnapshot, kMtx, kCold };

struct Pass {
  std::vector<Item> items;
  std::vector<std::string> classes;  ///< class names, indexed by Item::klass
};

// JSON text helpers.

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// ---------------------------------------------------------------------------
// Request generation. Each pass is stratified: the class mix and the tree
// sizes are fixed, and only tree shapes, weights and the order come from
// the seed, so passes of different seeds carry comparable work and the
// per-pass sums average over many trees.

std::uint64_t draw_seed(util::Rng& rng) {
  return static_cast<std::uint64_t>(rng.uniform_int(1, std::int64_t{1} << 62));
}

/// The i-th of k sizes spread evenly in log scale over [lo, hi] (midpoints).
std::size_t log_size(double lo, double hi, int i, int k) {
  return static_cast<std::size_t>(std::exp(std::log(lo) + (std::log(hi) - std::log(lo)) * (i + 0.5) / k));
}

const char* strategy_key(core::Strategy s) {
  switch (s) {
    case core::Strategy::kPostOrderMinIo: return "postorder";
    case core::Strategy::kOptMinMem: return "optminmem";
    case core::Strategy::kRecExpand: return "recexpand";
    case core::Strategy::kFullRecExpand: return "full";
  }
  return "?";
}

void number_items(Pass& pass, util::Rng& rng) {
  std::shuffle(pass.items.begin(), pass.items.end(), rng.engine());
  for (std::size_t i = 0; i < pass.items.size(); ++i) pass.items[i].request.id = static_cast<std::int64_t>(i) + 1;
}

/// plan_cold: 12 log-spaced sizes over 1k-20k nodes x 4 strategies x both
/// memory models x M in {1.1, 1.5, 2}·LB = 288 fresh SYNTH trees per pass.
/// Classes are size quarter (3 sizes each) x strategy.
Pass plan_cold_pass(std::uint64_t seed) {
  util::Rng rng(util::derive_seed(seed, 1));
  Pass pass;
  const std::vector<core::Strategy> strategies = core::all_strategies();
  for (int q = 0; q < 4; ++q)
    for (const core::Strategy s : strategies)
      pass.classes.push_back("n" + std::to_string(q) + "/" + strategy_key(s));
  constexpr int kSizes = 12;
  for (int i = 0; i < kSizes; ++i)
    for (std::size_t s = 0; s < strategies.size(); ++s)
      for (const core::MemoryModel model : {core::MemoryModel::kMaxInOut, core::MemoryModel::kSumInOut})
        for (const double factor : {1.1, 1.5, 2.0}) {
          Item item;
          item.klass = static_cast<int>((i / 3) * strategies.size() + s);
          item.request.nodes = log_size(1000, 20000, i, kSizes);
          item.request.seed = draw_seed(rng);
          item.request.strategy = strategies[s];
          item.request.model = model;
          item.request.memory_lb = factor;
          pass.items.push_back(std::move(item));
        }
  number_items(pass, rng);
  return pass;
}

/// replay_paged: OptMinMem at M = 1.1·LB on fresh SYNTH trees with weights
/// 100-1000, then a 4-worker paged replay (page 32, disk latency 0.5 /
/// bandwidth 64), synchronous or pipelined (prefetch window 8, write queue
/// depth 4). With the default weights 1-100 a datum of weight 33 already
/// takes two pages, so every bound below about 2·LB is infeasible to replay;
/// at weights >= 100 page rounding costs under a third, and 1.1·LB both
/// replays and spills (nonzero io_volume).
///   depth 0 — 4 sizes over 5k-6k nodes per class: the unbounded backfill
///             scan is quadratic, 150-250 ms a request;
///   depth 8 — 12 log-spaced sizes over 5k-20k nodes per class, 10-130 ms.
/// Depth 0 is 8 of the 32 requests but most of the time. p50 falls inside
/// the depth-8 classes and p90 inside the depth-0 ones, whose narrow size
/// band keeps it in a dense stretch of the distribution.
Pass replay_paged_pass(std::uint64_t seed) {
  util::Rng rng(util::derive_seed(seed, 2));
  Pass pass;
  for (const int depth : {0, 8})
    for (const bool pipelined : {false, true}) {
      pass.classes.push_back("depth" + std::to_string(depth) + (pipelined ? "/pipelined" : "/sync"));
      const int sizes = depth == 0 ? 4 : 12;
      for (int i = 0; i < sizes; ++i) {
        Item item;
        item.klass = static_cast<int>(pass.classes.size()) - 1;
        PlanRequest& r = item.request;
        r.nodes = depth == 0 ? log_size(5000, 6000, i, sizes) : log_size(5000, 20000, i, sizes);
        r.w_lo = 100;
        r.w_hi = 1000;
        r.seed = draw_seed(rng);
        r.strategy = core::Strategy::kOptMinMem;
        r.memory_lb = 1.1;
        parallel::ParallelConfig pc;
        pc.workers = 4;
        pc.backfill_depth = depth;
        if (pipelined) {
          pc.prefetch_window = 8;
          pc.write_queue_depth = 4;
        }
        r.parallel = pc;
        r.page_size = 32;
        r.disk_latency = 0.5;
        r.disk_bandwidth = 64;
        pass.items.push_back(std::move(item));
      }
    }
  number_items(pass, rng);
  return pass;
}

struct LineSpec {
  std::string source = "synth";
  std::size_t nodes = 0;
  std::uint64_t seed = 0;
  std::string path;
  core::Strategy strategy = core::Strategy::kRecExpand;
  double memory_lb = 2.0;
  bool sum_model = false;
};

std::string jsonl(const LineSpec& s, std::size_t id, const char* tenant) {
  std::ostringstream out;
  out << "{\"id\":" << id << ",\"tenant\":\"" << tenant << "\",\"source\":\"" << s.source << "\"";
  if (s.source == "synth") out << ",\"nodes\":" << s.nodes << ",\"seed\":" << s.seed;
  else out << ",\"path\":" << quoted(s.path);
  out << ",\"strategy\":\"" << strategy_key(s.strategy) << "\",\"memory_lb\":" << s.memory_lb
      << ",\"model\":\"" << (s.sum_model ? "sum" : "max") << "\"}";
  return out.str();
}

/// serve_mixed: 444 JSONL requests per pass from three tenants (2:1:1):
///   repeat   — 24 SYNTH specs x 6, answered from the fingerprint cache
///              after the first;
///   fused    — 24 same-tree groups at M in {1.1, 1.5, 2, 3}·LB, sent back
///              to back so the server can fuse them;
///   snapshot — 4 .otree files x 2 bounds x 6;
///   mtx      — 3 .mtx 2-D grids of about 1300 vertices x 2 bounds x 6;
///   cold     — 120 fresh SYNTH trees.
/// Path sources re-materialize even on a cache hit, so cached .mtx
/// requests still pay for the sparse ordering.
Pass serve_mixed_pass(std::uint64_t seed, const std::string& dir) {
  util::Rng rng(util::derive_seed(seed, 3));
  Pass pass;
  pass.classes = {"repeat", "fused", "snapshot", "mtx", "cold"};  // MixedClass order
  std::vector<std::vector<std::pair<LineSpec, int>>> units;  // a fusion group stays contiguous
  const auto alternate = [](int i) { return i % 2 == 0 ? core::Strategy::kRecExpand : core::Strategy::kOptMinMem; };

  constexpr int kSpecs = 24;
  for (int i = 0; i < kSpecs; ++i) {
    LineSpec s;
    s.nodes = 2000 + 4000 * static_cast<std::size_t>(i) / kSpecs;
    s.seed = draw_seed(rng);
    s.strategy = alternate(i);
    s.memory_lb = 1.5;
    for (int rep = 0; rep < 6; ++rep) units.push_back({{s, kRepeat}});
  }
  constexpr int kGroups = 24;
  for (int i = 0; i < kGroups; ++i) {
    LineSpec s;
    s.nodes = 3000 + 3000 * static_cast<std::size_t>(i) / kGroups;
    s.seed = draw_seed(rng);
    s.strategy = alternate(i / 2);
    std::vector<std::pair<LineSpec, int>> members;
    for (const double factor : {1.1, 1.5, 2.0, 3.0}) {
      s.memory_lb = factor;
      members.push_back({s, kFused});
    }
    units.push_back(std::move(members));
  }
  std::filesystem::create_directories(dir);
  for (int f = 0; f < 4; ++f) {
    util::Rng tree_rng(draw_seed(rng));
    const std::string path = dir + "/snapshot" + std::to_string(f) + ".otree";
    core::save_snapshot(path, treegen::synth_instance(4000 + 2000 * static_cast<std::size_t>(f), 1, 100, tree_rng));
    for (const double factor : {1.5, 2.0})
      for (int rep = 0; rep < 6; ++rep) {
        LineSpec s;
        s.source = "snapshot";
        s.path = path;
        s.memory_lb = factor;
        s.strategy = alternate(f);
        units.push_back({{s, kSnapshot}});
      }
  }
  for (int f = 0; f < 3; ++f) {
    // Grid shapes vary with the seed; the area, and so the ordering cost,
    // stays about 1300 vertices.
    const auto nx = static_cast<sparse::Index>(rng.uniform_int(30, 40));
    const auto ny = static_cast<sparse::Index>((1300 + nx / 2) / nx);
    const std::string path = dir + "/grid" + std::to_string(f) + ".mtx";
    sparse::save_matrix_market(path, sparse::grid2d(nx, ny));
    for (const double factor : {1.5, 2.0})
      for (int rep = 0; rep < 6; ++rep) {
        LineSpec s;
        s.source = "mtx";
        s.path = path;
        s.memory_lb = factor;
        units.push_back({{s, kMtx}});
      }
  }
  const std::vector<core::Strategy> cheap = core::cheap_strategies();
  constexpr int kColdTrees = 120;
  for (int i = 0; i < kColdTrees; ++i) {
    LineSpec s;
    s.nodes = 1000 + 3000 * static_cast<std::size_t>(i) / kColdTrees;
    s.seed = draw_seed(rng);
    s.strategy = cheap[static_cast<std::size_t>(i) % cheap.size()];
    s.memory_lb = std::vector<double>{1.1, 1.5, 2.0}[static_cast<std::size_t>(i / 3) % 3];
    s.sum_model = (i / 9) % 2 == 1;
    units.push_back({{s, kCold}});
  }

  std::shuffle(units.begin(), units.end(), rng.engine());
  static const char* const kTenantOfUnit[] = {"a", "a", "b", "c"};  // weights 2:1:1
  for (std::size_t u = 0; u < units.size(); ++u)
    for (const auto& [spec, klass] : units[u]) {
      Item item;
      item.line = jsonl(spec, pass.items.size() + 1, kTenantOfUnit[u % 4]);
      item.klass = klass;
      pass.items.push_back(std::move(item));
    }
  return pass;
}

// ---------------------------------------------------------------------------
// Exact counters and checks.

/// Per-pass sums of the exact counters plus a digest of every response's
/// deterministic fields, so two passes (or two runs of one seed) compare
/// with one equality.
struct Exact {
  std::int64_t io_volume = 0;
  double makespan = 0.0;
  std::int64_t pages_moved = 0;
  std::uint64_t digest = 0;
  bool operator==(const Exact&) const = default;
};

Exact exact_of(const std::vector<StatsPtr>& stats) {
  Exact e;
  std::uint64_t h = 0x6a09e667f3bcc908ULL;
  const auto mix = [&h](std::uint64_t v) { h = util::splitmix64(h ^ v); };
  for (const StatsPtr& s : stats) {
    e.io_volume += s->io_volume;
    e.makespan += s->makespan;
    e.pages_moved += s->pages_written + s->pages_read;
    mix(s->tree_hash);
    mix(static_cast<std::uint64_t>(s->io_volume));
    mix(static_cast<std::uint64_t>(s->peak_resident));
    mix(std::bit_cast<std::uint64_t>(s->makespan));
    mix(static_cast<std::uint64_t>(s->pages_written));
    mix(static_cast<std::uint64_t>(s->pages_read));
  }
  e.digest = h;
  return e;
}

/// Collects failed checks; any entry makes the run incorrect.
struct Problems {
  std::vector<std::string> list;
  void check(bool ok, const std::string& what) {
    if (!ok && list.size() < 20) list.push_back(what);
  }
};

// ---------------------------------------------------------------------------
// Latency samples with their classes, reported beside each percentile.

struct Samples {
  std::vector<double> ms;
  std::vector<int> klass;
  std::vector<std::string> names;

  void add(double value, int k) {
    ms.push_back(value);
    klass.push_back(k);
  }
};

/// {"samples", "p50": {"value_ms", "class", "local_spread"}, ..., "class_counts"}.
/// `class` is the class of the sample at the percentile's rank and
/// local_spread is (value at rank + 2% of N - value at rank - 2% of N) /
/// value: small when the percentile sits inside a dense stretch of the
/// distribution, large when it sits on a gap between a cheap class and an
/// expensive one, where a few samples more or less move it far.
std::string percentile_detail(const Samples& s) {
  std::vector<std::size_t> order(s.ms.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) { return s.ms[a] < s.ms[b]; });
  std::ostringstream out;
  out << "{\"samples\":" << s.ms.size();
  for (const double p : {50.0, 90.0, 99.0}) {
    const std::optional<double> v = perfbench::percentile(s.ms, p);
    out << ",\"p" << static_cast<int>(p) << "\":";
    if (!v) {
      out << "\"refused: fewer than 10 samples beyond the rank\"";
      continue;
    }
    const std::size_t n = s.ms.size();
    const std::size_t rank = perfbench::nearest_rank(p, n) - 1;
    const std::size_t w = std::max<std::size_t>(1, n / 50);
    const double lo = s.ms[order[rank >= w ? rank - w : 0]];
    const double hi = s.ms[order[std::min(n - 1, rank + w)]];
    out << "{\"value_ms\":" << num(*v) << ",\"class\":" << quoted(s.names[static_cast<std::size_t>(s.klass[order[rank]])])
        << ",\"local_spread\":" << num((hi - lo) / *v) << "}";
  }
  std::vector<std::size_t> counts(s.names.size(), 0);
  for (const int k : s.klass) ++counts[static_cast<std::size_t>(k)];
  out << ",\"class_counts\":{";
  for (std::size_t k = 0; k < counts.size(); ++k)
    out << (k ? "," : "") << quoted(s.names[k]) << ":" << counts[k];
  out << "}}";
  return out.str();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Direct layer calls: the service's compute path spelled out call by call,
// in service order, each call inside a span.

const char* plan_span(core::Strategy s) {
  switch (s) {
    case core::Strategy::kPostOrderMinIo: return "core.plan.postorder";
    case core::Strategy::kOptMinMem: return "core.plan.optminmem";
    case core::Strategy::kRecExpand: return "core.plan.recexpand";
    case core::Strategy::kFullRecExpand: return "core.plan.fullrecexpand";
  }
  return "core.plan.?";
}

struct Direct {
  std::uint64_t tree_hash = 0;
  core::Weight memory = 0;
  core::Schedule schedule;
  std::size_t expansions = 0;
  core::FifResult fif;
  std::optional<parallel::PagedParallelResult> replay;
};

Direct direct_compute(const PlanRequest& r, std::uint64_t service_seed, Tracer* tracer, int root) {
  const std::uint64_t seed = service::effective_seed(r, service_seed);
  Direct d;
  std::optional<core::Tree> tree;
  {
    const Scope span(tracer, "treegen.generate", root, r.id);
    tree.emplace(service::materialize_tree(r, seed));
  }
  {
    const Scope span(tracer, "core.lb", root, r.id);
    d.memory = service::resolve_memory(r, *tree);
  }
  {
    const Scope span(tracer, "service.hash", root, r.id);
    d.tree_hash = tree->canonical_hash();
  }
  {
    const Scope span(tracer, plan_span(r.strategy), root, r.id);
    switch (r.strategy) {
      case core::Strategy::kPostOrderMinIo: d.schedule = core::postorder_minio(*tree, d.memory).schedule; break;
      case core::Strategy::kOptMinMem: d.schedule = core::opt_minmem(*tree).schedule; break;
      case core::Strategy::kRecExpand: {
        core::RecExpandResult re = core::rec_expand2(*tree, d.memory);
        d.expansions = re.expansions;
        d.schedule = std::move(re.schedule);
        break;
      }
      case core::Strategy::kFullRecExpand: {
        core::RecExpandResult re = core::full_rec_expand(*tree, d.memory);
        d.expansions = re.expansions;
        d.schedule = std::move(re.schedule);
        break;
      }
    }
  }
  {
    const Scope span(tracer, "core.fif", root, r.id);
    d.fif = core::simulate_fif(*tree, d.schedule, d.memory);
  }
  if (r.parallel.has_value()) {
    const Scope span(tracer, r.parallel->backfill_depth == 0 ? "parallel.replay.depth0" : "parallel.replay.depth8",
                     root, r.id);
    parallel::PagedParallelConfig paged;
    paged.base = *r.parallel;
    paged.base.memory = d.memory;
    if (paged.base.seed == 0) paged.base.seed = seed;
    paged.page_size = std::max<core::Weight>(1, r.page_size);
    if (r.disk_bandwidth > 0) paged.disk = iosim::DiskModel{r.disk_latency, r.disk_bandwidth};
    d.replay = parallel::simulate_parallel_paged(*tree, paged, d.schedule);
  }
  return d;
}

bool reproduces(const PlanStats& s, const Direct& d) {
  if (!s.ok || s.tree_hash != d.tree_hash || s.memory != d.memory || s.schedule != d.schedule ||
      s.io_volume != d.fif.io_volume || s.peak_resident != d.fif.peak_resident ||
      s.evictions != d.fif.evictions)
    return false;
  if (!d.replay.has_value()) return !s.replayed;
  const parallel::PagedParallelResult& p = *d.replay;
  return s.replayed && s.makespan == p.base.makespan && s.failed_starts == p.base.failed_starts &&
         s.pages_written == p.pages_written && s.pages_read == p.pages_read &&
         s.read_stall == p.read_stall && s.write_stall == p.write_stall &&
         s.prefetch_issued == p.prefetch_issued && s.prefetch_useful == p.prefetch_useful;
}

// ---------------------------------------------------------------------------
// Result printing.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed, const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\":" << (correct ? "true" : "false") << ",\"attempted\":" << attempted
      << ",\"failed\":" << failed << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    out << (i ? "," : "") << quoted(metrics[i].name) << ":{\"value\":" << num(metrics[i].value)
        << ",\"unit\":" << quoted(metrics[i].unit) << "}";
  out << "}}";
  std::printf("%s\n", out.str().c_str());
}

/// Per-layer metrics of one traced run; a layer the workload does not use
/// keeps 0. Times are per pass of the sequence, counts per pass.
using Layers = std::map<std::string, double>;

/// Every per-layer metric in print order, with its unit (BENCHMARK.json
/// lists the same names).
const std::vector<std::pair<std::string, std::string>>& layer_table() {
  static const std::vector<std::pair<std::string, std::string>> table = {
      {"treegen.generate_ms", "ms"},
      {"core.plan_ms.postorder", "ms"},
      {"core.plan_ms.optminmem", "ms"},
      {"core.plan_ms.recexpand", "ms"},
      {"core.plan_ms.fullrecexpand", "ms"},
      {"core.lb_ms", "ms"},
      {"core.expansions", "count"},
      {"core.fif_ms", "ms"},
      {"core.evictions", "count"},
      {"core.snapshot_load_ms", "ms"},
      {"core.plan_share", "ratio"},
      {"sparse.load_ms", "ms"},
      {"sparse.order_ms", "ms"},
      {"sparse.assemble_ms", "ms"},
      {"sparse.cached_mtx_share", "ratio"},
      {"parallel.replay_ms.depth0", "ms"},
      {"parallel.replay_ms.depth8", "ms"},
      {"parallel.failed_starts", "count"},
      {"parallel.backfill_scans", "count"},
      {"parallel.pages_read", "pages"},
      {"parallel.pages_written", "pages"},
      {"parallel.prefetch_useful_ratio", "ratio"},
      {"parallel.read_stall", "sim_time"},
      {"parallel.write_stall", "sim_time"},
      {"parallel.request_share", "ratio"},
      {"service.decode_ms", "ms"},
      {"service.hash_ms", "ms"},
      {"service.serve_ms.computed", "ms"},
      {"service.serve_ms.cached", "ms"},
      {"service.serve_ms.fused", "ms"},
      {"service.cache_hit_ratio", "ratio"},
      {"service.cache_evictions", "count"},
      {"service.unattributed_share", "ratio"},
      {"server.wait_ms_p50", "ms"},
      {"server.wait_ms_p90", "ms"},
      {"server.fused_groups", "count"},
      {"server.fused_requests", "count"},
      {"server.admission_peak", "count"},
      {"server.shed", "count"},
      {"latency_p99_ms", "ms"},
      {"makespan_total", "sim_time"},
      {"pages_moved_total", "pages"},
  };
  return table;
}

std::vector<Metric> layer_list(const Layers& layers) {
  for (const auto& [name, value] : layers) {
    const auto& table = layer_table();
    if (std::none_of(table.begin(), table.end(), [&](const auto& row) { return row.first == name; }))
      throw std::logic_error("per-layer metric missing from the table: " + name);
  }
  std::vector<Metric> out;
  for (const auto& [name, unit] : layer_table()) {
    const auto it = layers.find(name);
    out.push_back({name, it == layers.end() ? 0.0 : it->second, unit});
  }
  return out;
}

std::string exact_json(const Exact& e) {
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx", static_cast<unsigned long long>(e.digest));
  return "{\"io_volume_total\":" + std::to_string(e.io_volume) + ",\"makespan_total\":" + num(e.makespan) +
         ",\"pages_moved_total\":" + std::to_string(e.pages_moved) + ",\"digest\":" + quoted(digest) + "}";
}

std::string list_json(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) out += (i ? "," : "") + num(values[i]);
  return out + "]";
}

std::string problems_json(const Problems& p) {
  std::string out = "[";
  for (std::size_t i = 0; i < p.list.size(); ++i) out += (i ? "," : "") + quoted(p.list[i]);
  return out + "]";
}

/// Prints the detail line: the run, its passes, the exact counters, the
/// latency percentiles with their sample and class counts, the
/// workload-specific `extra` members (key, JSON value) and every failed check.
void print_detail(const Options& opt, std::size_t passes, std::size_t pass_requests, const Exact& exact,
                  const Samples& samples, const std::vector<std::pair<std::string, std::string>>& extra,
                  const Problems& problems) {
  std::ostringstream out;
  out << "{\"detail\":{\"workload\":" << quoted(opt.workload) << ",\"seed\":" << opt.seed
      << ",\"trace\":" << (opt.trace ? "true" : "false") << ",\"passes\":" << passes
      << ",\"pass_requests\":" << pass_requests << ",\"exact\":" << exact_json(exact)
      << ",\"latency\":" << percentile_detail(samples);
  for (const auto& [key, value] : extra) out << "," << quoted(key) << ":" << value;
  out << ",\"problems\":" << problems_json(problems) << "}}";
  std::printf("%s\n", out.str().c_str());
}

/// The end-to-end metrics of an untraced run.
std::vector<Metric> end_to_end(const Samples& samples, double elapsed_s, const Exact& exact,
                               const std::vector<double>& setup_s) {
  return {
      {"throughput_rps", static_cast<double>(samples.ms.size()) / elapsed_s, "req/s"},
      {"latency_p50_ms", perfbench::percentile(samples.ms, 50).value_or(0.0), "ms"},
      {"latency_p90_ms", perfbench::percentile(samples.ms, 90).value_or(0.0), "ms"},
      {"io_volume_total", static_cast<double>(exact.io_volume), "units"},
      {"peak_rss_mb", perfbench::peak_rss_mb(), "MiB"},
      {"setup_s", median(setup_s), "s"},
  };
}

// ---------------------------------------------------------------------------
// plan_cold and replay_paged: PlanService::plan on a 1-thread service,
// called by the client thread itself (one busy thread).

service::ServiceConfig sync_service_config() {
  service::ServiceConfig config;
  config.threads = 1;
  // One LRU shard far below a pass's two insertions per request: the
  // cyclic pass order evicts every key before it recurs, so the cache only
  // misses, inserts and evicts.
  config.cache_capacity = kPlanCacheCapacity;
  config.cache_shards = 1;
  return config;
}

/// A healthy answer: ok, and a requested replay that ran to completion.
void check_response(Problems& problems, const PlanStats& stats, std::size_t id) {
  problems.check(stats.ok, "request " + std::to_string(id) + " failed: " + stats.error);
  problems.check(!stats.replayed || stats.replay_feasible, "request " + std::to_string(id) + " replayed infeasibly");
}

struct SyncPassResult {
  std::vector<StatsPtr> stats;
  std::vector<double> ms;
};

SyncPassResult serve_sync_pass(service::PlanService& svc, const Pass& pass) {
  SyncPassResult out;
  out.stats.reserve(pass.items.size());
  out.ms.reserve(pass.items.size());
  for (const Item& item : pass.items) {
    const Clock::time_point t0 = Clock::now();
    service::PlanResponse response = svc.plan(item.request);
    out.ms.push_back(ms_between(t0, Clock::now()));
    out.stats.push_back(std::move(response.stats));
  }
  return out;
}

struct SyncSetup {
  Pass pass;
  std::unique_ptr<service::PlanService> svc;
  Exact warm;
};

SyncSetup sync_setup(const Options& opt) {
  SyncSetup s;
  s.pass = opt.workload == "plan_cold" ? plan_cold_pass(opt.seed) : replay_paged_pass(opt.seed);
  s.svc = std::make_unique<service::PlanService>(sync_service_config());
  s.warm = exact_of(serve_sync_pass(*s.svc, s.pass).stats);
  return s;
}

/// The timed run: whole passes until --seconds, then the end-to-end metrics.
int time_sync(const Options& opt, SyncSetup& setup, const std::vector<double>& setup_s) {
  Problems problems;
  const Pass& pass = setup.pass;
  service::PlanService& svc = *setup.svc;
  const service::ServiceStats before = svc.stats();
  Samples samples;
  samples.names = pass.classes;
  std::size_t passes = 0;
  std::size_t failed = 0;
  Exact exact;
  std::vector<double> pass_s;
  const Clock::time_point start = Clock::now();
  double elapsed_s = 0.0;
  do {
    const Clock::time_point pass_start = Clock::now();
    SyncPassResult r = serve_sync_pass(svc, pass);
    pass_s.push_back(ms_between(pass_start, Clock::now()) / 1e3);
    for (std::size_t i = 0; i < pass.items.size(); ++i) {
      samples.add(r.ms[i], pass.items[i].klass);
      if (!r.stats[i]->ok) ++failed;
    }
    const Exact e = exact_of(r.stats);
    problems.check(e == setup.warm, "pass " + std::to_string(passes) + " exact counters differ from the warm-up pass");
    if (passes == 0) {
      exact = e;
      for (std::size_t i = 0; i < r.stats.size(); ++i) check_response(problems, *r.stats[i], i + 1);
    }
    ++passes;
    elapsed_s = ms_between(start, Clock::now()) / 1e3;
  } while (elapsed_s < opt.seconds);
  const service::ServiceStats after = svc.stats();
  problems.check(after.cache.hits == before.cache.hits, "the plan cache answered a hit in a cold workload");
  problems.check(after.computed - before.computed == samples.ms.size(), "a request was not computed cold");
  problems.check(failed == 0, std::to_string(failed) + " requests failed");

  problems.check(perfbench::percentile(samples.ms, 90).has_value(),
                 "too few samples for a p90: lengthen --seconds");
  print_detail(opt, passes, pass.items.size(), exact, samples,
               {{"setup_s_each", list_json(setup_s)},
                {"pass_s", list_json(pass_s)},
                {"cache_evictions", std::to_string(after.cache.evictions - before.cache.evictions)}},
               problems);
  print_result(problems.list.empty(), samples.ms.size(), failed, end_to_end(samples, elapsed_s, exact, setup_s));
  return 0;
}

/// The traced run: per request, the untraced service call, then the same
/// computation through the public layer functions inside spans. The direct
/// calls must reproduce the service's answer exactly.
int trace_sync(const Options& opt, SyncSetup& setup) {
  Problems problems;
  const Pass& pass = setup.pass;
  service::PlanService& svc = *setup.svc;
  const service::ServiceStats before = svc.stats();
  Samples samples;
  samples.names = pass.classes;
  std::size_t passes = 0;
  std::size_t failed = 0;
  Exact exact;
  Tracer tracer;
  double service_ms = 0.0;
  std::int64_t expansions = 0, evictions = 0, failed_starts = 0, backfill_scans = 0, pages_read = 0,
               pages_written = 0, prefetch_issued = 0, prefetch_useful = 0;
  double read_stall = 0.0, write_stall = 0.0;
  const Clock::time_point start = Clock::now();
  do {
    std::vector<StatsPtr> pass_stats;
    for (const Item& item : pass.items) {
      const Clock::time_point t0 = Clock::now();
      service::PlanResponse response = svc.plan(item.request);
      const double ms = ms_between(t0, Clock::now());
      service_ms += ms;
      samples.add(ms, item.klass);
      if (!response.stats->ok) ++failed;
      const std::int64_t id = item.request.id + static_cast<std::int64_t>(passes * pass.items.size());
      const int root = tracer.open("request", -1, id);
      const Direct d = direct_compute(item.request, svc.config().seed, &tracer, root);
      tracer.close(root);
      if (passes == 0) check_response(problems, *response.stats, static_cast<std::size_t>(item.request.id));
      problems.check(reproduces(*response.stats, d),
                     "direct layer calls do not reproduce request " + std::to_string(item.request.id));
      if (passes == 0) {
        expansions += static_cast<std::int64_t>(d.expansions);
        evictions += d.fif.evictions;
        if (d.replay) {
          failed_starts += d.replay->base.failed_starts;
          backfill_scans += d.replay->base.backfill_scans;
          pages_read += d.replay->pages_read;
          pages_written += d.replay->pages_written;
          prefetch_issued += d.replay->prefetch_issued;
          prefetch_useful += d.replay->prefetch_useful;
          read_stall += d.replay->read_stall;
          write_stall += d.replay->write_stall;
        }
      }
      pass_stats.push_back(std::move(response.stats));
    }
    const Exact e = exact_of(pass_stats);
    problems.check(e == setup.warm, "traced pass exact counters differ from the warm-up pass");
    if (passes == 0) exact = e;
    ++passes;
  } while (ms_between(start, Clock::now()) / 1e3 < opt.seconds);
  const service::ServiceStats after = svc.stats();
  problems.check(failed == 0, std::to_string(failed) + " requests failed");

  const std::map<std::string, double> self = tracer.self_ms();
  const auto per_pass = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second / static_cast<double>(passes);
  };
  const double request_ms = service_ms / static_cast<double>(passes);
  Layers layers;
  layers["treegen.generate_ms"] = per_pass("treegen.generate");
  layers["core.plan_ms.postorder"] = per_pass("core.plan.postorder");
  layers["core.plan_ms.optminmem"] = per_pass("core.plan.optminmem");
  layers["core.plan_ms.recexpand"] = per_pass("core.plan.recexpand");
  layers["core.plan_ms.fullrecexpand"] = per_pass("core.plan.fullrecexpand");
  layers["core.lb_ms"] = per_pass("core.lb");
  layers["core.expansions"] = static_cast<double>(expansions);
  layers["core.fif_ms"] = per_pass("core.fif");
  layers["core.evictions"] = static_cast<double>(evictions);
  layers["core.plan_share"] = (layers["core.plan_ms.postorder"] + layers["core.plan_ms.optminmem"] +
                               layers["core.plan_ms.recexpand"] + layers["core.plan_ms.fullrecexpand"]) /
                              request_ms;
  layers["parallel.replay_ms.depth0"] = per_pass("parallel.replay.depth0");
  layers["parallel.replay_ms.depth8"] = per_pass("parallel.replay.depth8");
  layers["parallel.failed_starts"] = static_cast<double>(failed_starts);
  layers["parallel.backfill_scans"] = static_cast<double>(backfill_scans);
  layers["parallel.pages_read"] = static_cast<double>(pages_read);
  layers["parallel.pages_written"] = static_cast<double>(pages_written);
  layers["parallel.prefetch_useful_ratio"] =
      prefetch_issued > 0 ? static_cast<double>(prefetch_useful) / static_cast<double>(prefetch_issued) : 0.0;
  layers["parallel.read_stall"] = read_stall;
  layers["parallel.write_stall"] = write_stall;
  layers["parallel.request_share"] =
      (layers["parallel.replay_ms.depth0"] + layers["parallel.replay_ms.depth8"]) / request_ms;
  layers["service.hash_ms"] = per_pass("service.hash");
  layers["service.serve_ms.computed"] = request_ms;
  const std::uint64_t lookups =
      (after.cache.hits + after.cache.misses) - (before.cache.hits + before.cache.misses);
  layers["service.cache_hit_ratio"] =
      lookups > 0 ? static_cast<double>(after.cache.hits - before.cache.hits) / static_cast<double>(lookups) : 0.0;
  layers["service.cache_evictions"] =
      static_cast<double>(after.cache.evictions - before.cache.evictions) / static_cast<double>(passes);
  double layer_ms = 0.0;
  for (const auto& [name, ms] : self)
    if (name != "request") layer_ms += ms;
  layers["service.unattributed_share"] = 1.0 - layer_ms / service_ms;
  layers["latency_p99_ms"] = perfbench::percentile(samples.ms, 99).value_or(0.0);
  layers["makespan_total"] = exact.makespan;
  layers["pages_moved_total"] = static_cast<double>(exact.pages_moved);

  tracer.write_chrome_json(opt.out_dir + "/trace-" + opt.workload + "-" + std::to_string(opt.seed) + ".json");
  print_detail(opt, passes, pass.items.size(), exact, samples, {{"spans", std::to_string(tracer.spans().size())}},
               problems);
  print_result(problems.list.empty(), samples.ms.size(), failed, layer_list(layers));
  return 0;
}

int run_sync(const Options& opt) {
  std::vector<double> setup_s;
  SyncSetup setup;
  for (int i = 0; i < (opt.trace ? 1 : kSetups); ++i) {
    const Clock::time_point t0 = Clock::now();
    setup = sync_setup(opt);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  return opt.trace ? trace_sync(opt, setup) : time_sync(opt, setup, setup_s);
}

// ---------------------------------------------------------------------------
// serve_mixed: PlanServer with 2 dispatch workers, fusion on, tenants
// a:b:c weighted 2:1:1, shed policy. One client thread decodes each JSONL
// line and keeps kWindow requests outstanding (closed loop). Each pass runs
// on a fresh server so every pass sees the same cache history.

server::ServerConfig server_config() {
  server::ServerConfig config;
  config.workers = 2;
  config.fuse = true;
  config.weights = {{"a", 2.0}, {"b", 1.0}, {"c", 1.0}};
  config.admission.depth = 2 * kWindow;  // never below the window: a healthy run sheds nothing
  config.admission.policy = server::OverloadPolicy::kShed;
  return config;
}

struct MixedPassResult {
  std::vector<server::ServerResponse> responses;  ///< in pass order
  std::vector<double> ms;                         ///< submit to response, client side
  server::ServerStats stats;
};

MixedPassResult serve_mixed_once(const Pass& pass, Tracer* tracer, std::int64_t id_base) {
  const std::size_t n = pass.items.size();
  MixedPassResult out;
  out.responses.resize(n);
  out.ms.resize(n);
  server::PlanServer srv(server_config());
  struct Pending {
    std::size_t index;
    Clock::time_point submitted;
    std::future<server::ServerResponse> future;
    int root;
    int wait;
  };
  std::vector<Pending> outstanding;
  std::size_t next = 0;
  while (next < n || !outstanding.empty()) {
    while (next < n && outstanding.size() < kWindow) {
      const std::size_t i = next++;
      const std::int64_t id = id_base + static_cast<std::int64_t>(i) + 1;
      const int root = tracer ? tracer->open("request", -1, id) : -1;
      PlanRequest request;
      {
        const Scope span(tracer, "service.decode", root, id);
        request = service::request_from_json(pass.items[i].line);
      }
      const Clock::time_point submitted = Clock::now();
      std::future<server::ServerResponse> future;
      {
        const Scope span(tracer, "server.submit", root, id);
        future = srv.submit(std::move(request));
      }
      const int wait = tracer ? tracer->open("server.response", root, id) : -1;
      outstanding.push_back(Pending{i, submitted, std::move(future), root, wait});
    }
    bool harvested = false;
    for (std::size_t k = 0; k < outstanding.size();) {
      Pending& p = outstanding[k];
      if (p.future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        ++k;
        continue;
      }
      out.ms[p.index] = ms_between(p.submitted, Clock::now());
      if (tracer) {
        tracer->close(p.wait);
        tracer->close(p.root);
      }
      out.responses[p.index] = p.future.get();
      outstanding.erase(outstanding.begin() + static_cast<std::ptrdiff_t>(k));
      harvested = true;
    }
    // Nothing ready: sleep on the oldest future, waking at least every
    // 100 us to harvest whichever request finished first.
    if (!harvested && !outstanding.empty())
      outstanding.front().future.wait_for(std::chrono::microseconds(100));
  }
  srv.drain();
  out.stats = srv.stats();
  return out;
}

std::size_t served_index(service::Served s) { return static_cast<std::size_t>(s); }

std::string served_counts_json(const std::vector<std::size_t>& counts) {
  std::string out = "{";
  for (std::size_t k = 0; k < counts.size(); ++k)
    out += (k ? ",\"" : "\"") + service::served_name(static_cast<service::Served>(k)) + "\":" + std::to_string(counts[k]);
  return out + "}";
}

int run_mixed(const Options& opt) {
  Problems problems;
  const std::string dir = opt.out_dir + "/inputs-" + std::to_string(opt.seed);
  std::vector<double> setup_s;
  Pass pass;
  for (int i = 0; i < (opt.trace ? 1 : kSetups); ++i) {
    const Clock::time_point t0 = Clock::now();
    pass = serve_mixed_pass(opt.seed, dir);
    const MixedPassResult warm = serve_mixed_once(pass, nullptr, 0);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    if (i == 0)
      for (const server::ServerResponse& r : warm.responses)
        problems.check(r.plan.stats->ok && !r.shed, "warm-up request failed: " + r.plan.stats->error);
  }

  // Every response of every pass must be identical() to a direct compute
  // on a cache-less service: cached, coalesced and fused answers included.
  service::ServiceConfig direct_config;
  direct_config.threads = 1;
  direct_config.cache_capacity = 0;
  service::PlanService direct(direct_config);
  std::vector<StatsPtr> reference;
  reference.reserve(pass.items.size());
  for (const Item& item : pass.items) reference.push_back(direct.plan(service::request_from_json(item.line)).stats);
  const Exact exact = exact_of(reference);

  Samples samples;
  samples.names = pass.classes;
  std::vector<std::size_t> served(served_index(service::Served::kShed) + 1, 0);
  std::size_t passes = 0;
  std::size_t failed = 0;
  Tracer tracer;
  Tracer* const tr = opt.trace ? &tracer : nullptr;
  std::vector<double> wait_ms;
  std::vector<double> serve_ms(served.size(), 0.0);
  double latency_sum_ms = 0.0, attributed_ms = 0.0;
  std::uint64_t fused_groups = 0, fused_requests = 0, shed = 0, hits = 0, lookups = 0, evictions = 0;
  std::size_t admission_peak = 0;
  double sparse_ms[3] = {0, 0, 0};
  double snapshot_ms = 0.0, hash_ms = 0.0, cached_mtx_sparse_ms = 0.0, cached_mtx_serve_ms = 0.0;

  std::vector<double> pass_s;
  const Clock::time_point start = Clock::now();
  double elapsed_s = 0.0;
  do {
    const Clock::time_point pass_start = Clock::now();
    const MixedPassResult r =
        serve_mixed_once(pass, tr, static_cast<std::int64_t>(passes * pass.items.size()));
    pass_s.push_back(ms_between(pass_start, Clock::now()) / 1e3);
    for (std::size_t i = 0; i < pass.items.size(); ++i) {
      const server::ServerResponse& resp = r.responses[i];
      samples.add(r.ms[i], pass.items[i].klass);
      ++served[served_index(resp.plan.served)];
      if (!resp.plan.stats->ok || resp.shed) ++failed;
      problems.check(service::identical(*resp.plan.stats, *reference[i]),
                     "request " + std::to_string(i + 1) + " (" + service::served_name(resp.plan.served) +
                         ") differs from a direct compute: " + resp.plan.stats->error);
      wait_ms.push_back(resp.wait_seconds * 1e3);
      serve_ms[served_index(resp.plan.served)] += resp.plan.seconds * 1e3;
      latency_sum_ms += r.ms[i];
      attributed_ms += (resp.wait_seconds + resp.plan.seconds) * 1e3;
    }
    fused_groups += r.stats.fused_groups;
    fused_requests += r.stats.fused_requests;
    shed += r.stats.admission.shed();
    admission_peak = std::max(admission_peak, r.stats.admission.peak);
    hits += r.stats.service.cache.hits;
    lookups += r.stats.service.cache.hits + r.stats.service.cache.misses;
    evictions += r.stats.service.cache.evictions;
    problems.check(r.stats.admission.submitted == r.stats.admission.admitted + r.stats.admission.shed(),
                   "admission counters do not conserve");

    if (tr) {
      // The sparse pipeline and snapshot loads of the pass's path sources,
      // timed through their public functions; each must rebuild the tree
      // the server answered for.
      for (std::size_t i = 0; i < pass.items.size(); ++i) {
        const int klass = pass.items[i].klass;
        if (klass != kSnapshot && klass != kMtx) continue;
        const PlanRequest request = service::request_from_json(pass.items[i].line);
        const server::ServerResponse& resp = r.responses[i];
        const std::int64_t id = static_cast<std::int64_t>(passes * pass.items.size() + i) + 1;
        const int root = tracer.open("direct", -1, id);
        const auto timed = [&](const char* name, const auto& call) {
          const int span = tracer.open(name, root, id);
          call();
          return tracer.close(span);
        };
        std::optional<core::Tree> tree;
        if (klass == kSnapshot) {
          snapshot_ms += timed("core.snapshot_load", [&] { tree.emplace(core::load_snapshot(request.path)); });
        } else {
          std::optional<sparse::SymPattern> pattern;
          std::vector<sparse::Index> perm;
          const double load = timed("sparse.load", [&] { pattern.emplace(sparse::load_matrix_market(request.path)); });
          const double order = timed("sparse.order", [&] { perm = sparse::minimum_degree(*pattern); });
          const double assemble =
              timed("sparse.assemble", [&] { tree.emplace(sparse::assembly_tree(pattern->permuted(perm))); });
          sparse_ms[0] += load;
          sparse_ms[1] += order;
          sparse_ms[2] += assemble;
          if (resp.plan.served == service::Served::kCached) {
            cached_mtx_sparse_ms += load + order + assemble;
            cached_mtx_serve_ms += resp.plan.seconds * 1e3;
          }
        }
        if (tree->memory_model() != request.model) tree = tree->with_memory_model(request.model);
        std::uint64_t h = 0;
        hash_ms += timed("service.hash", [&] { h = tree->canonical_hash(); });
        tracer.close(root);
        problems.check(h == resp.plan.stats->tree_hash,
                       "direct load of " + request.path + " does not rebuild the served tree");
      }
    }
    ++passes;
    elapsed_s = ms_between(start, Clock::now()) / 1e3;
  } while (elapsed_s < opt.seconds);
  problems.check(failed == 0, std::to_string(failed) + " requests failed or were shed");
  problems.check(served[served_index(service::Served::kCached)] > 0, "the mix produced no cache hits");
  problems.check(served[served_index(service::Served::kFused)] > 0, "the mix produced no fused dispatches");

  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = end_to_end(samples, elapsed_s, exact, setup_s);
  } else {
    const auto per_pass = [&](double v) { return v / static_cast<double>(passes); };
    const std::map<std::string, double> self = tracer.self_ms();
    const auto span_ms = [&](const char* name) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : per_pass(it->second);
    };
    Layers layers;
    layers["core.snapshot_load_ms"] = per_pass(snapshot_ms);
    layers["sparse.load_ms"] = per_pass(sparse_ms[0]);
    layers["sparse.order_ms"] = per_pass(sparse_ms[1]);
    layers["sparse.assemble_ms"] = per_pass(sparse_ms[2]);
    layers["sparse.cached_mtx_share"] = cached_mtx_serve_ms > 0 ? cached_mtx_sparse_ms / cached_mtx_serve_ms : 0.0;
    layers["service.decode_ms"] = span_ms("service.decode");
    layers["service.hash_ms"] = per_pass(hash_ms);
    layers["service.serve_ms.computed"] = per_pass(serve_ms[served_index(service::Served::kComputed)] +
                                                   serve_ms[served_index(service::Served::kCoalesced)]);
    layers["service.serve_ms.cached"] = per_pass(serve_ms[served_index(service::Served::kCached)]);
    layers["service.serve_ms.fused"] = per_pass(serve_ms[served_index(service::Served::kFused)]);
    layers["service.cache_hit_ratio"] = lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0;
    layers["service.cache_evictions"] = per_pass(static_cast<double>(evictions));
    layers["service.unattributed_share"] = 1.0 - attributed_ms / latency_sum_ms;
    layers["server.wait_ms_p50"] = perfbench::percentile(wait_ms, 50).value_or(0.0);
    layers["server.wait_ms_p90"] = perfbench::percentile(wait_ms, 90).value_or(0.0);
    layers["server.fused_groups"] = per_pass(static_cast<double>(fused_groups));
    layers["server.fused_requests"] = per_pass(static_cast<double>(fused_requests));
    layers["server.admission_peak"] = static_cast<double>(admission_peak);
    layers["server.shed"] = static_cast<double>(shed);
    layers["latency_p99_ms"] = perfbench::percentile(samples.ms, 99).value_or(0.0);
    metrics = layer_list(layers);
    tracer.write_chrome_json(opt.out_dir + "/trace-" + opt.workload + "-" + std::to_string(opt.seed) + ".json");
  }
  print_detail(opt, passes, pass.items.size(), exact, samples,
               {{"served", served_counts_json(served)}, {"setup_s_each", list_json(setup_s)}, {"pass_s", list_json(pass_s)}},
               problems);
  print_result(problems.list.empty(), samples.ms.size(), failed, metrics);
  std::filesystem::remove_all(dir);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload plan_cold|replay_paged|serve_mixed --seed N --seconds T "
               "--trace 0|1 [--out-dir DIR]\n       perfbench --self-test\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--self-test") return perfbench::percentile_self_test() ? 0 : 1;
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (arg == "--workload") opt.workload = value;
      else if (arg == "--seed") opt.seed = std::stoull(value);
      else if (arg == "--seconds") opt.seconds = std::stod(value);
      else if (arg == "--trace") opt.trace = value == "1";
      else if (arg == "--out-dir") opt.out_dir = value;
      else return usage();
    }
    std::filesystem::create_directories(opt.out_dir);
    if (opt.workload == "plan_cold" || opt.workload == "replay_paged") return run_sync(opt);
    if (opt.workload == "serve_mixed") return run_mixed(opt);
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
