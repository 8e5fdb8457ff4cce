// Quickstart: build a small task tree, schedule it under a memory bound,
// and inspect the resulting out-of-core plan.
//
//   $ ./quickstart
//
// Walks through the library's central objects: Tree, the MinMem algorithms,
// the FiF evaluation of a schedule (Theorem 1), and the RecExpand heuristic
// that is the paper's contribution.
#include <cstdio>

#include "src/core/fif_simulator.hpp"
#include "src/core/minio_postorder.hpp"
#include "src/core/minmem_optimal.hpp"
#include "src/core/minmem_postorder.hpp"
#include "src/core/rec_expand.hpp"
#include "src/core/tree.hpp"

int main() {
  using namespace ooctree;
  using core::kNoNode;
  using core::Weight;

  // A 9-node task tree: node 0 is the root; every node lists its parent
  // and the size of its output datum.
  //
  //            0 (w 1)
  //          __/ \__
  //       1 (3)     5 (3)
  //         |         |
  //       2 (5)     6 (5)
  //         |         |
  //       3 (2)     7 (2)
  //         |         |
  //       4 (6)     8 (6)
  const core::Tree tree = core::make_tree({
      {kNoNode, 1},
      {0, 3}, {1, 5}, {2, 2}, {3, 6},
      {0, 3}, {5, 5}, {6, 2}, {7, 6},
  });
  std::printf("task tree:\n%s\n", tree.to_string().c_str());

  // How much memory does the tree need?
  const Weight lb = tree.min_feasible_memory();
  const auto best_postorder = core::postorder_minmem(tree);
  const auto optimal = core::opt_minmem(tree);
  std::printf("minimum to process any single task (LB) : %lld\n", (long long)lb);
  std::printf("best postorder peak (Liu '86)           : %lld\n", (long long)best_postorder.peak);
  std::printf("optimal traversal peak (Liu '87)        : %lld\n", (long long)optimal.peak);

  // Give it less memory than the in-core peak: I/O becomes unavoidable.
  const Weight memory = 6;
  std::printf("\nmemory bound M = %lld\n", (long long)memory);

  // Any schedule is evaluated by the Furthest-in-the-Future rule, which is
  // optimal for that schedule (Theorem 1).
  const auto eval_opt = core::simulate_fif(tree, optimal.schedule, memory);
  std::printf("OptMinMem schedule + FiF evictions      : %lld I/O units\n",
              (long long)eval_opt.io_volume);

  // The best postorder for I/O (Agullo).
  const auto postorder = core::postorder_minio(tree, memory);
  std::printf("PostOrderMinIO                          : %lld I/O units\n",
              (long long)postorder.predicted_io);

  // The paper's heuristic: force unavoidable I/O into the tree structure
  // by node expansion, re-plan, repeat.
  const auto rec = core::full_rec_expand(tree, memory);
  const auto eval_rec = core::simulate_fif(tree, rec.schedule, memory);
  std::printf("FullRecExpand                           : %lld I/O units"
              " (%zu expansions, %lld units expanded)\n",
              (long long)eval_rec.io_volume, rec.expansions,
              (long long)rec.expansion_volume);

  // Show the actual plan: execution order plus which outputs are spilled.
  std::printf("\nchosen plan (FullRecExpand):\n  order:");
  for (const core::NodeId v : rec.schedule) std::printf(" %d", v);
  std::printf("\n  spills:");
  for (std::size_t i = 0; i < eval_rec.io.size(); ++i)
    if (eval_rec.io[i] > 0)
      std::printf(" node %zu -> %lld units", i, (long long)eval_rec.io[i]);
  std::printf("\n");
  return 0;
}
