#include "src/core/strategies.hpp"

#include <stdexcept>

#include "src/core/minio_postorder.hpp"
#include "src/core/minmem_optimal.hpp"
#include "src/core/rec_expand.hpp"
#include "src/util/text.hpp"

namespace ooctree::core {

std::string strategy_name(Strategy s) {
  switch (s) {
    case Strategy::kPostOrderMinIo: return "PostOrderMinIO";
    case Strategy::kOptMinMem: return "OptMinMem";
    case Strategy::kRecExpand: return "RecExpand";
    case Strategy::kFullRecExpand: return "FullRecExpand";
  }
  throw std::invalid_argument("strategy_name: unknown strategy");
}

Strategy strategy_from_name(const std::string& name) {
  const std::string s = util::to_lower(name);
  if (s == "postorder" || s == "postorderminio") return Strategy::kPostOrderMinIo;
  if (s == "optminmem") return Strategy::kOptMinMem;
  if (s == "recexpand") return Strategy::kRecExpand;
  if (s == "full" || s == "fullrecexpand") return Strategy::kFullRecExpand;
  throw std::invalid_argument("unknown strategy '" + name +
                              "' (postorder | optminmem | recexpand | full)");
}

std::vector<Strategy> all_strategies() {
  return {Strategy::kOptMinMem, Strategy::kRecExpand, Strategy::kPostOrderMinIo,
          Strategy::kFullRecExpand};
}

std::vector<Strategy> cheap_strategies() {
  return {Strategy::kOptMinMem, Strategy::kRecExpand, Strategy::kPostOrderMinIo};
}

StrategyOutcome StrategyRunner::run(Strategy s, Weight memory) {
  StrategyOutcome out;
  out.strategy = s;
  switch (s) {
    case Strategy::kPostOrderMinIo:
      out.schedule = postorder_minio(tree_, memory).schedule;
      break;
    case Strategy::kOptMinMem:
      if (!optminmem_.has_value()) optminmem_ = opt_minmem(tree_).schedule;
      out.schedule = *optminmem_;
      break;
    case Strategy::kRecExpand:
    case Strategy::kFullRecExpand: {
      // The 3-arg rec_expand delegates to this overload with the same
      // peaks, so sharing them changes nothing but the work.
      if (!all_peaks_.has_value()) all_peaks_ = opt_minmem_all_peaks(tree_);
      RecExpandOptions options;
      if (s == Strategy::kRecExpand) options.max_expansions_per_node = 2;
      out.schedule = rec_expand(tree_, memory, options, *all_peaks_).schedule;
      break;
    }
  }
  out.evaluation = simulate_fif(tree_, out.schedule, memory);
  return out;
}

StrategyOutcome run_strategy(Strategy s, const Tree& tree, Weight memory) {
  return StrategyRunner(tree).run(s, memory);
}

}  // namespace ooctree::core
