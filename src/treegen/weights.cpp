#include "src/treegen/weights.hpp"

#include <algorithm>
#include <cmath>

namespace ooctree::treegen {

namespace {

core::Tree rebuild(const core::Tree& tree, std::vector<core::Weight> weights) {
  std::vector<core::NodeId> parent(tree.size());
  for (std::size_t i = 0; i < tree.size(); ++i)
    parent[i] = tree.parent(static_cast<core::NodeId>(i));
  return core::Tree::from_parents(std::move(parent), std::move(weights), tree.memory_model());
}

}  // namespace

std::vector<core::Weight> uniform_weights(std::size_t n, core::Weight lo, core::Weight hi,
                                          util::Rng& rng) {
  std::vector<core::Weight> w(n);
  for (auto& x : w) x = rng.uniform_int(lo, hi);
  return w;
}

core::Tree with_uniform_weights(const core::Tree& tree, core::Weight lo, core::Weight hi,
                                util::Rng& rng) {
  return rebuild(tree, uniform_weights(tree.size(), lo, hi, rng));
}

core::Tree with_log_uniform_weights(const core::Tree& tree, core::Weight hi, util::Rng& rng) {
  std::vector<core::Weight> w(tree.size());
  const double top = std::log10(static_cast<double>(hi));
  for (auto& x : w) {
    const double u = rng.uniform_real() * top;
    x = std::clamp<core::Weight>(static_cast<core::Weight>(std::llround(std::pow(10.0, u))), 1, hi);
  }
  return rebuild(tree, std::move(w));
}

core::Tree with_constant_weights(const core::Tree& tree, core::Weight w) {
  return rebuild(tree, std::vector<core::Weight>(tree.size(), w));
}

}  // namespace ooctree::treegen
