// Uniform random binary trees — the SYNTH dataset substrate.
//
// The paper draws 330 binary trees of 3000 nodes "uniformly at random among
// all binary trees" using (half-)Catalan counting in the style surveyed by
// Mäkinen [15], with node weights uniform in [1, 100]. The workhorse is
// Rémy's bijective algorithm (J.-L. Rémy, RAIRO 1985): exact uniformity
// over full binary trees with n internal nodes in O(n); stripping the
// leaves gives a uniform binary tree with n nodes. One raw-array
// implementation of it backs all three entry points below, and each builds
// its Tree exactly once. For exhaustive small-size sweeps, catalan.hpp
// offers exact Catalan unranking instead.
#pragma once

#include "src/core/tree.hpp"
#include "src/util/rng.hpp"

namespace ooctree::treegen {

/// A uniform random *full* binary tree with `internal` internal nodes (and
/// internal+1 leaves), by Rémy's algorithm. Node ids follow creation order
/// (leaves even, internal nodes odd). Node weights are all 1; callers
/// assign weights afterwards (see weights.hpp).
[[nodiscard]] core::Tree remy_binary_tree(std::size_t internal, util::Rng& rng);

/// A uniform random binary tree (each node has 0, 1 or 2 children) with
/// exactly `n` nodes: the internal nodes of remy_binary_tree(n), internal
/// node 2j+1 renumbered j. Same RNG draws as remy_binary_tree(n); O(n).
[[nodiscard]] core::Tree uniform_binary_tree(std::size_t n, util::Rng& rng);

/// The paper's SYNTH instance: uniform_binary_tree(n) with weights then
/// drawn uniformly from [w_lo, w_hi] in node order, built once under
/// `model`. Bit-identical to (and consuming the same RNG draws as)
/// with_uniform_weights(uniform_binary_tree(n, rng), w_lo, w_hi, rng)
/// .with_memory_model(model), without the two intermediate trees.
[[nodiscard]] core::Tree synth_instance(std::size_t n, core::Weight w_lo, core::Weight w_hi,
                                        util::Rng& rng,
                                        core::MemoryModel model = core::MemoryModel::kMaxInOut);

}  // namespace ooctree::treegen
