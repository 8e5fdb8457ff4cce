// Weight assignment helpers: reshape a tree's node weights while keeping
// its structure.
#pragma once

#include <vector>

#include "src/core/tree.hpp"
#include "src/util/rng.hpp"

namespace ooctree::treegen {

/// `n` weights drawn uniformly from [lo, hi], in order: the draws behind
/// with_uniform_weights and synth_instance (random_binary.hpp).
[[nodiscard]] std::vector<core::Weight> uniform_weights(std::size_t n, core::Weight lo,
                                                        core::Weight hi, util::Rng& rng);

/// Same structure, weights drawn uniformly from [lo, hi].
[[nodiscard]] core::Tree with_uniform_weights(const core::Tree& tree, core::Weight lo,
                                              core::Weight hi, util::Rng& rng);

/// Same structure, heavy-tailed weights: 10^u with u uniform in
/// [0, log10(hi)], rounded, clamped to [1, hi]. Models the skewed front
/// sizes of real elimination trees.
[[nodiscard]] core::Tree with_log_uniform_weights(const core::Tree& tree, core::Weight hi,
                                                  util::Rng& rng);

/// Same structure, every weight set to `w` (w=1 gives a homogeneous tree).
[[nodiscard]] core::Tree with_constant_weights(const core::Tree& tree, core::Weight w);

}  // namespace ooctree::treegen
