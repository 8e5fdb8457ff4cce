#include "src/treegen/random_binary.hpp"

#include <array>
#include <stdexcept>

#include "src/treegen/weights.hpp"

namespace ooctree::treegen {

namespace {

/// Rémy's algorithm on raw arrays: the parent array (kNoNode at the root)
/// of a uniform full binary tree with `internal` internal nodes. Ids follow
/// creation order, so node 0 and every even id is a leaf and every odd id
/// is internal.
std::vector<core::NodeId> remy_parents(std::size_t internal, util::Rng& rng) {
  if (internal == 0) throw std::invalid_argument("remy_binary_tree: need at least one node");

  // Grow the tree by repeatedly picking a uniform (node, side) pair: the
  // picked node is pushed down under a fresh internal node whose other
  // side gets a fresh leaf. Node count: 2k+1.
  const std::size_t total = 2 * internal + 1;
  std::vector<core::NodeId> parent;
  std::vector<std::array<core::NodeId, 2>> child;  // kNoNode for leaves
  parent.reserve(total);
  child.reserve(total);
  parent.push_back(core::kNoNode);  // initial single leaf
  child.push_back({core::kNoNode, core::kNoNode});

  while (parent.size() < total) {
    const std::size_t pick = rng.index(2 * parent.size());
    const auto target = static_cast<core::NodeId>(pick / 2);
    const std::size_t side = pick % 2;
    const auto fresh_internal = static_cast<core::NodeId>(parent.size());
    const core::NodeId fresh_leaf = fresh_internal + 1;
    const core::NodeId up = parent[static_cast<std::size_t>(target)];

    std::array<core::NodeId, 2> kids{};
    kids[side] = target;
    kids[1 - side] = fresh_leaf;
    parent.push_back(up);
    child.push_back(kids);
    parent.push_back(fresh_internal);
    child.push_back({core::kNoNode, core::kNoNode});
    parent[static_cast<std::size_t>(target)] = fresh_internal;
    if (up != core::kNoNode) {
      auto& up_child = child[static_cast<std::size_t>(up)];
      if (up_child[0] == target) up_child[0] = fresh_internal;
      else up_child[1] = fresh_internal;
    }
  }
  return parent;
}

/// The parent array of a uniform binary tree with `n` nodes: the internal
/// nodes of a uniform full binary tree with n internal nodes form a uniform
/// (ordered) binary tree with n nodes, since stripping the leaves is a
/// bijection between the two families. Strips in place: internal node
/// 2j+1 becomes node j (every ancestor of an internal node is internal).
std::vector<core::NodeId> uniform_binary_parents(std::size_t n, util::Rng& rng) {
  if (n == 0) throw std::invalid_argument("uniform_binary_tree: n must be positive");
  std::vector<core::NodeId> parent = remy_parents(n, rng);
  for (std::size_t j = 0; j < n; ++j) {
    const core::NodeId p = parent[2 * j + 1];
    parent[j] = p == core::kNoNode ? core::kNoNode : (p - 1) / 2;
  }
  parent.resize(n);
  return parent;
}

}  // namespace

core::Tree remy_binary_tree(std::size_t internal, util::Rng& rng) {
  std::vector<core::NodeId> parent = remy_parents(internal, rng);
  const std::size_t n = parent.size();
  return core::Tree::from_parents(std::move(parent), std::vector<core::Weight>(n, 1));
}

core::Tree uniform_binary_tree(std::size_t n, util::Rng& rng) {
  return core::Tree::from_parents(uniform_binary_parents(n, rng), std::vector<core::Weight>(n, 1));
}

core::Tree synth_instance(std::size_t n, core::Weight w_lo, core::Weight w_hi, util::Rng& rng,
                          core::MemoryModel model) {
  // The shape's draws come first, then the weights' (argument evaluation
  // order is unspecified, hence the named local).
  std::vector<core::NodeId> parent = uniform_binary_parents(n, rng);
  return core::Tree::from_parents(std::move(parent), uniform_weights(n, w_lo, w_hi, rng), model);
}

}  // namespace ooctree::treegen
