// Unit suite for the paged engine's rank-indexed ready set
// (src/parallel/ready_index.hpp).
//
// A seeded randomized differential against a std::set<std::size_t> model:
// after every insert or erase, first_fit, next, count, empty and contains
// must agree with a brute-force scan of the model, and audit()
// must pass. The sizes straddle the 64-rank block boundary (1, 63, 64, 65)
// and reach trees of several levels (1000, 4097); queries cover slack 0,
// the maximum slack, and `from` at and past end().
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "src/parallel/ready_index.hpp"
#include "src/util/rng.hpp"

namespace ooctree {
namespace {

using core::Weight;
using parallel::ReadyIndex;

constexpr Weight kMaxSlack = std::numeric_limits<Weight>::max();

std::size_t model_first_fit(const std::set<std::size_t>& model, const std::vector<Weight>& weight,
                            std::size_t from, Weight slack) {
  for (auto it = model.lower_bound(from); it != model.end(); ++it)
    if (weight[*it] <= slack) return *it;
  return weight.size();
}

std::size_t model_count(const std::set<std::size_t>& model, std::size_t a, std::size_t b) {
  std::size_t c = 0;
  for (auto it = model.lower_bound(a); it != model.end() && *it < b; ++it) ++c;
  return c;
}

// Every query against the model, at `probes` random points plus the edges.
void expect_agrees(const ReadyIndex& index, const std::set<std::size_t>& model,
                   const std::vector<Weight>& weight, util::Rng& rng, int probes,
                   const std::string& label) {
  const std::size_t n = weight.size();
  ASSERT_EQ(index.end(), n) << label;
  ASSERT_EQ(index.count(0, n), model.size()) << label;
  ASSERT_EQ(index.empty(), model.empty()) << label;
  index.audit();
  std::vector<std::size_t> froms{0, n, n + 7};
  if (n > 0) froms.push_back(n - 1);
  for (int k = 0; k < probes; ++k) froms.push_back(rng.index(n + 1));
  for (const std::size_t from : froms) {
    if (from < n) {
      ASSERT_EQ(index.contains(from), model.count(from) == 1) << label;
    }
    const std::size_t want_next = model_first_fit(model, weight, from, kMaxSlack);
    ASSERT_EQ(index.next(from), want_next) << label << " next(" << from << ")";
    for (const Weight slack : {Weight{0}, Weight{5}, static_cast<Weight>(rng.index(21)),
                               kMaxSlack}) {
      ASSERT_EQ(index.first_fit(from, slack), model_first_fit(model, weight, from, slack))
          << label << " first_fit(" << from << ", " << slack << ")";
    }
    const std::size_t to = from + rng.index(n + 2);
    ASSERT_EQ(index.count(from, to), model_count(model, from, to))
        << label << " count(" << from << ", " << to << ")";
    ASSERT_EQ(index.count(to, from), to > from ? 0 : model_count(model, to, from)) << label;
  }
}

TEST(ReadyIndex, RandomizedDifferentialAgainstSetModel) {
  for (const std::size_t n : {1, 63, 64, 65, 1000, 4097}) {
    util::Rng rng(880001 + n);
    std::vector<Weight> weight(n);
    for (Weight& w : weight) w = static_cast<Weight>(rng.index(21));  // 0..20, slack 0 can hit
    ReadyIndex index(weight);
    std::set<std::size_t> model;
    const std::string label = "n=" + std::to_string(n);
    expect_agrees(index, model, weight, rng, 4, label + " empty");
    const std::size_t ops = std::min<std::size_t>(6 * n + 8, 3000);
    for (std::size_t op = 0; op < ops; ++op) {
      const std::size_t r = rng.index(n);
      // Bias toward inserts early and erases late so the set fills up and
      // drains again; repeated inserts and erases are no-ops in both.
      if (rng.index(ops) >= op) {
        index.insert(r);
        model.insert(r);
      } else {
        index.erase(r);
        model.erase(r);
      }
      expect_agrees(index, model, weight, rng, 3,
                    label + " op=" + std::to_string(op));
      if (HasFatalFailure()) return;
    }
    // Drain in rank order through next(), the way the prefetch look-ahead
    // walks the set.
    for (std::size_t r = index.next(0); r != index.end(); r = index.next(0)) {
      ASSERT_EQ(r, *model.begin()) << label;
      index.erase(r);
      model.erase(model.begin());
    }
    EXPECT_TRUE(index.empty()) << label;
    expect_agrees(index, model, weight, rng, 4, label + " drained");
  }
}

TEST(ReadyIndex, EmptySetAnswersEndEverywhere) {
  for (const std::size_t n : {0, 1, 64, 200}) {
    const ReadyIndex index(std::vector<Weight>(n, 3));
    EXPECT_TRUE(index.empty());
    EXPECT_EQ(index.next(0), n);
    EXPECT_EQ(index.first_fit(0, kMaxSlack), n);
    EXPECT_EQ(index.first_fit(n, kMaxSlack), n);
    EXPECT_EQ(index.count(0, n + 10), 0U);
    index.audit();
  }
}

// A block whose minimum cannot fit is skipped by the block tree, not
// scanned: a fit two blocks away is still found, and the skipped ready
// ranks are counted.
TEST(ReadyIndex, FirstFitCrossesBlocksAndCountsTheSkipped) {
  std::vector<Weight> weight(300, 50);
  weight[250] = 4;
  ReadyIndex index(weight);
  for (std::size_t r = 0; r < 300; r += 3) index.insert(r);
  index.insert(250);
  EXPECT_EQ(index.first_fit(0, 4), 250U);
  EXPECT_EQ(index.count(0, 250), 84U);  // ranks 0, 3, ..., 249
  EXPECT_EQ(index.first_fit(251, 4), index.end());
  EXPECT_EQ(index.first_fit(0, 49), 250U);
  EXPECT_EQ(index.first_fit(0, 50), 0U);
  index.erase(250);
  EXPECT_EQ(index.first_fit(0, 4), index.end());
  index.audit();
}

}  // namespace
}  // namespace ooctree
