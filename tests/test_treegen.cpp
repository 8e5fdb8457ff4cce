// Tests for the tree generators (SYNTH substrate).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/treegen/catalan.hpp"
#include "src/treegen/random_binary.hpp"
#include "src/treegen/shapes.hpp"
#include "src/treegen/weights.hpp"
#include "test_support.hpp"

namespace ooctree {
namespace {

using core::NodeId;
using core::Tree;
using core::Weight;
using treegen::catalan_number;
using treegen::u128;

TEST(Catalan, KnownValues) {
  EXPECT_EQ(static_cast<std::uint64_t>(catalan_number(0)), 1u);
  EXPECT_EQ(static_cast<std::uint64_t>(catalan_number(1)), 1u);
  EXPECT_EQ(static_cast<std::uint64_t>(catalan_number(5)), 42u);
  EXPECT_EQ(static_cast<std::uint64_t>(catalan_number(10)), 16796u);
  EXPECT_EQ(static_cast<std::uint64_t>(catalan_number(30)), 3814986502092304u);
  EXPECT_THROW((void)catalan_number(66), std::invalid_argument);
}

TEST(Catalan, UnrankProducesValidTrees) {
  for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 6u}) {
    const u128 total = catalan_number(n);
    for (u128 r = 0; r < total; ++r) {
      const Tree t = treegen::unrank_binary_tree(n, r);
      EXPECT_EQ(t.size(), n);
      for (NodeId v = 0; v < static_cast<NodeId>(n); ++v)
        EXPECT_LE(t.num_children(v), 2u);
    }
  }
  EXPECT_THROW((void)treegen::unrank_binary_tree(3, catalan_number(3)), std::invalid_argument);
}

TEST(Catalan, ExactSamplerCoversAllShapesOfSize4) {
  // C_4 = 14 ordered binary trees; as unordered parent-structures some
  // coincide, but repeated sampling must hit every distinct structure.
  util::Rng rng(801);
  std::set<std::string> seen;
  for (int rep = 0; rep < 2000; ++rep)
    seen.insert(treegen::uniform_binary_tree_exact(4, rng).to_string());
  std::set<std::string> all;
  for (u128 r = 0; r < catalan_number(4); ++r)
    all.insert(treegen::unrank_binary_tree(4, r).to_string());
  EXPECT_EQ(seen, all);
}

TEST(RandomBinary, RemyProducesFullBinaryTrees) {
  util::Rng rng(807);
  for (const std::size_t internal : {1u, 2u, 10u, 100u}) {
    const Tree t = treegen::remy_binary_tree(internal, rng);
    EXPECT_EQ(t.size(), 2 * internal + 1);
    std::size_t leaves = 0;
    for (NodeId v = 0; v < static_cast<NodeId>(t.size()); ++v) {
      const auto k = t.num_children(v);
      EXPECT_TRUE(k == 0 || k == 2) << "full binary tree property";
      leaves += (k == 0) ? 1 : 0;
    }
    EXPECT_EQ(leaves, internal + 1);
  }
}

TEST(RandomBinary, StrippedTreeHasRequestedSize) {
  util::Rng rng(811);
  for (const std::size_t n : {1u, 2u, 5u, 50u, 3000u}) {
    const Tree t = treegen::uniform_binary_tree(n, rng);
    EXPECT_EQ(t.size(), n);
    for (NodeId v = 0; v < static_cast<NodeId>(t.size()); ++v)
      EXPECT_LE(t.num_children(v), 2u);
  }
}

/// Order- and label-independent canonical form of a tree shape.
std::string canonical_shape(const Tree& t, NodeId v) {
  std::vector<std::string> kids;
  for (const NodeId c : t.children(v)) kids.push_back(canonical_shape(t, c));
  std::sort(kids.begin(), kids.end());
  std::string out = "(";
  for (const auto& k : kids) out += k;
  out += ")";
  return out;
}

TEST(RandomBinary, UniformityChiSquareSmoke) {
  // Compare Rémy-based sampling frequencies of size-4 shapes against the
  // exact distribution induced by Catalan (ordered-tree) counting: each
  // unordered shape's probability is (#ordered representatives) / C_4.
  util::Rng rng(821);
  std::map<std::string, int> exact;
  for (u128 r = 0; r < catalan_number(4); ++r) {
    const Tree t = treegen::unrank_binary_tree(4, r);
    exact[canonical_shape(t, t.root())]++;
  }
  std::map<std::string, double> freq;
  const int reps = 20000;
  for (int rep = 0; rep < reps; ++rep) {
    const Tree t = treegen::uniform_binary_tree(4, rng);
    freq[canonical_shape(t, t.root())] += 1.0;
  }
  const double total = static_cast<double>(static_cast<std::uint64_t>(catalan_number(4)));
  for (const auto& [shape, count] : exact) {
    const double expected = static_cast<double>(count) / total;
    ASSERT_TRUE(freq.count(shape)) << shape;
    EXPECT_NEAR(freq[shape] / reps, expected, 0.02) << shape;
  }
}

TEST(RandomBinary, SynthInstanceWeightsInRange) {
  util::Rng rng(823);
  const Tree t = treegen::synth_instance(3000, 1, 100, rng);
  EXPECT_EQ(t.size(), 3000u);
  Weight lo = 1000, hi = 0;
  for (NodeId v = 0; v < static_cast<NodeId>(t.size()); ++v) {
    lo = std::min(lo, t.weight(v));
    hi = std::max(hi, t.weight(v));
  }
  EXPECT_GE(lo, 1);
  EXPECT_LE(hi, 100);
  EXPECT_GT(hi, 50) << "3000 uniform draws should reach the top half";
}

// Golden pins of the SYNTH generator, recorded at commit 9a5ee86 (before
// the generator moved onto raw arrays): the canonical hash of the
// instance and the RNG draw right after it, so both the tree and the
// exact number of draws it consumed stay fixed. kSum rows were recorded
// as synth_instance(...).with_memory_model(kSumInOut).
struct SynthPin {
  std::size_t n;
  std::uint64_t seed;
  Weight w_lo, w_hi;
  core::MemoryModel model;
  std::uint64_t hash;
  std::size_t next_draw;  ///< rng.index(1000) after generating
};

constexpr core::MemoryModel kMax = core::MemoryModel::kMaxInOut;
constexpr core::MemoryModel kSum = core::MemoryModel::kSumInOut;

constexpr SynthPin kSynthPins[] = {
    {1, 0x1ULL, 1, 100, kMax, 0x607fbd6b8537a746ULL, 451},
    {1, 0x1ULL, 1, 100, kSum, 0xf43f48bbcd5642e1ULL, 451},
    {1, 0x1ULL, 100, 1000, kMax, 0xc9f7ef8121c2a62aULL, 451},
    {1, 0x1ULL, 100, 1000, kSum, 0x05803d709c583ab4ULL, 451},
    {1, 0x133c5e0ULL, 1, 100, kMax, 0x3f1bb53d43d0ca18ULL, 615},
    {1, 0x133c5e0ULL, 1, 100, kSum, 0xd3877321ff80a6f0ULL, 615},
    {1, 0x133c5e0ULL, 100, 1000, kMax, 0xfcc77f11a6248418ULL, 615},
    {1, 0x133c5e0ULL, 100, 1000, kSum, 0x1e9b3e99000358faULL, 615},
    {1, 0x9e3779b97f4a7c15ULL, 1, 100, kMax, 0x5d441c51378015d2ULL, 581},
    {1, 0x9e3779b97f4a7c15ULL, 1, 100, kSum, 0xe1ca8e30b749344dULL, 581},
    {1, 0x9e3779b97f4a7c15ULL, 100, 1000, kMax, 0x46a9b4743ad69d95ULL, 581},
    {1, 0x9e3779b97f4a7c15ULL, 100, 1000, kSum, 0x2a56fa2794743c7aULL, 581},
    {2, 0x1ULL, 1, 100, kMax, 0xf3113d5430874aaaULL, 350},
    {2, 0x1ULL, 1, 100, kSum, 0x381239a56a210fb4ULL, 350},
    {2, 0x1ULL, 100, 1000, kMax, 0x850ba6c1dd3583ccULL, 350},
    {2, 0x1ULL, 100, 1000, kSum, 0x168d5ca4c15a7c99ULL, 350},
    {2, 0x133c5e0ULL, 1, 100, kMax, 0x74a5139a1d8a544dULL, 446},
    {2, 0x133c5e0ULL, 1, 100, kSum, 0x5bbd82d9d6ec2a77ULL, 446},
    {2, 0x133c5e0ULL, 100, 1000, kMax, 0xd1db442a6e850c8bULL, 446},
    {2, 0x133c5e0ULL, 100, 1000, kSum, 0x55b0598864476903ULL, 446},
    {2, 0x9e3779b97f4a7c15ULL, 1, 100, kMax, 0x68fef1fc3dee77b4ULL, 8},
    {2, 0x9e3779b97f4a7c15ULL, 1, 100, kSum, 0x865bb079af7db651ULL, 8},
    {2, 0x9e3779b97f4a7c15ULL, 100, 1000, kMax, 0xd19a49dda94e759aULL, 8},
    {2, 0x9e3779b97f4a7c15ULL, 100, 1000, kSum, 0x371ff1a5e4fa8961ULL, 8},
    {3, 0x1ULL, 1, 100, kMax, 0x7ec1ccb388cc1b09ULL, 470},
    {3, 0x1ULL, 1, 100, kSum, 0x4cd9a172200ea8faULL, 470},
    {3, 0x1ULL, 100, 1000, kMax, 0x9795a3ac68641efbULL, 470},
    {3, 0x1ULL, 100, 1000, kSum, 0xf66ae22a040b3e5eULL, 470},
    {3, 0x133c5e0ULL, 1, 100, kMax, 0x7a624d45d9cf3e94ULL, 102},
    {3, 0x133c5e0ULL, 1, 100, kSum, 0x3a5d19e0c2e361a3ULL, 102},
    {3, 0x133c5e0ULL, 100, 1000, kMax, 0x6f8e2673b337820eULL, 102},
    {3, 0x133c5e0ULL, 100, 1000, kSum, 0xa97eef64e13bd22eULL, 102},
    {3, 0x9e3779b97f4a7c15ULL, 1, 100, kMax, 0x2138536ec9e860d0ULL, 901},
    {3, 0x9e3779b97f4a7c15ULL, 1, 100, kSum, 0xc96a5f18204fef7fULL, 901},
    {3, 0x9e3779b97f4a7c15ULL, 100, 1000, kMax, 0x7aa5616986ce35b4ULL, 901},
    {3, 0x9e3779b97f4a7c15ULL, 100, 1000, kSum, 0x22be09c6e3e173ecULL, 901},
    {64, 0x1ULL, 1, 100, kMax, 0xc79e69a85987d620ULL, 264},
    {64, 0x1ULL, 1, 100, kSum, 0xc7fad44924499be0ULL, 264},
    {64, 0x1ULL, 100, 1000, kMax, 0xac3f8b23063fa5c8ULL, 264},
    {64, 0x1ULL, 100, 1000, kSum, 0x8321571848ec1d6cULL, 264},
    {64, 0x133c5e0ULL, 1, 100, kMax, 0x3e00e8c80ba25450ULL, 391},
    {64, 0x133c5e0ULL, 1, 100, kSum, 0x7a11b3afdd687892ULL, 391},
    {64, 0x133c5e0ULL, 100, 1000, kMax, 0x6be2ffbff0c53250ULL, 391},
    {64, 0x133c5e0ULL, 100, 1000, kSum, 0x63bc55d73899de1cULL, 391},
    {64, 0x9e3779b97f4a7c15ULL, 1, 100, kMax, 0x47971d2a578a6011ULL, 16},
    {64, 0x9e3779b97f4a7c15ULL, 1, 100, kSum, 0xdd16010c4c09024bULL, 16},
    {64, 0x9e3779b97f4a7c15ULL, 100, 1000, kMax, 0xfd7fce2cfc8105b1ULL, 16},
    {64, 0x9e3779b97f4a7c15ULL, 100, 1000, kSum, 0x957576d4fe8aed89ULL, 16},
    {65, 0x1ULL, 1, 100, kMax, 0xe44f4230e8a251c2ULL, 493},
    {65, 0x1ULL, 1, 100, kSum, 0xdb4450a2c25b6588ULL, 493},
    {65, 0x1ULL, 100, 1000, kMax, 0xde556ffefaa4ac0bULL, 493},
    {65, 0x1ULL, 100, 1000, kSum, 0x703a396c5a636190ULL, 493},
    {65, 0x133c5e0ULL, 1, 100, kMax, 0xa78325693a679bc9ULL, 926},
    {65, 0x133c5e0ULL, 1, 100, kSum, 0xcf451bafb5040048ULL, 926},
    {65, 0x133c5e0ULL, 100, 1000, kMax, 0xa2f67b96e1f5d393ULL, 926},
    {65, 0x133c5e0ULL, 100, 1000, kSum, 0x9cc4fdac34ee3007ULL, 926},
    {65, 0x9e3779b97f4a7c15ULL, 1, 100, kMax, 0x826fa5765505ae90ULL, 196},
    {65, 0x9e3779b97f4a7c15ULL, 1, 100, kSum, 0xbfc44537c47fea6fULL, 196},
    {65, 0x9e3779b97f4a7c15ULL, 100, 1000, kMax, 0x364cd31df51d2e48ULL, 196},
    {65, 0x9e3779b97f4a7c15ULL, 100, 1000, kSum, 0xb7bc95e91078b56bULL, 196},
    {1000, 0x1ULL, 1, 100, kMax, 0x41c8b665b1326b2aULL, 911},
    {1000, 0x1ULL, 1, 100, kSum, 0xe6c03622b435eb93ULL, 911},
    {1000, 0x1ULL, 100, 1000, kMax, 0xea07397955b3a7fdULL, 911},
    {1000, 0x1ULL, 100, 1000, kSum, 0x691b6f20de181a52ULL, 911},
    {1000, 0x133c5e0ULL, 1, 100, kMax, 0xb49359e9012b7465ULL, 998},
    {1000, 0x133c5e0ULL, 1, 100, kSum, 0x587c3ab1bb236805ULL, 998},
    {1000, 0x133c5e0ULL, 100, 1000, kMax, 0x1e376638cba1a276ULL, 998},
    {1000, 0x133c5e0ULL, 100, 1000, kSum, 0x132f577cea26f8b3ULL, 998},
    {1000, 0x9e3779b97f4a7c15ULL, 1, 100, kMax, 0xc448644bbbb2bcc4ULL, 722},
    {1000, 0x9e3779b97f4a7c15ULL, 1, 100, kSum, 0xe655040906e7a28cULL, 722},
    {1000, 0x9e3779b97f4a7c15ULL, 100, 1000, kMax, 0x6d58be3f2563168aULL, 722},
    {1000, 0x9e3779b97f4a7c15ULL, 100, 1000, kSum, 0x4152edce640c2cc3ULL, 722},
    {5000, 0x1ULL, 1, 100, kMax, 0x5c2ba35bbd4cb1c5ULL, 596},
    {5000, 0x1ULL, 1, 100, kSum, 0x974d3153be3814edULL, 596},
    {5000, 0x1ULL, 100, 1000, kMax, 0x58c298ef39069b54ULL, 596},
    {5000, 0x1ULL, 100, 1000, kSum, 0xc0758747aa8b31bdULL, 596},
    {5000, 0x133c5e0ULL, 1, 100, kMax, 0xe753954ece570ab3ULL, 303},
    {5000, 0x133c5e0ULL, 1, 100, kSum, 0xdf1e54f8bbdadcdaULL, 303},
    {5000, 0x133c5e0ULL, 100, 1000, kMax, 0xa521ae5a3e3d7551ULL, 303},
    {5000, 0x133c5e0ULL, 100, 1000, kSum, 0xaa008b2aea82a2dfULL, 303},
    {5000, 0x9e3779b97f4a7c15ULL, 1, 100, kMax, 0x60892ab5e77aff5aULL, 484},
    {5000, 0x9e3779b97f4a7c15ULL, 1, 100, kSum, 0xb2c35046d76e855fULL, 484},
    {5000, 0x9e3779b97f4a7c15ULL, 100, 1000, kMax, 0xf1fc9a718e27a3f7ULL, 484},
    {5000, 0x9e3779b97f4a7c15ULL, 100, 1000, kSum, 0x4369edd6c853cf69ULL, 484},
    {20000, 0x1ULL, 1, 100, kMax, 0xe071c44b7558a88aULL, 34},
    {20000, 0x1ULL, 1, 100, kSum, 0xd2fac7a92d08e5feULL, 34},
    {20000, 0x1ULL, 100, 1000, kMax, 0xd984dfd534fd7ec4ULL, 34},
    {20000, 0x1ULL, 100, 1000, kSum, 0xb9f64cd875355adcULL, 34},
    {20000, 0x133c5e0ULL, 1, 100, kMax, 0x97f4ea7d6f0079c0ULL, 901},
    {20000, 0x133c5e0ULL, 1, 100, kSum, 0xc4182470f87a1606ULL, 901},
    {20000, 0x133c5e0ULL, 100, 1000, kMax, 0xc40373521063998cULL, 901},
    {20000, 0x133c5e0ULL, 100, 1000, kSum, 0xdb90950906bce816ULL, 901},
    {20000, 0x9e3779b97f4a7c15ULL, 1, 100, kMax, 0x58671114019a6cacULL, 752},
    {20000, 0x9e3779b97f4a7c15ULL, 1, 100, kSum, 0xf000619bed5d66f6ULL, 752},
    {20000, 0x9e3779b97f4a7c15ULL, 100, 1000, kMax, 0x90b1a827e0f38a1bULL, 752},
    {20000, 0x9e3779b97f4a7c15ULL, 100, 1000, kSum, 0xde65c3de0f7f33a0ULL, 752},
};

TEST(RandomBinary, SynthInstanceMatchesGoldenPins) {
  for (const SynthPin& pin : kSynthPins) {
    util::Rng rng(pin.seed);
    const Tree t = treegen::synth_instance(pin.n, pin.w_lo, pin.w_hi, rng, pin.model);
    EXPECT_EQ(t.size(), pin.n);
    EXPECT_EQ(t.memory_model(), pin.model);
    EXPECT_EQ(t.canonical_hash(), pin.hash)
        << "n=" << pin.n << " seed=" << pin.seed << " w=[" << pin.w_lo << "," << pin.w_hi << "]";
    EXPECT_EQ(rng.index(1000), pin.next_draw) << "n=" << pin.n << " seed=" << pin.seed;
  }
}

TEST(RandomBinary, SynthInstanceUnderModelEqualsRebuiltModel) {
  for (const std::size_t n : {1u, 2u, 65u, 1000u}) {
    for (const std::uint64_t seed : {3u, 29u}) {
      util::Rng direct_rng(seed);
      util::Rng rebuilt_rng(seed);
      const Tree direct = treegen::synth_instance(n, 1, 100, direct_rng, kSum);
      const Tree rebuilt =
          treegen::synth_instance(n, 1, 100, rebuilt_rng).with_memory_model(kSum);
      EXPECT_EQ(direct.canonical_hash(), rebuilt.canonical_hash()) << "n=" << n;
      EXPECT_EQ(direct.min_feasible_memory(), rebuilt.min_feasible_memory());
      EXPECT_EQ(direct_rng.index(1000), rebuilt_rng.index(1000));
    }
  }
}

// remy_binary_tree and uniform_binary_tree pins, recorded at the same
// commit: (internal/n, seed, Rémy hash, next draw, uniform hash, next draw).
struct ShapePin {
  std::size_t n;
  std::uint64_t seed;
  std::uint64_t remy_hash;
  std::size_t remy_next;
  std::uint64_t uniform_hash;
  std::size_t uniform_next;
};

constexpr ShapePin kShapePins[] = {
    {1, 7ULL, 0x9df131ebb3494508ULL, 949, 0xf5eeb3674ba77ca7ULL, 949},
    {1, 20170208ULL, 0x9df131ebb3494508ULL, 633, 0xf5eeb3674ba77ca7ULL, 633},
    {2, 7ULL, 0xb38b2cc66df86c19ULL, 117, 0x171566ae24aaff5aULL, 117},
    {2, 20170208ULL, 0xe8e0631f8ae5ff7aULL, 615, 0x3994fdbfb48614abULL, 615},
    {3, 7ULL, 0xa4c4af7a6a429e1dULL, 891, 0xbfdac42ecc06b0dcULL, 891},
    {3, 20170208ULL, 0xcd720e3bf1298193ULL, 624, 0x5d7ba4a1f0805dcfULL, 624},
    {64, 7ULL, 0x952ce97afa47a629ULL, 217, 0xc681320a5f4967b4ULL, 217},
    {64, 20170208ULL, 0x08452b6734f44d97ULL, 677, 0xe9926b116cd89f6aULL, 677},
    {1000, 7ULL, 0xfa074032ef6e3e85ULL, 27, 0xe51aaf0adb315aedULL, 27},
    {1000, 20170208ULL, 0x2ff3dc529e582583ULL, 391, 0x8aa60574863a9480ULL, 391},
};

TEST(RandomBinary, ShapeGeneratorsMatchGoldenPins) {
  for (const ShapePin& pin : kShapePins) {
    util::Rng remy_rng(pin.seed);
    util::Rng uniform_rng(pin.seed);
    const Tree full = treegen::remy_binary_tree(pin.n, remy_rng);
    const Tree stripped = treegen::uniform_binary_tree(pin.n, uniform_rng);
    EXPECT_EQ(full.canonical_hash(), pin.remy_hash) << "n=" << pin.n << " seed=" << pin.seed;
    EXPECT_EQ(remy_rng.index(1000), pin.remy_next);
    EXPECT_EQ(stripped.canonical_hash(), pin.uniform_hash) << "n=" << pin.n << " seed=" << pin.seed;
    EXPECT_EQ(uniform_rng.index(1000), pin.uniform_next);
  }
}

TEST(RandomBinary, UniformTreeIsTheStrippedRemyTree) {
  // Internal node 2j+1 of the full tree becomes node j of the stripped one.
  for (const std::size_t n : {1u, 7u, 300u}) {
    util::Rng a(41);
    util::Rng b(41);
    const Tree full = treegen::remy_binary_tree(n, a);
    const Tree stripped = treegen::uniform_binary_tree(n, b);
    ASSERT_EQ(stripped.size(), n);
    for (std::size_t j = 0; j < n; ++j) {
      const auto internal = static_cast<NodeId>(2 * j + 1);
      ASSERT_EQ(full.num_children(internal), 2u);
      const NodeId p = full.parent(internal);
      EXPECT_EQ(stripped.parent(static_cast<NodeId>(j)), p == core::kNoNode ? p : (p - 1) / 2);
    }
  }
}

TEST(RandomBinary, GeneratorsRejectEmptyTrees) {
  util::Rng rng(1);
  EXPECT_THROW((void)treegen::remy_binary_tree(0, rng), std::invalid_argument);
  EXPECT_THROW((void)treegen::uniform_binary_tree(0, rng), std::invalid_argument);
  EXPECT_THROW((void)treegen::synth_instance(0, 1, 100, rng), std::invalid_argument);
}

TEST(Shapes, ChainStarKaryCaterpillarSpider) {
  EXPECT_EQ(treegen::chain_tree({5, 4, 3}).depth(), 3u);
  EXPECT_EQ(treegen::star_tree(6, 2, 1).size(), 7u);
  EXPECT_EQ(treegen::complete_kary_tree(3, 3, 1).size(), 1u + 3u + 9u);
  EXPECT_EQ(treegen::caterpillar_tree(4, 2, 1).size(), 4u + 8u);
  const Tree spider = treegen::spider_tree(3, 4, 1);
  EXPECT_EQ(spider.size(), 1u + 12u);
  EXPECT_EQ(spider.num_children(spider.root()), 3u);
  EXPECT_EQ(spider.depth(), 5u);
}

TEST(Shapes, RandomRecursiveTree) {
  util::Rng rng(829);
  const Tree t = treegen::random_recursive_tree(500, rng);
  EXPECT_EQ(t.size(), 500u);
  EXPECT_EQ(t.root(), 0);
}

TEST(Weights, UniformAndConstantAndLogUniform) {
  util::Rng rng(839);
  const Tree shape = treegen::uniform_binary_tree(200, rng);
  const Tree uni = treegen::with_uniform_weights(shape, 5, 9, rng);
  for (NodeId v = 0; v < static_cast<NodeId>(uni.size()); ++v) {
    EXPECT_GE(uni.weight(v), 5);
    EXPECT_LE(uni.weight(v), 9);
    EXPECT_EQ(uni.parent(v), shape.parent(v));
  }
  EXPECT_TRUE(treegen::with_constant_weights(shape, 1).is_homogeneous());
  const Tree logw = treegen::with_log_uniform_weights(shape, 1000, rng);
  Weight hi = 0;
  for (NodeId v = 0; v < static_cast<NodeId>(logw.size()); ++v) {
    EXPECT_GE(logw.weight(v), 1);
    EXPECT_LE(logw.weight(v), 1000);
    hi = std::max(hi, logw.weight(v));
  }
  EXPECT_GT(hi, 100) << "heavy tail should reach large weights";
}

}  // namespace
}  // namespace ooctree
