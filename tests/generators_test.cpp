// Property tests for the graph generators: every generator must produce a
// connected, simple, port-consistent graph; randomized generators must be
// deterministic under a fixed seed.
#include "graph/generators.h"

#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <stdexcept>

namespace bdg {
namespace {

void expect_well_formed(const Graph& g, bool simple = true) {
  EXPECT_TRUE(g.is_port_consistent());
  EXPECT_TRUE(g.is_connected());
  if (simple) {
    EXPECT_TRUE(g.is_simple());
  }
}

TEST(Generators, Path) {
  for (std::size_t n : {1, 2, 5, 17}) {
    const Graph g = make_path(n);
    EXPECT_EQ(g.n(), n);
    EXPECT_EQ(g.m(), n - 1);
    expect_well_formed(g);
  }
}

TEST(Generators, RingDegreesAndSize) {
  for (std::size_t n : {3, 4, 9, 20}) {
    const Graph g = make_ring(n);
    EXPECT_EQ(g.n(), n);
    EXPECT_EQ(g.m(), n);
    for (NodeId v = 0; v < n; ++v) EXPECT_EQ(g.degree(v), 2u);
    expect_well_formed(g);
  }
}

TEST(Generators, OrientedRingPortsAreDirectionConsistent) {
  const Graph g = make_oriented_ring(7);
  expect_well_formed(g);
  for (NodeId v = 0; v < 7; ++v) {
    EXPECT_EQ(g.hop(v, 0).to, (v + 1) % 7);  // port 0 always clockwise
    EXPECT_EQ(g.hop(v, 1).to, (v + 6) % 7);
    EXPECT_EQ(g.hop(v, 0).reverse, 1u);
  }
}

TEST(Generators, Complete) {
  const Graph g = make_complete(6);
  EXPECT_EQ(g.m(), 15u);
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(g.degree(v), 5u);
  expect_well_formed(g);
}

TEST(Generators, StarDegrees) {
  const Graph g = make_star(9);
  EXPECT_EQ(g.degree(0), 8u);
  for (NodeId v = 1; v < 9; ++v) EXPECT_EQ(g.degree(v), 1u);
  expect_well_formed(g);
}

TEST(Generators, GridSizeAndDegrees) {
  const Graph g = make_grid(3, 5);
  EXPECT_EQ(g.n(), 15u);
  EXPECT_EQ(g.m(), 3 * 4 + 5 * 2);  // horizontal + vertical edges
  EXPECT_EQ(g.max_degree(), 4u);
  expect_well_formed(g);
}

TEST(Generators, TorusIsFourRegular) {
  const Graph g = make_torus(4, 5);
  EXPECT_EQ(g.n(), 20u);
  for (NodeId v = 0; v < g.n(); ++v) EXPECT_EQ(g.degree(v), 4u);
  expect_well_formed(g);
}

TEST(Generators, HypercubePortsFlipBits) {
  const Graph g = make_hypercube(4);
  EXPECT_EQ(g.n(), 16u);
  for (NodeId v = 0; v < g.n(); ++v)
    for (Port b = 0; b < 4; ++b) EXPECT_EQ(g.hop(v, b).to, v ^ (1u << b));
  expect_well_formed(g);
}

TEST(Generators, BinaryTree) {
  const Graph g = make_binary_tree(10);
  EXPECT_EQ(g.m(), 9u);
  expect_well_formed(g);
}

TEST(Generators, Lollipop) {
  const Graph g = make_lollipop(11);
  expect_well_formed(g);
  EXPECT_EQ(g.n(), 11u);
}

TEST(Generators, RandomTreeIsTree) {
  Rng rng(7);
  for (std::size_t n : {2, 3, 8, 25}) {
    const Graph g = make_random_tree(n, rng);
    EXPECT_EQ(g.m(), n - 1);
    expect_well_formed(g);
  }
}

TEST(Generators, ConnectedErIsConnected) {
  Rng rng(11);
  for (std::size_t n : {4, 10, 24}) {
    const Graph g = make_connected_er(n, 0.0, rng);
    EXPECT_EQ(g.n(), n);
    expect_well_formed(g);
  }
}

TEST(Generators, ConnectedErRejectsNaNUpFront) {
  // NaN used to fall through every comparison: 4096 edgeless resamples,
  // then a runtime_error that did not say what was wrong.
  Rng rng(11);
  EXPECT_THROW((void)make_connected_er(
                   8, std::numeric_limits<double>::quiet_NaN(), rng),
               std::invalid_argument);
}

TEST(Generators, RandomRegularDegrees) {
  Rng rng(13);
  const Graph g = make_random_regular(12, 3, rng);
  for (NodeId v = 0; v < g.n(); ++v) EXPECT_EQ(g.degree(v), 3u);
  expect_well_formed(g);
}

TEST(Generators, RandomRegularRejectsOddProduct) {
  Rng rng(1);
  EXPECT_THROW((void)make_random_regular(5, 3, rng), std::invalid_argument);
}

TEST(Generators, DeterministicUnderSeed) {
  Rng a(42), b(42);
  EXPECT_EQ(make_connected_er(12, 0.3, a), make_connected_er(12, 0.3, b));
  Rng c(42), d(43);
  // Different seeds almost surely differ (fixed here, not flaky).
  EXPECT_NE(make_connected_er(12, 0.3, c), make_connected_er(12, 0.3, d));
}

TEST(Generators, ShufflePortsPreservesStructure) {
  Rng rng(5);
  const Graph g = make_grid(3, 3);
  const Graph s = shuffle_ports(g, rng);
  EXPECT_EQ(s.n(), g.n());
  EXPECT_EQ(s.m(), g.m());
  expect_well_formed(s);
  // Same neighbor multiset at each node.
  for (NodeId v = 0; v < g.n(); ++v) {
    std::vector<NodeId> a, b;
    for (Port p = 0; p < g.degree(v); ++p) a.push_back(g.hop(v, p).to);
    for (Port p = 0; p < s.degree(v); ++p) b.push_back(s.hop(v, p).to);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
  }
}

TEST(Generators, RelabelNodesPermutesStructure) {
  const Graph g = make_path(4);
  const std::vector<NodeId> perm{3, 2, 1, 0};
  const Graph h = relabel_nodes(g, perm);
  expect_well_formed(h);
  EXPECT_EQ(h.degree(3), 1u);  // old node 0 (an endpoint) is now node 3
  EXPECT_EQ(h.degree(0), 1u);
}

TEST(Generators, MenagerieIsWellFormed) {
  for (const auto& [name, g] : standard_menagerie(8, 123)) {
    SCOPED_TRACE(name);
    EXPECT_GE(g.n(), 4u);
    expect_well_formed(g);
  }
}

// Parameterized involution sweep: the port involution must hold for every
// generator family across sizes and seeds.
class GeneratorSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {};

TEST_P(GeneratorSweep, AllFamiliesPortConsistent) {
  const auto [n, seed] = GetParam();
  for (const auto& [name, g] : standard_menagerie(n, seed)) {
    SCOPED_TRACE(name + "/n=" + std::to_string(n));
    EXPECT_TRUE(g.is_port_consistent());
    EXPECT_TRUE(g.is_connected());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, GeneratorSweep,
    ::testing::Combine(::testing::Values(4, 6, 9, 12, 16),
                       ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace bdg
