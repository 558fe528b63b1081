#pragma once
// Graph family generators used across tests, examples and benchmarks.
//
// Every generator returns a connected, simple, port-consistent graph.
// Generators taking an Rng consume randomness deterministically, so the
// same seed always produces the same graph. Port labels follow insertion
// order; apply shuffle_ports() to randomize the labeling (which is what
// makes the anonymous-graph setting interesting — symmetric labelings can
// collapse the quotient graph, see quotient.h).
#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/rng.h"

namespace bdg {

/// Simple path v0 - v1 - ... - v{n-1}. Requires n >= 1.
[[nodiscard]] Graph make_path(std::size_t n);

/// Cycle with ports assigned in insertion order (node 0's port 0 goes
/// clockwise but interior nodes see ports 0=ccw/1=cw): NOT rotation
/// symmetric as a port-labeled graph. Requires n >= 3.
[[nodiscard]] Graph make_ring(std::size_t n);

/// Cycle where every node's port 0 points clockwise and port 1 counter-
/// clockwise. Fully rotation-symmetric: its quotient graph has one node.
/// Requires n >= 3.
[[nodiscard]] Graph make_oriented_ring(std::size_t n);

/// Complete graph K_n with insertion-order ports. Requires n >= 2.
[[nodiscard]] Graph make_complete(std::size_t n);

/// Star: center node 0 with n-1 leaves. Requires n >= 2.
[[nodiscard]] Graph make_star(std::size_t n);

/// rows x cols grid (4-neighborhood). Requires rows*cols >= 1.
[[nodiscard]] Graph make_grid(std::size_t rows, std::size_t cols);

/// rows x cols torus (wrap-around grid); canonical direction ports make it
/// vertex-transitive when rows==cols. Requires rows >= 3 and cols >= 3.
[[nodiscard]] Graph make_torus(std::size_t rows, std::size_t cols);

/// Hypercube Q_dim with port i flipping bit i (fully symmetric labeling:
/// quotient graph has one node). Requires dim >= 1.
[[nodiscard]] Graph make_hypercube(std::size_t dim);

/// Complete binary tree with n nodes (heap order). Requires n >= 1.
[[nodiscard]] Graph make_binary_tree(std::size_t n);

/// Lollipop: clique on ceil(n/2) nodes plus a path; classic worst case for
/// exploration. Requires n >= 4.
[[nodiscard]] Graph make_lollipop(std::size_t n);

/// Uniform random labeled tree (Prufer sequence). Requires n >= 1.
[[nodiscard]] Graph make_random_tree(std::size_t n, Rng& rng);

/// Erdos-Renyi G(n, p) conditioned on connectivity (resamples until
/// connected; p defaults near the connectivity threshold if <= 0). Throws
/// std::invalid_argument for n < 2 or a NaN p.
[[nodiscard]] Graph make_connected_er(std::size_t n, double p, Rng& rng);

/// Random d-regular simple graph via the pairing model with resampling.
/// Requires n*d even, d < n, n >= d+1.
[[nodiscard]] Graph make_random_regular(std::size_t n, std::size_t d,
                                        Rng& rng);

/// Re-assign every node's port numbers by a random permutation; the
/// underlying simple graph is unchanged but the port-labeled graph differs.
[[nodiscard]] Graph shuffle_ports(const Graph& g, Rng& rng);

/// Produce the isomorphic copy with node v renamed perm[v]; port numbers
/// are carried over unchanged. perm must be a permutation of 0..n-1.
[[nodiscard]] Graph relabel_nodes(const Graph& g,
                                  const std::vector<NodeId>& perm);

/// Named access to a standard test menagerie (used by parameterized tests).
struct NamedGraph {
  std::string name;
  Graph graph;
};

/// A diverse fixed set of graphs around the requested size; deterministic
/// for a given (size hint, seed).
[[nodiscard]] std::vector<NamedGraph> standard_menagerie(std::size_t n,
                                                         std::uint64_t seed);

}  // namespace bdg
