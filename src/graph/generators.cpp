#include "graph/generators.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <set>
#include <stdexcept>

namespace bdg {

Graph make_path(std::size_t n) {
  if (n < 1) throw std::invalid_argument("make_path: n >= 1 required");
  Graph g(n);
  for (NodeId v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  return g;
}

Graph make_ring(std::size_t n) {
  if (n < 3) throw std::invalid_argument("make_ring: n >= 3 required");
  Graph g(n);
  for (NodeId v = 0; v < n; ++v) g.add_edge(v, static_cast<NodeId>((v + 1) % n));
  return g;
}

Graph make_oriented_ring(std::size_t n) {
  if (n < 3) throw std::invalid_argument("make_oriented_ring: n >= 3 required");
  // Build adjacency directly so that EVERY node has port 0 -> clockwise
  // (v+1) and port 1 -> counter-clockwise (v-1).
  std::vector<std::vector<HalfEdge>> adj(n);
  for (NodeId v = 0; v < n; ++v) {
    const NodeId cw = static_cast<NodeId>((v + 1) % n);
    const NodeId ccw = static_cast<NodeId>((v + n - 1) % n);
    adj[v] = {HalfEdge{cw, 1}, HalfEdge{ccw, 0}};
  }
  return Graph::from_adjacency(std::move(adj));
}

Graph make_complete(std::size_t n) {
  if (n < 2) throw std::invalid_argument("make_complete: n >= 2 required");
  Graph g(n);
  for (NodeId u = 0; u < n; ++u)
    for (NodeId v = u + 1; v < n; ++v) g.add_edge(u, v);
  return g;
}

Graph make_star(std::size_t n) {
  if (n < 2) throw std::invalid_argument("make_star: n >= 2 required");
  Graph g(n);
  for (NodeId v = 1; v < n; ++v) g.add_edge(0, v);
  return g;
}

Graph make_grid(std::size_t rows, std::size_t cols) {
  if (rows * cols < 1) throw std::invalid_argument("make_grid: empty");
  Graph g(rows * cols);
  auto id = [cols](std::size_t r, std::size_t c) {
    return static_cast<NodeId>(r * cols + c);
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) g.add_edge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) g.add_edge(id(r, c), id(r + 1, c));
    }
  }
  return g;
}

Graph make_torus(std::size_t rows, std::size_t cols) {
  if (rows < 3 || cols < 3)
    throw std::invalid_argument("make_torus: rows, cols >= 3 required");
  // Direction-consistent ports: 0=east, 1=west, 2=south, 3=north, making
  // the square torus vertex-transitive as a port-labeled graph.
  const std::size_t n = rows * cols;
  auto id = [cols](std::size_t r, std::size_t c) {
    return static_cast<NodeId>(r * cols + c);
  };
  std::vector<std::vector<HalfEdge>> adj(n);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const NodeId east = id(r, (c + 1) % cols);
      const NodeId west = id(r, (c + cols - 1) % cols);
      const NodeId south = id((r + 1) % rows, c);
      const NodeId north = id((r + rows - 1) % rows, c);
      adj[id(r, c)] = {HalfEdge{east, 1}, HalfEdge{west, 0},
                       HalfEdge{south, 3}, HalfEdge{north, 2}};
    }
  }
  return Graph::from_adjacency(std::move(adj));
}

Graph make_hypercube(std::size_t dim) {
  if (dim < 1) throw std::invalid_argument("make_hypercube: dim >= 1");
  const std::size_t n = std::size_t{1} << dim;
  std::vector<std::vector<HalfEdge>> adj(n);
  for (NodeId v = 0; v < n; ++v) {
    adj[v].resize(dim);
    for (std::size_t b = 0; b < dim; ++b) {
      adj[v][b] = HalfEdge{static_cast<NodeId>(v ^ (std::size_t{1} << b)),
                           static_cast<Port>(b)};
    }
  }
  return Graph::from_adjacency(std::move(adj));
}

Graph make_binary_tree(std::size_t n) {
  if (n < 1) throw std::invalid_argument("make_binary_tree: n >= 1");
  Graph g(n);
  for (NodeId v = 1; v < n; ++v) g.add_edge((v - 1) / 2, v);
  return g;
}

Graph make_lollipop(std::size_t n) {
  if (n < 4) throw std::invalid_argument("make_lollipop: n >= 4 required");
  const std::size_t clique = (n + 1) / 2;
  Graph g(n);
  for (NodeId u = 0; u < clique; ++u)
    for (NodeId v = u + 1; v < clique; ++v) g.add_edge(u, v);
  for (NodeId v = static_cast<NodeId>(clique); v < n; ++v)
    g.add_edge(v - 1 < clique ? static_cast<NodeId>(clique - 1) : v - 1, v);
  return g;
}

Graph make_random_tree(std::size_t n, Rng& rng) {
  if (n < 1) throw std::invalid_argument("make_random_tree: n >= 1");
  Graph g(n);
  if (n == 1) return g;
  if (n == 2) {
    g.add_edge(0, 1);
    return g;
  }
  // Prufer decoding yields the uniform distribution over labeled trees.
  std::vector<NodeId> prufer(n - 2);
  for (auto& x : prufer) x = static_cast<NodeId>(rng.below(n));
  std::vector<std::uint32_t> deg(n, 1);
  for (NodeId x : prufer) ++deg[x];
  std::set<NodeId> leaves;
  for (NodeId v = 0; v < n; ++v)
    if (deg[v] == 1) leaves.insert(v);
  for (NodeId x : prufer) {
    const NodeId leaf = *leaves.begin();
    leaves.erase(leaves.begin());
    g.add_edge(leaf, x);
    if (--deg[x] == 1) leaves.insert(x);
  }
  const NodeId a = *leaves.begin();
  const NodeId b = *std::next(leaves.begin());
  g.add_edge(a, b);
  return g;
}

Graph make_connected_er(std::size_t n, double p, Rng& rng) {
  if (n < 2) throw std::invalid_argument("make_connected_er: n >= 2");
  // NaN compares false everywhere: it would skip the threshold default and
  // add no edge in any of the attempts below.
  if (std::isnan(p)) throw std::invalid_argument("make_connected_er: p is NaN");
  if (p <= 0) {
    // Just above the connectivity threshold ln(n)/n, with slack.
    p = std::min(1.0, 2.5 * std::max(1.0, std::log(static_cast<double>(n))) /
                          static_cast<double>(n));
  }
  for (int attempt = 0; attempt < 4096; ++attempt) {
    Graph g(n);
    for (NodeId u = 0; u < n; ++u)
      for (NodeId v = u + 1; v < n; ++v)
        if (rng.uniform() < p) g.add_edge(u, v);
    if (g.is_connected()) return g;
  }
  throw std::runtime_error("make_connected_er: failed to get connected graph");
}

Graph make_random_regular(std::size_t n, std::size_t d, Rng& rng) {
  if (n * d % 2 != 0 || d >= n || n < d + 1)
    throw std::invalid_argument("make_random_regular: invalid (n, d)");
  for (int attempt = 0; attempt < 8192; ++attempt) {
    // Pairing (configuration) model: put d stubs per node, match uniformly,
    // reject on loops/multi-edges or disconnection.
    std::vector<NodeId> stubs;
    stubs.reserve(n * d);
    for (NodeId v = 0; v < n; ++v)
      for (std::size_t i = 0; i < d; ++i) stubs.push_back(v);
    rng.shuffle(stubs);
    Graph g(n);
    std::set<std::pair<NodeId, NodeId>> used;
    bool ok = true;
    for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
      NodeId u = stubs[i], v = stubs[i + 1];
      if (u == v) {
        ok = false;
        break;
      }
      if (u > v) std::swap(u, v);
      if (!used.insert({u, v}).second) {
        ok = false;
        break;
      }
      g.add_edge(u, v);
    }
    if (ok && g.is_connected()) return g;
  }
  throw std::runtime_error("make_random_regular: resampling failed");
}

Graph shuffle_ports(const Graph& g, Rng& rng) {
  // perms[v] maps old port -> new port at node v.
  std::vector<std::vector<Port>> perms(g.n());
  for (NodeId v = 0; v < g.n(); ++v) {
    perms[v].resize(g.degree(v));
    std::iota(perms[v].begin(), perms[v].end(), Port{0});
    rng.shuffle(perms[v]);
  }
  std::vector<std::vector<HalfEdge>> adj(g.n());
  for (NodeId v = 0; v < g.n(); ++v) adj[v].resize(g.degree(v));
  for (NodeId v = 0; v < g.n(); ++v) {
    for (Port p = 0; p < g.degree(v); ++p) {
      const HalfEdge he = g.hop(v, p);
      adj[v][perms[v][p]] = HalfEdge{he.to, perms[he.to][he.reverse]};
    }
  }
  return Graph::from_adjacency(std::move(adj));
}

Graph relabel_nodes(const Graph& g, const std::vector<NodeId>& perm) {
  assert(perm.size() == g.n());
  std::vector<std::vector<HalfEdge>> adj(g.n());
  for (NodeId v = 0; v < g.n(); ++v) adj[perm[v]].resize(g.degree(v));
  for (NodeId v = 0; v < g.n(); ++v) {
    for (Port p = 0; p < g.degree(v); ++p) {
      const HalfEdge he = g.hop(v, p);
      adj[perm[v]][p] = HalfEdge{perm[he.to], he.reverse};
    }
  }
  return Graph::from_adjacency(std::move(adj));
}

std::vector<NamedGraph> standard_menagerie(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<NamedGraph> out;
  const std::size_t nn = std::max<std::size_t>(n, 4);
  out.push_back({"path", make_path(nn)});
  out.push_back({"ring", make_ring(nn)});
  out.push_back({"complete", make_complete(nn)});
  out.push_back({"star", make_star(nn)});
  {
    std::size_t r = 2;
    while (r * r < nn) ++r;
    out.push_back({"grid", make_grid(r, (nn + r - 1) / r)});
  }
  out.push_back({"binary_tree", make_binary_tree(nn)});
  out.push_back({"lollipop", make_lollipop(nn)});
  out.push_back({"random_tree", make_random_tree(nn, rng)});
  out.push_back({"er", make_connected_er(nn, 0.0, rng)});
  if (nn >= 5 && (nn * 3) % 2 == 0)
    out.push_back({"regular3", make_random_regular(nn, 3, rng)});
  // Port-shuffled variants exercise labelings without structural symmetry.
  out.push_back({"ring_shuffled", shuffle_ports(make_ring(nn), rng)});
  out.push_back({"er_shuffled", shuffle_ports(make_connected_er(nn, 0.0, rng), rng)});
  return out;
}

}  // namespace bdg
