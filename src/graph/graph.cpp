#include "graph/graph.h"

#include <algorithm>
#include <cassert>
#include <queue>
#include <set>

namespace bdg {

std::size_t Graph::m() const noexcept {
  std::size_t half_edges = 0;
  for (const auto& v : adj_) half_edges += v.size();
  return half_edges / 2;
}

std::uint32_t Graph::max_degree() const noexcept {
  std::uint32_t d = 0;
  for (NodeId v = 0; v < n(); ++v) d = std::max(d, degree(v));
  return d;
}

std::pair<Port, Port> Graph::add_edge(NodeId u, NodeId v) {
  assert(u < n() && v < n());
  const Port pu = static_cast<Port>(adj_[u].size());
  // For a self-loop the second endpoint's port is allocated after the first.
  adj_[u].push_back(HalfEdge{});
  const Port pv = static_cast<Port>(adj_[v].size());
  adj_[v].push_back(HalfEdge{});
  adj_[u][pu] = HalfEdge{v, pv};
  adj_[v][pv] = HalfEdge{u, pu};
  return {pu, pv};
}

Graph Graph::from_adjacency(std::vector<std::vector<HalfEdge>> adj) {
  Graph g;
  g.adj_ = std::move(adj);
  assert(g.is_port_consistent());
  return g;
}

bool Graph::is_port_consistent() const noexcept {
  for (NodeId v = 0; v < n(); ++v) {
    for (Port p = 0; p < degree(v); ++p) {
      const HalfEdge& he = adj_[v][p];
      if (he.to >= n()) return false;
      if (he.reverse >= degree(he.to)) return false;
      const HalfEdge& back = adj_[he.to][he.reverse];
      if (back.to != v || back.reverse != p) return false;
    }
  }
  return true;
}

bool Graph::is_connected() const {
  if (n() == 0) return true;
  const auto dist = bfs_distances(0);
  return std::none_of(dist.begin(), dist.end(), [](std::uint32_t d) {
    return d == std::numeric_limits<std::uint32_t>::max();
  });
}

bool Graph::is_simple() const {
  for (NodeId v = 0; v < n(); ++v) {
    std::set<NodeId> seen;
    for (const HalfEdge& he : adj_[v]) {
      if (he.to == v) return false;
      if (!seen.insert(he.to).second) return false;
    }
  }
  return true;
}

std::vector<std::uint32_t> Graph::bfs_distances(NodeId src) const {
  std::vector<std::uint32_t> dist(n(), std::numeric_limits<std::uint32_t>::max());
  if (src >= n()) return dist;
  std::queue<NodeId> q;
  dist[src] = 0;
  q.push(src);
  while (!q.empty()) {
    const NodeId v = q.front();
    q.pop();
    for (const HalfEdge& he : adj_[v]) {
      if (dist[he.to] == std::numeric_limits<std::uint32_t>::max()) {
        dist[he.to] = dist[v] + 1;
        q.push(he.to);
      }
    }
  }
  return dist;
}

std::optional<std::vector<Port>> Graph::shortest_path_ports(NodeId src,
                                                            NodeId dst) const {
  if (src >= n() || dst >= n()) return std::nullopt;
  if (src == dst) return std::vector<Port>{};
  // BFS storing the (parent, port-from-parent) that first discovers a node;
  // exploring ports in increasing order makes the result deterministic.
  std::vector<NodeId> parent(n(), kNoNode);
  std::vector<Port> via(n(), kNoPort);
  std::queue<NodeId> q;
  parent[src] = src;
  q.push(src);
  while (!q.empty()) {
    const NodeId v = q.front();
    q.pop();
    for (Port p = 0; p < degree(v); ++p) {
      const NodeId u = adj_[v][p].to;
      if (parent[u] == kNoNode) {
        parent[u] = v;
        via[u] = p;
        if (u == dst) {
          std::vector<Port> path;
          for (NodeId w = dst; w != src; w = parent[w]) path.push_back(via[w]);
          std::reverse(path.begin(), path.end());
          return path;
        }
        q.push(u);
      }
    }
  }
  return std::nullopt;
}

NodeId Graph::walk(NodeId src, const std::vector<Port>& ports) const {
  NodeId v = src;
  for (Port p : ports) {
    if (v >= n() || p >= degree(v)) return kNoNode;
    v = adj_[v][p].to;
  }
  return v;
}

std::uint32_t Graph::diameter() const {
  std::uint32_t d = 0;
  for (NodeId v = 0; v < n(); ++v) {
    for (std::uint32_t x : bfs_distances(v)) {
      assert(x != std::numeric_limits<std::uint32_t>::max());
      d = std::max(d, x);
    }
  }
  return d;
}

}  // namespace bdg
