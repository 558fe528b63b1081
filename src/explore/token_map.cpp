#include "explore/token_map.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace bdg {

PartialMap::PartialMap(std::uint32_t root_degree) {
  nodes_.emplace_back().resize(root_degree);  // HalfEdge{} = unexplored
}

NodeId PartialMap::add_node(std::uint32_t deg) {
  nodes_.emplace_back().resize(deg);
  return static_cast<NodeId>(nodes_.size() - 1);
}

void PartialMap::connect(NodeId u, Port pu, NodeId v, Port pv) {
  assert(u < size() && v < size());
  assert(pu < degree(u) && pv < degree(v));
  if (explored(u, pu) || explored(v, pv))
    throw std::logic_error("PartialMap::connect: slot already explored");
  nodes_[u][pu] = HalfEdge{v, pv};
  nodes_[v][pv] = HalfEdge{u, pu};
}

std::optional<std::pair<NodeId, Port>> PartialMap::first_unexplored() const {
  // Slots only transition unexplored -> explored and nodes are appended,
  // so the lexicographically first unexplored slot never moves backwards:
  // resume the scan at the cursor left by the previous call.
  for (NodeId v = scan_node_; v < size(); ++v) {
    for (Port p = (v == scan_node_ ? scan_port_ : 0); p < degree(v); ++p) {
      if (!explored(v, p)) {
        scan_node_ = v;
        scan_port_ = p;
        return std::make_pair(v, p);
      }
    }
  }
  scan_node_ = size();
  scan_port_ = 0;
  return std::nullopt;
}

void PartialMap::candidates_into(std::uint32_t deg, Port q,
                                 std::vector<NodeId>& out) const {
  out.clear();
  for (NodeId v = 0; v < size(); ++v)
    if (degree(v) == deg && q < degree(v) && !explored(v, q))
      out.push_back(v);
}

void PartialMap::route_into(NodeId from, NodeId to,
                            std::vector<Port>& out) const {
  out.clear();
  if (from == to) return;
  bfs_parent_.assign(size(), kNoNode);
  bfs_via_.assign(size(), kNoPort);
  bfs_queue_.clear();
  bfs_parent_[from] = from;
  bfs_queue_.push_back(from);
  for (std::size_t head = 0; head < bfs_queue_.size(); ++head) {
    const NodeId v = bfs_queue_[head];
    for (Port p = 0; p < degree(v); ++p) {
      if (!explored(v, p)) continue;
      const NodeId u = nodes_[v][p].to;
      if (bfs_parent_[u] != kNoNode) continue;
      bfs_parent_[u] = v;
      bfs_via_[u] = p;
      if (u == to) {
        for (NodeId w = to; w != from; w = bfs_parent_[w])
          out.push_back(bfs_via_[w]);
        std::reverse(out.begin(), out.end());
        return;
      }
      bfs_queue_.push_back(u);
    }
  }
  throw std::logic_error("PartialMap::route_into: no explored route");
}

bool PartialMap::complete() const { return !first_unexplored().has_value(); }

Graph PartialMap::to_graph() const {
  if (!complete())
    throw std::logic_error("PartialMap::to_graph: map incomplete");
  std::vector<std::vector<HalfEdge>> adj(nodes_.size());
  for (std::size_t v = 0; v < nodes_.size(); ++v)
    adj[v].assign(nodes_[v].begin(), nodes_[v].end());
  return Graph::from_adjacency(std::move(adj));
}

}  // namespace bdg
