#pragma once
// Partial maps built by the agent-with-movable-token exploration protocol
// (Dieudonne-Pelc-Peleg [24], as used by the paper's Theorems 2-7).
//
// The agent discovers nodes incrementally. A node of a partial map has a
// known degree (observed on arrival) and a slot per port, initially
// unexplored. The identity question "is the node behind this frontier port
// new, or one I already know?" is settled physically: the agent parks the
// token there, walks back through mapped territory, and probes every
// candidate (same degree, compatible unexplored port) for the token.
#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.h"
#include "util/smallvec.h"

namespace bdg {

/// Mutable map under construction. Node 0 is the start (rally) node.
class PartialMap {
 public:
  /// Begin a map whose root has the given degree.
  explicit PartialMap(std::uint32_t root_degree);

  [[nodiscard]] std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(nodes_.size());
  }
  [[nodiscard]] std::uint32_t degree(NodeId v) const {
    return static_cast<std::uint32_t>(nodes_[v].size());
  }
  [[nodiscard]] bool explored(NodeId v, Port p) const {
    return nodes_[v][p].to != kNoNode;
  }
  [[nodiscard]] const HalfEdge& hop(NodeId v, Port p) const {
    return nodes_[v][p];
  }

  /// Add a newly discovered node of the given degree; returns its id.
  NodeId add_node(std::uint32_t deg);

  /// Record the verified edge (u, pu) <-> (v, pv). Both slots must be
  /// unexplored (each physical edge is resolved exactly once).
  void connect(NodeId u, Port pu, NodeId v, Port pv);

  /// First unexplored (node, port) in (node, port) lexicographic order,
  /// or nullopt when the map is complete. Amortized O(1) over a build:
  /// slots only ever transition unexplored -> explored, so the scan
  /// resumes from a monotone cursor instead of rescanning from (0, 0).
  [[nodiscard]] std::optional<std::pair<NodeId, Port>> first_unexplored() const;

  /// Nodes that could be the one just reached through a frontier edge
  /// arriving at port q with observed degree deg: same degree, port q
  /// unexplored. Ordered by node id (deterministic probe order). Fills
  /// `out` (cleared first), reusing its capacity.
  void candidates_into(std::uint32_t deg, Port q,
                       std::vector<NodeId>& out) const;

  /// Shortest route between known nodes using explored edges only, as a
  /// port sequence. Requires such a route to exist (explored subgraph is
  /// connected by construction). Fills `out` (cleared first) and reuses the
  /// map's internal BFS scratch, so repeated routing inside one window
  /// stops allocating. Not reentrant (one route computation at a time).
  void route_into(NodeId from, NodeId to, std::vector<Port>& out) const;

  /// Finalize into a Graph. Requires the map to be complete.
  [[nodiscard]] Graph to_graph() const;

  [[nodiscard]] bool complete() const;

 private:
  /// Adjacency rows are inline-small: sweep families are sparse (degrees
  /// mostly <= 4), so a row rarely costs a heap block of its own.
  std::vector<util::SmallVec<HalfEdge, 4>> nodes_;
  /// Monotone frontier cursor for first_unexplored (see above).
  mutable NodeId scan_node_ = 0;
  mutable Port scan_port_ = 0;
  /// BFS scratch reused by route_into (parent node, arrival-via port, and
  /// the work queue), sized lazily to the current node count.
  mutable std::vector<NodeId> bfs_parent_;
  mutable std::vector<Port> bfs_via_;
  mutable std::vector<NodeId> bfs_queue_;
};

}  // namespace bdg
