#pragma once
// Port-labeled anonymous graphs — the substrate the paper's model runs on.
//
// Nodes are unlabeled (robots cannot read node identities); every node of
// degree d assigns its incident edge endpoints the distinct port numbers
// 0..d-1 (the paper writes [1, delta]; we use 0-based ports throughout).
// The two endpoints of an edge may carry different port numbers. A robot
// crossing an edge learns both the outgoing and the incoming port.
//
// The same type also represents robot-built maps and quotient graphs, which
// may contain self-loops and parallel edges; simple-graph invariants are
// checked only where generators promise them.
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

namespace bdg {

using NodeId = std::uint32_t;
using Port = std::uint32_t;

inline constexpr NodeId kNoNode = std::numeric_limits<NodeId>::max();
inline constexpr Port kNoPort = std::numeric_limits<Port>::max();

/// One directed half of an edge as seen from a node: the neighbor reached
/// through a port, and the port number assigned by that neighbor.
struct HalfEdge {
  NodeId to = kNoNode;
  Port reverse = kNoPort;
  friend bool operator==(const HalfEdge&, const HalfEdge&) = default;
};

/// Port-labeled (multi)graph. Ports of node v are 0..degree(v)-1 and index
/// directly into the adjacency vector, so "move through port p" is O(1).
class Graph {
 public:
  Graph() = default;
  explicit Graph(std::size_t n) : adj_(n) {}

  [[nodiscard]] std::size_t n() const noexcept { return adj_.size(); }

  /// Number of undirected edges (self-loops with a single port count as one
  /// half-edge and are not produced by any of our generators).
  [[nodiscard]] std::size_t m() const noexcept;

  [[nodiscard]] std::uint32_t degree(NodeId v) const {
    return static_cast<std::uint32_t>(adj_[v].size());
  }

  [[nodiscard]] std::uint32_t max_degree() const noexcept;

  /// The half-edge out of v through port p. Precondition: p < degree(v).
  [[nodiscard]] const HalfEdge& hop(NodeId v, Port p) const {
    return adj_[v][p];
  }

  [[nodiscard]] const std::vector<HalfEdge>& edges_of(NodeId v) const {
    return adj_[v];
  }

  /// Append an undirected edge; the ports used are the next free port on
  /// each side. Returns the (port_u, port_v) pair assigned.
  std::pair<Port, Port> add_edge(NodeId u, NodeId v);

  /// Build directly from an adjacency structure (used by port relabeling
  /// and node permutation). The caller promises port consistency; it is
  /// checked in debug builds.
  [[nodiscard]] static Graph from_adjacency(
      std::vector<std::vector<HalfEdge>> adj);

  /// Checks the port involution: hop(hop(v,p)) returns to (v,p) for every
  /// half-edge, and all entries are in range. Maps under construction and
  /// final graphs alike must satisfy this.
  [[nodiscard]] bool is_port_consistent() const noexcept;

  /// Connectivity over the undirected edge set (empty graph is connected).
  [[nodiscard]] bool is_connected() const;

  /// True if there are no self-loops and no parallel edges.
  [[nodiscard]] bool is_simple() const;

  /// BFS hop distances from src; unreachable nodes get UINT32_MAX.
  [[nodiscard]] std::vector<std::uint32_t> bfs_distances(NodeId src) const;

  /// Shortest path from src to dst as a sequence of outgoing ports, or
  /// nullopt when unreachable. Ties broken by smallest port (deterministic).
  [[nodiscard]] std::optional<std::vector<Port>> shortest_path_ports(
      NodeId src, NodeId dst) const;

  /// Node reached by starting at src and following the port walk; any
  /// out-of-range port aborts and returns kNoNode.
  [[nodiscard]] NodeId walk(NodeId src, const std::vector<Port>& ports) const;

  /// Largest finite BFS eccentricity (requires connected graph).
  [[nodiscard]] std::uint32_t diameter() const;

  friend bool operator==(const Graph&, const Graph&) = default;

 private:
  std::vector<std::vector<HalfEdge>> adj_;
};

}  // namespace bdg
