#pragma once
// Message kinds used by the dispersion protocols (core owns 200..299;
// map finding owns 100..199, gathering extensions 150..159).
#include <cstdint>

namespace bdg::core {

enum DispersionMsgKind : std::uint32_t {
  /// Per-round presence/state beacon; data = [state] with 0 = tobeSettled,
  /// 1 = Settled. Every robot executing Dispersion-Using-Map broadcasts it
  /// in sub-round 0 (a silent recorded settler gets blacklisted, paper
  /// step 4).
  kMsgStatus = 200,
  /// "Flag = 1": the sender intends to settle at this node this round.
  kMsgIntent = 201,
  /// State-change announcement: the sender settles here now.
  kMsgSettled = 202,
};

enum DispersionState : std::int64_t {
  kStateToBeSettled = 0,
  kStateSettled = 1,
};

}  // namespace bdg::core
