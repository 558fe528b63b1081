#pragma once
// Quorum tallying for group protocols. A vote is a message whose claimed
// sender ID belongs to an expected membership set; support counts the
// distinct PHYSICAL senders (sim::Msg::source) behind such votes, so a
// strong Byzantine robot forging several member IDs still counts once.
// Support can only ever be trusted above a quorum chosen per the paper's
// group arguments.
//
// These run once per token-group member per round on the group-dispersion
// hot path, so they tally into reusable flat scratch (no per-call maps,
// sets, or key copies) and hand results back as views into the inbox.
// Results on engine-delivered inboxes are memoized per thread by inbox
// identity (sim::InboxView: delivery number and address); a hand-built
// inbox (delivery 0) is tallied afresh on every call.
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "sim/engine.h"

namespace bdg::explore {

/// The payload of `kind` with the most distinct physical senders among
/// messages claimed by `members`, provided that support reaches `quorum`;
/// ties go to the lexicographically smaller payload.
/// The returned span aliases a message payload in `inbox` and is valid
/// only while that inbox is (i.e. within the current sub-round).
[[nodiscard]] std::optional<std::span<const std::int64_t>> believed_payload(
    const sim::InboxView& inbox, std::uint32_t kind,
    const std::vector<sim::RobotId>& members, std::uint32_t quorum);

/// Distinct physical senders of messages of `kind` claimed by `members`,
/// regardless of payload (presence votes).
[[nodiscard]] std::uint32_t presence_support(
    const sim::InboxView& inbox, std::uint32_t kind,
    const std::vector<sim::RobotId>& members);

}  // namespace bdg::explore
