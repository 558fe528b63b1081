// The group vote queries of explore/group_map: a vote is a message of the
// queried kind whose claimed ID is a group member, and support counts the
// distinct physical senders (Msg::source) behind the votes. Hand-built
// inboxes pin the tally rules (they are never memoized, even when two of
// them share an address and a length); a real Engine pins the memo's
// keying on the delivery number (an inbox at the same address with the
// same length in the next sub-round is new data and must be re-tallied).
#include "explore/group_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "graph/generators.h"
#include "sim/engine.h"

namespace bdg::explore {
namespace {

using sim::Msg;
using sim::RobotId;

constexpr std::uint32_t kVote = 7;
constexpr std::uint32_t kOtherKind = 8;

/// A hand-built inbox: messages over blocks of its own pool.
struct Inbox {
  util::PayloadPool pool;
  std::vector<Msg> msgs;

  Inbox& add(RobotId claimed, std::uint32_t source,
             std::vector<std::int64_t> words, std::uint32_t kind = kVote) {
    msgs.push_back(Msg{claimed, source, kind, pool.make(words)});
    return *this;
  }
  [[nodiscard]] std::span<const Msg> view() const { return msgs; }
};

using Words = std::vector<std::int64_t>;

Words words_of(std::optional<std::span<const std::int64_t>> payload) {
  return payload ? Words(payload->begin(), payload->end()) : Words{};
}

const std::vector<RobotId> kMembers = {1, 2, 3, 4};

TEST(GroupVote, AStrongRobotForgingSeveralIdsIsOneSource) {
  // Source 9 claims three member IDs behind one payload: one vote.
  Inbox box;
  box.add(1, 9, {5}).add(2, 9, {5}).add(3, 9, {5});
  EXPECT_EQ(presence_support(box.view(), kVote, kMembers), 1u);
  EXPECT_FALSE(believed_payload(box.view(), kVote, kMembers, 2).has_value());
  EXPECT_EQ(words_of(believed_payload(box.view(), kVote, kMembers, 1)),
            Words{5});

  // A second physical sender behind the same payload makes it two.
  Inbox two;
  two.add(1, 9, {5}).add(2, 9, {5}).add(4, 10, {5});
  EXPECT_EQ(presence_support(two.view(), kVote, kMembers), 2u);
  EXPECT_EQ(words_of(believed_payload(two.view(), kVote, kMembers, 2)),
            Words{5});
}

TEST(GroupVote, ClaimsFromNonMembersAndOtherKindsAreIgnored) {
  Inbox box;
  box.add(50, 1, {5}).add(51, 2, {5}).add(52, 3, {5});  // non-members
  box.add(1, 4, {5}, kOtherKind);                        // member, other kind
  EXPECT_EQ(presence_support(box.view(), kVote, kMembers), 0u);
  EXPECT_FALSE(believed_payload(box.view(), kVote, kMembers, 1).has_value());

  // One member vote among them: only it counts.
  Inbox mixed;
  mixed.add(50, 1, {6}).add(51, 2, {6}).add(2, 3, {5});
  EXPECT_EQ(presence_support(mixed.view(), kVote, kMembers), 1u);
  EXPECT_EQ(words_of(believed_payload(mixed.view(), kVote, kMembers, 1)),
            Words{5});
}

TEST(GroupVote, TiesGoToTheLexicographicallySmallerPayload) {
  // Two sources each behind {5, 1} and {2, 9}; the larger arrives first.
  Inbox box;
  box.add(1, 1, {5, 1}).add(2, 2, {2, 9}).add(3, 3, {5, 1}).add(4, 4, {2, 9});
  EXPECT_EQ(words_of(believed_payload(box.view(), kVote, kMembers, 2)),
            (Words{2, 9}));
  // A prefix is smaller than its extensions.
  Inbox prefix;
  prefix.add(1, 1, {2, 0}).add(2, 2, {2});
  EXPECT_EQ(words_of(believed_payload(prefix.view(), kVote, kMembers, 1)),
            Words{2});
  // A strict majority beats a smaller payload.
  Inbox majority;
  majority.add(1, 1, {1}).add(2, 2, {3}).add(3, 3, {3});
  EXPECT_EQ(words_of(believed_payload(majority.view(), kVote, kMembers, 1)),
            Words{3});
}

TEST(GroupVote, BelowTheQuorumThereIsNoBelief) {
  Inbox box;
  box.add(1, 1, {4}).add(2, 2, {4}).add(3, 3, {8});
  EXPECT_EQ(words_of(believed_payload(box.view(), kVote, kMembers, 2)),
            Words{4});
  EXPECT_FALSE(believed_payload(box.view(), kVote, kMembers, 3).has_value());
  Inbox empty;
  EXPECT_FALSE(believed_payload(empty.view(), kVote, kMembers, 1).has_value());
  EXPECT_EQ(presence_support(empty.view(), kVote, kMembers), 0u);
}

TEST(GroupVote, HandBuiltInboxesAtOneAddressEachGetTheirOwnTally) {
  // One buffer refilled with a second inbox of the same length: the same
  // address and length, queried right after the first, with no engine
  // delivery between them.
  util::PayloadPool pool;
  std::vector<Msg> msgs;
  msgs.reserve(2);
  msgs.push_back(Msg{1, 1, kVote, pool.make(Words{5})});
  msgs.push_back(Msg{2, 2, kVote, pool.make(Words{5})});
  const Msg* first = msgs.data();
  const auto view = [&] { return std::span<const Msg>(msgs); };
  EXPECT_EQ(presence_support(view(), kVote, kMembers), 2u);
  EXPECT_EQ(words_of(believed_payload(view(), kVote, kMembers, 2)), Words{5});

  msgs.clear();
  msgs.push_back(Msg{1, 1, kVote, pool.make(Words{6})});
  msgs.push_back(Msg{50, 2, kVote, pool.make(Words{6})});  // non-member
  ASSERT_EQ(msgs.data(), first);
  EXPECT_EQ(presence_support(view(), kVote, kMembers), 1u);
  EXPECT_FALSE(believed_payload(view(), kVote, kMembers, 2).has_value());
  EXPECT_EQ(words_of(believed_payload(view(), kVote, kMembers, 1)), Words{6});
}

// ---------------------------------------------------------------------------
// Through a real Engine: robot 1 (a member) votes in sub-round 0, robot 3
// (a non-member) in sub-round 1. Robot 2 queries the same node at
// sub-rounds 1 and 2, where the delivered inbox sits in the same buffer
// with the same length (one message), so only the delivery number tells the
// two apart: the second query must re-tally to 0 votes.
// ---------------------------------------------------------------------------

sim::Proc voter_at(sim::Ctx ctx, std::uint32_t subround) {
  while (ctx.subround() < subround) co_await ctx.next_subround();
  const std::int64_t words[] = {42};
  ctx.broadcast(kVote, words);
  co_await ctx.end_round(std::nullopt);
}

struct Seen {
  std::uint32_t presence = 0;
  Words believed;
  const void* box = nullptr;
  std::size_t len = 0;
};

sim::Proc querier(sim::Ctx ctx, const std::vector<RobotId>* members,
                  std::vector<Seen>* seen) {
  for (int i = 0; i < 2; ++i) {
    co_await ctx.next_subround();
    const sim::InboxView inbox = ctx.inbox();
    seen->push_back({presence_support(inbox, kVote, *members),
                     words_of(believed_payload(inbox, kVote, *members, 1)),
                     inbox.data(), inbox.size()});
  }
  co_await ctx.end_round(std::nullopt);
}

TEST(GroupVote, TheNextSubroundsSameSizedInboxIsRetallied) {
  const std::vector<RobotId> members = {1, 2};
  sim::Engine eng(make_path(2), sim::EngineConfig{.subrounds = 4});
  std::vector<Seen> seen;
  eng.add_robot(1, sim::Faultiness::kHonest, 0,
                [](sim::Ctx c) { return voter_at(c, 0); });
  eng.add_robot(2, sim::Faultiness::kHonest, 0, [&](sim::Ctx c) {
    return querier(c, &members, &seen);
  });
  eng.add_robot(3, sim::Faultiness::kHonest, 0,
                [](sim::Ctx c) { return voter_at(c, 1); });
  eng.run(4);
  ASSERT_EQ(seen.size(), 2u);
  // The premise: one buffer, one message, both times.
  EXPECT_EQ(seen[0].box, seen[1].box);
  EXPECT_EQ(seen[0].len, 1u);
  EXPECT_EQ(seen[1].len, 1u);
  EXPECT_EQ(seen[0].presence, 1u);
  EXPECT_EQ(seen[0].believed, Words{42});
  EXPECT_EQ(seen[1].presence, 0u);
  EXPECT_EQ(seen[1].believed, Words{});
}

}  // namespace
}  // namespace bdg::explore
