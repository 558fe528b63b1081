#include "explore/group_map.h"

#include <algorithm>

#include "util/smallvec.h"

namespace bdg::explore {

namespace {

bool is_member(sim::RobotId id, const std::vector<sim::RobotId>& members) {
  return std::binary_search(members.begin(), members.end(), id);
}

/// Distinct physical sources supporting one payload. Voter sets are small
/// (bounded by co-located robots), so a linear-dedup inline vector beats
/// any tree/hash per call.
struct VoteTally {
  std::span<const std::int64_t> payload;
  std::uint64_t hash = 0;       ///< PayloadRef::content_hash of `payload`
  std::uint32_t first_msg = 0;  ///< inbox index that opened this tally
  util::SmallVec<std::uint32_t, 16> voters;

  void add_voter(std::uint32_t source) {
    for (const std::uint32_t v : voters)
      if (v == source) return;
    voters.push_back(source);
  }
};

bool same_payload(std::span<const std::int64_t> a,
                  std::span<const std::int64_t> b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

bool lex_less(std::span<const std::int64_t> a,
              std::span<const std::int64_t> b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

/// Per-thread tally scratch, reused across calls. Entries are recycled by
/// a live count rather than destroyed, so each slot's voter buffer keeps
/// its capacity and the steady state performs no allocation. Engines are
/// thread-confined (sweeps parallelize across engines), so thread_local
/// scratch is race-free by construction.
struct TallyScratch {
  std::vector<VoteTally> slots;
  std::size_t live = 0;

  void reset() { live = 0; }

  /// `hash` pre-filters the payload compare: adversarial inboxes carry
  /// many DISTINCT long payloads (forged map codes), and without the
  /// fingerprint every message deep-compared against every live tally.
  VoteTally& tally_for(std::span<const std::int64_t> payload,
                       std::uint64_t hash, std::uint32_t msg_idx) {
    for (std::size_t i = 0; i < live; ++i)
      if (slots[i].hash == hash && same_payload(slots[i].payload, payload))
        return slots[i];
    if (live == slots.size()) slots.emplace_back();
    VoteTally& t = slots[live++];
    t.payload = payload;
    t.hash = hash;
    t.first_msg = msg_idx;
    t.voters.clear();
    return t;
  }
};

thread_local TallyScratch g_tallies;
thread_local util::SmallVec<std::uint32_t, 16> g_voters;

/// Memo for one support query. All members of a co-located group run the
/// SAME vote over the SAME delivered inbox each sub-round, so the 2nd..kth
/// caller can reuse the 1st caller's tally. The key is the inbox IDENTITY:
/// its engine-assigned delivery number, address and length (sim::InboxView),
/// under which its contents cannot change, so the hit check costs O(members),
/// never a payload scan. An inbox no engine delivered (delivery 0) is
/// never memoized. Query parameters are compared by value; `members` by
/// contents, since each robot carries its own config copy of the same
/// group roster.
struct QueryCache {
  struct Entry {
    std::uint64_t delivery = 0;
    const void* box = nullptr;
    std::size_t box_len = 0;
    std::uint64_t kind_quorum = ~std::uint64_t{0};
    std::vector<sim::RobotId> members;  // snapshot; keeps capacity
    std::int64_t result = 0;
  };
  // A few entries, replaced round-robin: one round interleaves queries for
  // several kinds on the same inbox (the token asks for instructions AND
  // map codes), so a single slot would thrash to a 0% hit rate.
  static constexpr std::size_t kEntries = 4;
  Entry entries[kEntries];
  std::size_t next = 0;
  std::int64_t result = 0;  ///< result of the last successful lookup()

  bool lookup(const sim::InboxView& inbox, std::uint32_t kind,
              const std::vector<sim::RobotId>& mem, std::uint64_t extra) {
    if (inbox.delivery == 0) return false;
    const std::uint64_t kq = (static_cast<std::uint64_t>(kind) << 32) | extra;
    for (Entry& e : entries) {
      if (e.delivery == inbox.delivery && e.box == inbox.data() &&
          e.box_len == inbox.size() && e.kind_quorum == kq &&
          e.members == mem) {
        result = e.result;
        return true;
      }
    }
    return false;
  }

  void store(const sim::InboxView& inbox, std::uint32_t kind,
             const std::vector<sim::RobotId>& mem, std::uint64_t extra,
             std::int64_t r) {
    if (inbox.delivery == 0) return;
    Entry& e = entries[next];
    next = (next + 1) % kEntries;
    e.delivery = inbox.delivery;
    e.box = inbox.data();
    e.box_len = inbox.size();
    e.kind_quorum = (static_cast<std::uint64_t>(kind) << 32) | extra;
    e.members.assign(mem.begin(), mem.end());
    e.result = r;
  }
};

thread_local QueryCache g_believed_cache, g_presence_cache;

}  // namespace

std::optional<std::span<const std::int64_t>> believed_payload(
    const sim::InboxView& inbox, std::uint32_t kind,
    const std::vector<sim::RobotId>& members, std::uint32_t quorum) {
  // A robot that supports several conflicting payloads contributes one vote
  // to each; that cannot push any forged payload beyond the liar count,
  // which is what the quorum guards against.
  if (g_believed_cache.lookup(inbox, kind, members, quorum)) {
    if (g_believed_cache.result < 0) return std::nullopt;
    // Re-derive the span from the CURRENT inbox (never a stored pointer):
    // fingerprint equality guarantees this message carries the winning
    // payload, and the returned view aliases a live delivered block.
    return inbox[static_cast<std::size_t>(g_believed_cache.result)]
        .data.view();
  }
  g_tallies.reset();
  for (std::size_t i = 0; i < inbox.size(); ++i) {
    const sim::Msg& m = inbox[i];
    if (m.kind != kind) continue;
    if (!is_member(m.claimed, members)) continue;
    g_tallies
        .tally_for(m.data.view(), m.data.content_hash(),
                   static_cast<std::uint32_t>(i))
        .add_voter(m.source);
  }
  // Max support; ties go to the lexicographically smaller payload (the
  // order the old ascending std::map produced).
  const VoteTally* best = nullptr;
  for (std::size_t i = 0; i < g_tallies.live; ++i) {
    const VoteTally& t = g_tallies.slots[i];
    if (best == nullptr || t.voters.size() > best->voters.size() ||
        (t.voters.size() == best->voters.size() &&
         lex_less(t.payload, best->payload)))
      best = &t;
  }
  if (best != nullptr && best->voters.size() >= quorum) {
    g_believed_cache.store(inbox, kind, members, quorum, best->first_msg);
    return best->payload;
  }
  g_believed_cache.store(inbox, kind, members, quorum, -1);
  return std::nullopt;
}

std::uint32_t presence_support(const sim::InboxView& inbox,
                               std::uint32_t kind,
                               const std::vector<sim::RobotId>& members) {
  if (g_presence_cache.lookup(inbox, kind, members, 0))
    return static_cast<std::uint32_t>(g_presence_cache.result);
  // One vote per PHYSICAL sender (Msg::source): a strong Byzantine robot
  // can forge the claimed ID but still presents one memory ([24]'s
  // exposed-memory model; see Msg::source).
  g_voters.clear();
  for (const sim::Msg& m : inbox) {
    if (m.kind != kind || !is_member(m.claimed, members)) continue;
    if (std::find(g_voters.begin(), g_voters.end(), m.source) ==
        g_voters.end())
      g_voters.push_back(m.source);
  }
  g_presence_cache.store(inbox, kind, members, 0,
                         static_cast<std::int64_t>(g_voters.size()));
  return static_cast<std::uint32_t>(g_voters.size());
}

}  // namespace bdg::explore
