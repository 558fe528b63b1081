#pragma once
// Open-addressing hash map/set: one contiguous slot array, power-of-2
// capacity, linear probing, tombstones with reuse. Generalizes the
// quotient-refinement palette (graph/quotient.cpp), which proved the
// pattern on this codebase's hottest loop: node-based std::map /
// std::unordered_map cost one allocation and several cache misses per
// operation, while a flat table costs zero allocations at steady state and
// one predictable probe sequence.
//
// Determinism contract: iteration visits slots in array order, which is a
// pure function of the insertion/erasure history and the fixed hash
// constants below — never of pointer values or a per-process seed. Callers
// that need a canonical order (tie-breaks, report emission) must still sort
// or scan keys explicitly; tests pin that two identical histories iterate
// identically.
//
// Growth doubles the slot array and re-inserts live entries (dropping
// tombstones). Erase writes a tombstone so later probes keep walking;
// insert reuses the first tombstone seen on its probe path, so
// erase/insert churn at fixed size does not grow the table.
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace bdg::util {

/// splitmix64 finalizer: full-avalanche mix for integral keys. Fixed
/// constants — table order must be reproducible across runs and platforms.
[[nodiscard]] inline std::uint64_t hash_u64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// FNV-1a over a word sequence, finished with the avalanche above (FNV's
/// low bits are weak alone; a power-of-2 table indexes with them).
template <class It>
[[nodiscard]] std::uint64_t hash_words(It first, It last) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (; first != last; ++first) {
    h ^= static_cast<std::uint64_t>(*first);
    h *= 0x100000001b3ULL;
  }
  return hash_u64(h);
}

struct FlatHash {
  template <std::integral I>
  [[nodiscard]] std::uint64_t operator()(I k) const noexcept {
    return hash_u64(static_cast<std::uint64_t>(k));
  }
  template <class Seq>
  [[nodiscard]] std::uint64_t operator()(const Seq& s) const noexcept
    requires requires { s.begin(); s.end(); }
  {
    return hash_words(s.begin(), s.end());
  }
};

/// Open-addressing map. K must be equality-comparable; V default- and
/// move-constructible. Max load factor 7/8 before doubling.
template <class K, class V, class Hash = FlatHash>
class FlatMap {
  enum class State : std::uint8_t { kEmpty, kFull, kTomb };

  struct Slot {
    K key;
    V val;
  };

 public:
  using key_type = K;
  using mapped_type = V;

  FlatMap() = default;
  explicit FlatMap(std::size_t expected) { reserve(expected); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t slot_count() const noexcept { return states_.size(); }

  /// Drop all entries but keep the slot array: the hot-loop reset.
  void clear() noexcept {
    std::fill(states_.begin(), states_.end(), State::kEmpty);
    size_ = 0;
    used_ = 0;
  }

  void reserve(std::size_t n) {
    std::size_t want = 8;
    while (want * 7 / 8 < n) want *= 2;
    if (want > states_.size()) rehash(want);
  }

  [[nodiscard]] V* find(const K& key) noexcept {
    if (states_.empty()) return nullptr;
    const std::size_t mask = states_.size() - 1;
    std::size_t i = Hash{}(key)&mask;
    while (true) {
      if (states_[i] == State::kEmpty) return nullptr;
      if (states_[i] == State::kFull && slots_[i].key == key)
        return &slots_[i].val;
      i = (i + 1) & mask;
    }
  }
  [[nodiscard]] const V* find(const K& key) const noexcept {
    return const_cast<FlatMap*>(this)->find(key);
  }
  [[nodiscard]] bool contains(const K& key) const noexcept {
    return find(key) != nullptr;
  }

  /// std::map::operator[] semantics: default-construct on first access.
  V& operator[](const K& key) { return try_emplace(key).first; }
  V& operator[](K&& key) { return try_emplace(std::move(key)).first; }

  /// Returns {value-ref, inserted}. The key is moved in only on insert.
  /// Materialized as K up front so probing hashes and compares the SAME
  /// type the table stores (an int literal into a FlatSet<uint64_t> must
  /// not probe with mixed-signedness comparisons).
  template <class KK>
  std::pair<V&, bool> try_emplace(KK&& key_in) {
    K key(std::forward<KK>(key_in));
    grow_if_needed();
    const std::size_t mask = states_.size() - 1;
    std::size_t i = Hash{}(key)&mask;
    std::size_t tomb = states_.size();  // first tombstone on the probe path
    while (true) {
      if (states_[i] == State::kEmpty) {
        const std::size_t at = tomb != states_.size() ? tomb : i;
        if (at == i) ++used_;  // tombstone reuse doesn't consume a new slot
        states_[at] = State::kFull;
        slots_[at].key = std::move(key);
        slots_[at].val = V{};
        ++size_;
        return {slots_[at].val, true};
      }
      if (states_[i] == State::kTomb) {
        if (tomb == states_.size()) tomb = i;
      } else if (slots_[i].key == key) {
        return {slots_[i].val, false};
      }
      i = (i + 1) & mask;
    }
  }

  bool erase(const K& key) noexcept {
    if (states_.empty()) return false;
    const std::size_t mask = states_.size() - 1;
    std::size_t i = Hash{}(key)&mask;
    while (true) {
      if (states_[i] == State::kEmpty) return false;
      if (states_[i] == State::kFull && slots_[i].key == key) {
        states_[i] = State::kTomb;
        --size_;
        return true;
      }
      i = (i + 1) & mask;
    }
  }

  /// Visit entries in slot order (deterministic for a fixed history).
  template <class F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < states_.size(); ++i)
      if (states_[i] == State::kFull) f(slots_[i].key, slots_[i].val);
  }
  template <class F>
  void for_each(F&& f) {
    for (std::size_t i = 0; i < states_.size(); ++i)
      if (states_[i] == State::kFull) f(slots_[i].key, slots_[i].val);
  }

 private:
  void grow_if_needed() {
    if (states_.empty()) {
      rehash(8);
      return;
    }
    // Count tombstones (used_) against the load factor too: a table churned
    // by erase/insert rebuilds once probe chains get tombstone-heavy. Only
    // double when LIVE entries crowd the table; a tombstone-heavy rebuild
    // keeps its capacity, so fixed-size churn never grows the array.
    if ((used_ + 1) * 8 <= states_.size() * 7) return;
    const bool crowded = (size_ + 1) * 8 > states_.size() * 7;
    rehash(crowded ? states_.size() * 2 : states_.size());
  }

  void rehash(std::size_t ncap) {
    std::vector<State> ostates = std::move(states_);
    std::vector<Slot> oslots = std::move(slots_);
    states_.assign(ncap, State::kEmpty);
    slots_.clear();
    slots_.resize(ncap);
    size_ = 0;
    used_ = 0;
    const std::size_t mask = ncap - 1;
    for (std::size_t i = 0; i < ostates.size(); ++i) {
      if (ostates[i] != State::kFull) continue;
      std::size_t j = Hash{}(oslots[i].key) & mask;
      while (states_[j] == State::kFull) j = (j + 1) & mask;
      states_[j] = State::kFull;
      slots_[j].key = std::move(oslots[i].key);
      slots_[j].val = std::move(oslots[i].val);
      ++size_;
      ++used_;
    }
  }

  std::vector<State> states_;
  std::vector<Slot> slots_;
  std::size_t size_ = 0;  ///< live entries
  std::size_t used_ = 0;  ///< live entries + tombstones (load-factor input)
};

/// Open-addressing set over the same machinery.
template <class K, class Hash = FlatHash>
class FlatSet {
 public:
  using key_type = K;

  FlatSet() = default;
  explicit FlatSet(std::size_t expected) : map_(expected) {}

  [[nodiscard]] std::size_t size() const noexcept { return map_.size(); }
  [[nodiscard]] bool empty() const noexcept { return map_.empty(); }
  void clear() noexcept { map_.clear(); }
  void reserve(std::size_t n) { map_.reserve(n); }

  /// Returns true if the key was newly inserted.
  template <class KK>
  bool insert(KK&& key) {
    return map_.try_emplace(std::forward<KK>(key)).second;
  }
  [[nodiscard]] bool contains(const K& key) const noexcept {
    return map_.contains(key);
  }
  bool erase(const K& key) noexcept { return map_.erase(key); }

  template <class F>
  void for_each(F&& f) const {
    // FlatSet::for_each forwards to FlatMap::for_each without adding any
    // ordering assumption of its own — callers are the audited sites.
    // detlint: allow(unordered-iter) the primitive the rule polices
    map_.for_each([&f](const K& k, const Empty&) { f(k); });
  }

 private:
  struct Empty {};
  FlatMap<K, Empty, Hash> map_;
};

}  // namespace bdg::util
