#pragma once
// Deterministic, seedable pseudo-random number generation for the whole
// library. All randomness (graph generation, adversary choices, placements)
// flows through bdg::Rng so that every experiment is reproducible from a
// single 64-bit seed.
#include <array>
#include <cstdint>
#include <vector>

namespace bdg {

/// xoshiro256** generator, seeded via splitmix64. Deterministic across
/// platforms (unlike std::mt19937 distributions, whose mapping is
/// implementation-defined for std::uniform_int_distribution).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept;

  /// Uniform 64-bit value.
  [[nodiscard]] std::uint64_t next() noexcept;

  /// Uniform value in [0, bound). Requires bound > 0.
  [[nodiscard]] std::uint64_t below(std::uint64_t bound) noexcept;

  /// Uniform value in [lo, hi] inclusive. Requires lo <= hi.
  [[nodiscard]] std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept;

  /// Bernoulli trial with probability num/den. Requires den > 0.
  [[nodiscard]] bool chance(std::uint64_t num, std::uint64_t den) noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept;

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Derive an independent child generator (for per-robot adversary state).
  [[nodiscard]] Rng fork() noexcept;

  /// The generator's state: four xoshiro256** words. Hot replay loops
  /// (sim::Ctx::ambient_walk) copy them into a local, step the local with
  /// the inline bodies below and write it back, so the words stay in
  /// registers. The fused chance-walk path there also advances a second
  /// copy one draw ahead and keeps it or not by a mask: on a clear
  /// chance(1, 2) bit the port draw is one more next() (ports paired,
  /// degree >= 1), so the stream alone decides each step's draw count.
  using Words = std::array<std::uint64_t, 4>;
  [[nodiscard]] static Words& words(Rng& rng) noexcept { return rng.s_; }

  /// The bodies of next() and below() over bare words, inline for those
  /// loops; every other caller uses the out-of-line members, which wrap
  /// these. Static, taking the words, so detlint sees each call on an
  /// rng-named argument as a draw.
  [[nodiscard]] static std::uint64_t next_inline(Words& s) noexcept {
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
  }
  [[nodiscard]] static std::uint64_t below_inline(
      Words& s, std::uint64_t bound) noexcept {
    // Lemire-style rejection for unbiased bounded values: a draw whose low
    // product word falls below 2^64 mod bound is redrawn (never for a
    // power-of-two bound, whose threshold is 0).
    std::uint64_t x = next_inline(s);
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (lo < threshold) {
        x = next_inline(s);
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  Words s_;
};

}  // namespace bdg
