#include "util/rng.h"

namespace bdg {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
  // Avoid the all-zero state (splitmix makes it astronomically unlikely,
  // but the generator would be stuck forever).
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next() noexcept { return next_inline(s_); }

std::uint64_t Rng::below(std::uint64_t bound) noexcept {
  return below_inline(s_, bound);
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(below(span));
}

bool Rng::chance(std::uint64_t num, std::uint64_t den) noexcept {
  return below(den) < num;
}

double Rng::uniform() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

Rng Rng::fork() noexcept { return Rng(next()); }

}  // namespace bdg
