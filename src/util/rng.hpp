#pragma once

// Deterministic pseudo-random number generation.
//
// Every stochastic component of the library (graph generators, abort
// injection, backoff jitter, workload shuffling) draws from an explicitly
// seeded Rng so that simulations are bit-reproducible across runs and
// machines. The generator is xoshiro256**, seeded via splitmix64.

#include <cstdint>
#include <limits>

#include "util/blob.hpp"
#include "util/check.hpp"

namespace aam::util {

/// splitmix64 step; used for seeding and cheap hashing.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Stateless 64-bit mix, handy for hashing ids into streams.
constexpr std::uint64_t mix64(std::uint64_t x) {
  std::uint64_t s = x;
  return splitmix64(s);
}

/// xoshiro256** by Blackman & Vigna. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit constexpr Rng(std::uint64_t seed = 0x2545f4914f6cdd1dULL) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). Lemire's multiply-shift rejection.
  constexpr std::uint64_t next_below(std::uint64_t bound) {
    AAM_DCHECK(bound > 0);
    // Debiased multiply-shift; the rejection loop is effectively never taken
    // for the bounds used in this library.
    while (true) {
      const std::uint64_t x = (*this)();
      const unsigned __int128 m =
          static_cast<unsigned __int128>(x) * static_cast<unsigned __int128>(bound);
      const std::uint64_t low = static_cast<std::uint64_t>(m);
      if (low >= bound || low >= (0 - bound) % bound) {
        return static_cast<std::uint64_t>(m >> 64);
      }
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  constexpr std::uint64_t next_range(std::uint64_t lo, std::uint64_t hi) {
    AAM_DCHECK(lo <= hi);
    return lo + next_below(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  constexpr double next_double() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// The integer form of a comparison with next_double(): for
  /// t = double_threshold(p), the double a draw x yields exceeds p exactly
  /// when double_above(x, t), so `double_above(rng(), t)` draws like
  /// `rng.next_double() > p` with no conversion. next_double() is
  /// (x >> 11)·2^-53, and scaling by a power of two is exact, so
  /// x >> 11 > p·2^53 compares the same reals, and an integer exceeds
  /// p·2^53 exactly when it exceeds its floor.
  static constexpr std::uint64_t double_threshold(double p) {
    AAM_CHECK_MSG(p >= 0.0 && p <= 1.0, "threshold outside [0, 1]");
    return static_cast<std::uint64_t>(p * 0x1.0p53);
  }
  static constexpr bool double_above(std::uint64_t x, std::uint64_t t) {
    return (x >> 11) > t;
  }

  /// Bernoulli trial with probability p.
  constexpr bool next_bool(double p) { return next_double() < p; }

  /// Fork an independent stream keyed by `key` (e.g. a thread id); the
  /// child stream is decorrelated from the parent and from other keys.
  constexpr Rng fork(std::uint64_t key) const {
    return Rng(mix64(state_[0] ^ mix64(key ^ 0x5bf03635d1f2b0e9ULL)));
  }

  /// Checkpoint support: the stream position is the four state words.
  /// Restoring them replays the exact draw sequence from that point.
  void durable(BlobIo& io) { io(state_); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4] = {};
};

}  // namespace aam::util
