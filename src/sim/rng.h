// Deterministic random number generation.
//
// Two engines share one distribution toolkit (RngMixin, CRTP):
//
//   * Rng — xoshiro256++ seeded through SplitMix64. Sequential streams for
//     setup code and protocol logic; every component derives its own stream
//     with `split()`, so adding randomness to one protocol never perturbs
//     another — a requirement for comparing protocols on identical workloads.
//
//   * CounterRng — a counter-based (stateless-mix) stream keyed by
//     (key, counter). Used for per-host network draws: the stream a host
//     consumes is a pure function of the host's key and how many draws
//     *that host* has made, so one host's traffic never shifts another
//     host's sequence.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numbers>
#include <vector>

#include "util/assert.h"
#include "util/bloom.h"  // for mix64

namespace brisa::sim {

/// Distribution algorithms over any engine exposing next_u64(). CRTP so both
/// engines share one implementation (and one set of determinism-sensitive
/// constants) without virtual dispatch on the hot path.
template <typename Derived>
class RngMixin {
 public:
  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t uniform(std::uint64_t bound) {
    BRISA_ASSERT(bound > 0);
    // Debiased modulo via rejection sampling.
    const std::uint64_t threshold = (-bound) % bound;
    for (;;) {
      const std::uint64_t r = self().next_u64();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_range(std::int64_t lo, std::int64_t hi) {
    BRISA_ASSERT(lo <= hi);
    return lo + static_cast<std::int64_t>(
                    uniform(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  double uniform_double() {
    return static_cast<double>(self().next_u64() >> 11) * 0x1.0p-53;
  }

  bool bernoulli(double p) { return uniform_double() < p; }

  /// Exponential with the given mean (mean = 1/lambda).
  double exponential(double mean) {
    double u = uniform_double();
    if (u <= 0.0) u = 0x1.0p-53;
    return -mean * std::log(u);
  }

  /// Standard normal via Box–Muller (no cached spare: determinism over speed).
  double normal(double mu, double sigma) {
    double u1 = uniform_double();
    if (u1 <= 0.0) u1 = 0x1.0p-53;
    const double u2 = uniform_double();
    const double r = std::sqrt(-2.0 * std::log(u1));
    return mu + sigma * r * std::cos(2.0 * std::numbers::pi * u2);
  }

  /// Log-normal parameterized by the underlying normal's mu/sigma.
  double lognormal(double mu, double sigma) {
    return std::exp(normal(mu, sigma));
  }

  /// Fisher-Yates over any indexable container (std::vector, SmallVec).
  template <typename Container>
  void shuffle(Container& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform(i));
      std::swap(items[i - 1], items[j]);
    }
  }

  /// Uniformly picks one element of a random-access range (std::vector,
  /// FlatSet); the range must be non-empty.
  template <typename Range>
  const auto& pick(const Range& items) {
    BRISA_ASSERT(!items.empty());
    return *(items.begin() +
             static_cast<std::ptrdiff_t>(uniform(items.size())));
  }

  /// pick() over the elements satisfying `keep`, without collecting them:
  /// one draw over the matching count, so it draws exactly what filtering
  /// into a vector and calling pick() did. nullptr (and no draw) when none
  /// match.
  template <typename Range, typename Pred>
  const auto* pick_if(const Range& items, Pred keep) {
    std::size_t matching = 0;
    for (const auto& item : items) {
      if (keep(item)) ++matching;
    }
    const decltype(&*items.begin()) none = nullptr;
    if (matching == 0) return none;
    auto target = uniform(matching);
    for (const auto& item : items) {
      if (keep(item) && target-- == 0) return &item;
    }
    return none;
  }

  /// Samples `count` distinct elements (or all of them if fewer exist).
  template <typename T>
  std::vector<T> sample(const std::vector<T>& items, std::size_t count) {
    std::vector<T> pool;
    sample_into(items, count, pool);
    return pool;
  }

  /// sample() into caller-owned storage, which is overwritten, so a caller
  /// passing an inline SmallVec samples without allocating. The whole pool
  /// is shuffled before truncation: the draws depend only on its size.
  template <typename Range, typename Out>
  void sample_into(const Range& items, std::size_t count, Out& out) {
    out.clear();
    out.reserve(items.size());
    for (const auto& item : items) out.push_back(item);
    shuffle(out);
    while (out.size() > count) out.pop_back();
  }

 private:
  Derived& self() { return *static_cast<Derived*>(this); }
};

class Rng : public RngMixin<Rng> {
 public:
  explicit Rng(std::uint64_t seed) {
    std::uint64_t s = seed;
    for (auto& word : state_) {
      s += 0x9e3779b97f4a7c15ULL;
      word = util::mix64(s);
    }
    // xoshiro must not start from the all-zero state.
    if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
  }

  /// Derives an independent generator; `stream` distinguishes siblings.
  [[nodiscard]] Rng split(std::uint64_t stream) {
    return Rng(util::mix64(next_u64() ^ util::mix64(stream)));
  }

  std::uint64_t next_u64() {
    const std::uint64_t result =
        rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Counter-based stream: output i is mix64(key + C1*i) — SplitMix64 with
/// the stream key as its seed — so the sequence is a pure function of
/// (key, draw index). 16 bytes of state, no warm-up, one mix per draw on
/// the network hot path, and keying a stream per host makes every host's
/// draw sequence independent of every other host's draws.
class CounterRng : public RngMixin<CounterRng> {
 public:
  CounterRng() : CounterRng(0) {}
  explicit CounterRng(std::uint64_t key) : key_(util::mix64(key ^ kPhi)) {}

  /// Deterministic per-entity key derivation (no state consumed): the
  /// canonical way to build one stream per host from a base key.
  [[nodiscard]] static CounterRng keyed(std::uint64_t base,
                                        std::uint64_t entity) {
    return CounterRng(util::mix64(base) ^ util::mix64(entity * kPhi + 1));
  }

  std::uint64_t next_u64() {
    return util::mix64(key_ + counter_++ * kPhi);
  }

  /// Draws made so far (diagnostics; the stream is reproducible from
  /// (key, counter)).
  [[nodiscard]] std::uint64_t counter() const { return counter_; }

 private:
  static constexpr std::uint64_t kPhi = 0x9e3779b97f4a7c15ULL;

  std::uint64_t key_ = 0;
  std::uint64_t counter_ = 0;
};

}  // namespace brisa::sim
