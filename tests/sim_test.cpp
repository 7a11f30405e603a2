// Unit tests for the discrete-event kernel: time arithmetic, deterministic
// RNG, event-queue ordering/cancellation, and the simulator's timers.
#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace brisa::sim {
namespace {

TEST(Time, DurationArithmetic) {
  EXPECT_EQ(Duration::seconds(2).us(), 2'000'000);
  EXPECT_EQ(Duration::milliseconds(3).us(), 3'000);
  EXPECT_EQ(Duration::minutes(1), Duration::seconds(60));
  EXPECT_EQ((Duration::seconds(1) + Duration::milliseconds(500)).us(),
            1'500'000);
  EXPECT_EQ((Duration::seconds(1) * 3).us(), 3'000'000);
  EXPECT_EQ((Duration::seconds(3) / 3).us(), 1'000'000);
  EXPECT_LT(Duration::milliseconds(999), Duration::seconds(1));
  EXPECT_DOUBLE_EQ(Duration::milliseconds(1500).to_seconds(), 1.5);
  EXPECT_DOUBLE_EQ(Duration::from_seconds(0.25).to_milliseconds(), 250.0);
}

TEST(Time, FromSecondsRounds) {
  EXPECT_EQ(Duration::from_seconds(1e-6).us(), 1);
  EXPECT_EQ(Duration::from_seconds(0.2).us(), 200'000);
}

TEST(Time, TimePointArithmetic) {
  const TimePoint t0 = TimePoint::origin();
  const TimePoint t1 = t0 + Duration::seconds(5);
  EXPECT_EQ((t1 - t0).us(), 5'000'000);
  EXPECT_LT(t0, t1);
  EXPECT_EQ(t1 - Duration::seconds(5), t0);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, SplitStreamsAreIndependentAndDeterministic) {
  Rng root1(7);
  Rng root2(7);
  Rng a1 = root1.split(1);
  Rng a2 = root2.split(1);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a1.next_u64(), a2.next_u64());
  Rng b = root1.split(2);
  EXPECT_NE(a1.next_u64(), b.next_u64());
}

TEST(Rng, UniformBoundsRespected) {
  Rng rng(99);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
    const std::int64_t v = rng.uniform_range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.uniform_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformCoversRange) {
  Rng rng(3);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10'000; ++i) ++counts[rng.uniform(10)];
  for (const int c : counts) {
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(4);
  double total = 0;
  constexpr int kSamples = 50'000;
  for (int i = 0; i < kSamples; ++i) total += rng.exponential(10.0);
  EXPECT_NEAR(total / kSamples, 10.0, 0.3);
}

TEST(Rng, NormalMoments) {
  Rng rng(5);
  double total = 0, total_sq = 0;
  constexpr int kSamples = 50'000;
  for (int i = 0; i < kSamples; ++i) {
    const double v = rng.normal(3.0, 2.0);
    total += v;
    total_sq += v * v;
  }
  const double mean = total / kSamples;
  const double var = total_sq / kSamples - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(6);
  std::vector<int> items{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> copy = items;
  rng.shuffle(items);
  std::sort(items.begin(), items.end());
  EXPECT_EQ(items, copy);
}

TEST(Rng, SampleDistinct) {
  Rng rng(8);
  const std::vector<int> pool{1, 2, 3, 4, 5};
  const std::vector<int> sample = rng.sample(pool, 3);
  EXPECT_EQ(sample.size(), 3u);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 3u);
  EXPECT_EQ(rng.sample(pool, 10).size(), 5u);  // capped at pool size
}

// Per-host CounterRng streams are pure functions of (base key, host id):
// no draw on one host's stream can perturb another's, so a host samples the
// same latencies and faults however other hosts' traffic interleaves.

TEST(PerHostCounterRng, SameKeyReproducesTheSameStream) {
  CounterRng a = CounterRng::keyed(42, 7);
  CounterRng b = CounterRng::keyed(42, 7);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(PerHostCounterRng, DistinctHostsGetDistinctStreams) {
  CounterRng a = CounterRng::keyed(42, 7);
  CounterRng b = CounterRng::keyed(42, 8);
  // First draws differing is all determinism needs; equality here would
  // mean correlated per-host faults/latencies.
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(PerHostCounterRng, OtherHostsDrawsDoNotPerturbAHost) {
  // Reference: host 3's stream drawn alone.
  std::vector<std::uint64_t> alone;
  {
    CounterRng rng = CounterRng::keyed(99, 3);
    for (int i = 0; i < 32; ++i) alone.push_back(rng.next_u64());
  }
  // Interleaved: hosts 0..7 drawn round-robin, so other hosts advance
  // between each of host 3's draws.
  std::vector<CounterRng> hosts;
  for (std::uint64_t h = 0; h < 8; ++h) {
    hosts.push_back(CounterRng::keyed(99, h));
  }
  std::vector<std::uint64_t> interleaved;
  for (int i = 0; i < 32; ++i) {
    for (std::uint64_t h = 0; h < 8; ++h) {
      const std::uint64_t v = hosts[h].next_u64();
      if (h == 3) interleaved.push_back(v);
    }
  }
  EXPECT_EQ(alone, interleaved);
}

TEST(EventQueue, FifoWithinSameInstant) {
  EventQueue queue;
  std::vector<int> order;
  const TimePoint t = TimePoint::from_us(100);
  queue.schedule(t, [&]() { order.push_back(1); });
  queue.schedule(t, [&]() { order.push_back(2); });
  queue.schedule(t, [&]() { order.push_back(3); });
  while (!queue.empty()) queue.pop().run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TimeOrdering) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(TimePoint::from_us(300), [&]() { order.push_back(3); });
  queue.schedule(TimePoint::from_us(100), [&]() { order.push_back(1); });
  queue.schedule(TimePoint::from_us(200), [&]() { order.push_back(2); });
  while (!queue.empty()) queue.pop().run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue queue;
  bool fired = false;
  const EventId id =
      queue.schedule(TimePoint::from_us(10), [&]() { fired = true; });
  queue.schedule(TimePoint::from_us(20), []() {});
  queue.cancel(id);
  EXPECT_EQ(queue.size(), 1u);
  while (!queue.empty()) queue.pop().run();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelUnknownIdIsNoop) {
  EventQueue queue;
  EXPECT_FALSE(queue.cancel(EventId{12345, 7}));
  EXPECT_FALSE(queue.cancel(kInvalidEventId));
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue queue;
  const EventId early = queue.schedule(TimePoint::from_us(10), []() {});
  queue.schedule(TimePoint::from_us(50), []() {});
  queue.cancel(early);
  EXPECT_EQ(queue.next_time(), TimePoint::from_us(50));
}

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator simulator(1);
  TimePoint observed;
  simulator.after(Duration::milliseconds(5),
                  [&]() { observed = simulator.now(); });
  simulator.run();
  EXPECT_EQ(observed, TimePoint::from_us(5000));
  EXPECT_EQ(simulator.now(), TimePoint::from_us(5000));
}

TEST(Simulator, RunUntilStopsAtLimit) {
  Simulator simulator(1);
  int fired = 0;
  simulator.after(Duration::seconds(1), [&]() { ++fired; });
  simulator.after(Duration::seconds(3), [&]() { ++fired; });
  simulator.run_until(TimePoint::origin() + Duration::seconds(2));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(simulator.now(), TimePoint::origin() + Duration::seconds(2));
  simulator.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator simulator(1);
  std::vector<std::int64_t> times;
  simulator.after(Duration::seconds(1), [&]() {
    times.push_back(simulator.now().us());
    simulator.after(Duration::seconds(1),
                    [&]() { times.push_back(simulator.now().us()); });
  });
  simulator.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0], 1'000'000);
  EXPECT_EQ(times[1], 2'000'000);
}

TEST(Simulator, PeriodicFiresUntilCancelled) {
  Simulator simulator(1);
  int count = 0;
  const PeriodicId handle =
      simulator.every(Duration::seconds(1), [&]() { ++count; });
  EXPECT_TRUE(simulator.periodic_live(handle));
  simulator.run_until(TimePoint::origin() + Duration::seconds(10));
  EXPECT_EQ(count, 10);
  simulator.cancel_periodic(handle);
  EXPECT_FALSE(simulator.periodic_live(handle));
  simulator.run_until(TimePoint::origin() + Duration::seconds(20));
  EXPECT_EQ(count, 10);
  simulator.cancel_periodic(handle);  // double cancel is a no-op
}

TEST(Simulator, CancelPeriodicFromInsideCallback) {
  Simulator simulator(1);
  int count = 0;
  PeriodicId handle;
  handle = simulator.every(Duration::seconds(1), [&]() {
    if (++count == 3) simulator.cancel_periodic(handle);
  });
  simulator.run_until(TimePoint::origin() + Duration::seconds(10));
  EXPECT_EQ(count, 3);
}

TEST(Simulator, SchedulingInPastAborts) {
  Simulator simulator(1);
  simulator.after(Duration::seconds(5), []() {});
  simulator.run();
  EXPECT_DEATH(simulator.at(TimePoint::from_us(1), []() {}),
               "cannot schedule events in the past");
}

TEST(EventQueue, ScheduledTotalMonotoneAcrossSlotReuse) {
  EventQueue queue;
  EXPECT_EQ(queue.scheduled_total(), 0u);
  // Schedule/cancel churn reuses the same slot over and over; the monotone
  // counter must keep counting schedules, not live slots.
  for (std::uint64_t i = 0; i < 100; ++i) {
    const EventId id = queue.schedule(TimePoint::from_us(10), []() {});
    EXPECT_EQ(queue.scheduled_total(), i + 1);
    queue.cancel(id);
    EXPECT_EQ(queue.scheduled_total(), i + 1);
  }
  EXPECT_EQ(queue.cancelled_total(), 100u);
  EXPECT_TRUE(queue.empty());
  // Firing also leaves the counter monotone.
  queue.schedule(TimePoint::from_us(20), []() {});
  queue.pop().run();
  EXPECT_EQ(queue.scheduled_total(), 101u);
}

TEST(Simulator, DeterministicEventCountAcrossRuns) {
  auto run_once = [](std::uint64_t seed) {
    Simulator simulator(seed);
    Rng rng = simulator.rng().split(1);
    for (int i = 0; i < 100; ++i) {
      simulator.after(Duration::microseconds(
                          static_cast<std::int64_t>(rng.uniform(1000)) + 1),
                      []() {});
    }
    simulator.run();
    return simulator.now().us();
  };
  EXPECT_EQ(run_once(42), run_once(42));
  EXPECT_NE(run_once(42), run_once(43));
}

}  // namespace
}  // namespace brisa::sim
