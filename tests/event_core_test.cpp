// Regression tests for the slab-backed event core and the message arena:
// bounded memory under schedule/cancel churn (the old lazy-tombstone queue
// grew without bound), generation-tagged handle safety across slot reuse,
// typed delivery ownership, periodic-timer determinism, the periodic
// wheel's fire order and storage bound, and message-pool recycling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "net/message.h"
#include "net/message_pool.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"

namespace brisa::sim {
namespace {

TEST(EventCore, CancelChurnDoesNotGrowMemory) {
  EventQueue queue;
  // One live event at a time, churned 200k times: the slab must stay at a
  // couple of slots, not accumulate a tombstone per cancelled event.
  for (std::int64_t i = 0; i < 200'000; ++i) {
    const EventId id =
        queue.schedule(TimePoint::from_us(1'000'000 + i), []() {});
    ASSERT_TRUE(queue.cancel(id));
  }
  EXPECT_TRUE(queue.empty());
  EXPECT_LE(queue.slab_capacity(), 4u);
  EXPECT_EQ(queue.scheduled_total(), 200'000u);
  EXPECT_EQ(queue.cancelled_total(), 200'000u);
}

TEST(EventCore, FailureDetectorChurnBoundedByLiveSet) {
  // The failure-detection pattern: n armed timers, each repeatedly
  // disarmed and re-armed. Slab capacity must track n, not total churn.
  constexpr std::size_t kTimers = 512;
  EventQueue queue;
  Rng rng(3);
  std::vector<EventId> ids(kTimers);
  for (std::size_t i = 0; i < kTimers; ++i) {
    ids[i] = queue.schedule(
        TimePoint::from_us(1 + static_cast<std::int64_t>(rng.uniform(1000))),
        []() {});
  }
  for (int round = 0; round < 10'000; ++round) {
    const std::size_t j = rng.uniform(kTimers);
    queue.cancel(ids[j]);
    ids[j] = queue.schedule(
        TimePoint::from_us(1 + static_cast<std::int64_t>(rng.uniform(1000))),
        []() {});
  }
  EXPECT_EQ(queue.size(), kTimers);
  EXPECT_LE(queue.slab_capacity(), kTimers + 1);
  EXPECT_EQ(queue.peak_pending(), kTimers);
}

TEST(EventCore, StaleHandleAfterSlotReuseIsHarmless) {
  EventQueue queue;
  const EventId first = queue.schedule(TimePoint::from_us(10), []() {});
  ASSERT_TRUE(queue.cancel(first));
  // The slot is recycled by the next schedule; the stale handle must not
  // be able to cancel the new occupant.
  bool fired = false;
  const EventId second =
      queue.schedule(TimePoint::from_us(20), [&]() { fired = true; });
  EXPECT_EQ(second.slot, first.slot);
  EXPECT_NE(second.gen, first.gen);
  EXPECT_FALSE(queue.cancel(first));
  EXPECT_FALSE(queue.live(first));
  EXPECT_TRUE(queue.live(second));
  queue.pop().run();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(queue.live(second));  // fired ids are no longer live
}

TEST(EventCore, GatedCallbackSkippedWhenGateFails) {
  EventQueue queue;
  static bool gate_open;
  gate_open = true;
  const auto gate = [](const void*, std::uint32_t) { return gate_open; };
  int fired = 0;
  queue.schedule_gated(TimePoint::from_us(1), gate, nullptr, 0,
                       [&]() { ++fired; });
  queue.schedule_gated(TimePoint::from_us(2), gate, nullptr, 0,
                       [&]() { ++fired; });
  queue.pop().run();
  EXPECT_EQ(fired, 1);
  gate_open = false;
  queue.pop().run();
  EXPECT_EQ(fired, 1);
}

class CountingSink : public DeliverEvent::Sink {
 public:
  void on_deliver(const DeliverEvent& event) override {
    ++delivered;
    last_token = event.token;
  }
  int delivered = 0;
  void* last_token = nullptr;
};

/// drop_token target: counts releases into the int the token points at.
void count_drop(void* token) { ++*static_cast<int*>(token); }

TEST(EventCore, DeliverEventOwnershipExactlyOnce) {
  EventQueue queue;
  CountingSink sink;
  int drops_a = 0, drops_b = 0, drops_c = 0;

  DeliverEvent event;
  event.sink = &sink;
  event.drop_token = &count_drop;

  event.token = &drops_a;
  queue.schedule_deliver(TimePoint::from_us(1), event);
  event.token = &drops_b;
  const EventId cancelled = queue.schedule_deliver(TimePoint::from_us(2), event);
  event.token = &drops_c;
  queue.schedule_deliver(TimePoint::from_us(3), event);

  queue.cancel(cancelled);
  EXPECT_EQ(drops_b, 1);  // cancel released its token

  queue.pop().run();
  EXPECT_EQ(sink.delivered, 1);
  EXPECT_EQ(sink.last_token, &drops_a);
  EXPECT_EQ(drops_a, 0);  // fired events hand the token to the sink instead

  queue.clear();  // released without firing
  EXPECT_EQ(drops_c, 1);
  EXPECT_EQ(sink.delivered, 1);
}

TEST(EventCore, PendingDeliveriesReleasedAtQueueDestructionWithoutSink) {
  // Harnesses destroy the network (the sink) before the simulator; pending
  // deliveries must release their tokens without touching the sink object.
  int drops = 0;
  {
    EventQueue queue;
    DeliverEvent event;
    event.sink = reinterpret_cast<DeliverEvent::Sink*>(0x1);  // dead sink
    event.token = &drops;
    event.drop_token = &count_drop;
    queue.schedule_deliver(TimePoint::from_us(1), event);
  }
  EXPECT_EQ(drops, 1);
}

TEST(EventCore, PeriodicDeterministicAcrossSeeds) {
  const auto run_once = [](std::uint64_t seed) {
    Simulator simulator(seed);
    Rng rng = simulator.rng().split(17);
    std::uint64_t checksum = 0;
    simulator.every(Duration::milliseconds(10), [&]() {
      checksum = checksum * 31 +
                 static_cast<std::uint64_t>(simulator.now().us());
      // Periodic work racing one-shot timers, as protocols do.
      simulator.after(
          Duration::microseconds(
              static_cast<std::int64_t>(rng.uniform(5'000)) + 1),
          [&]() { checksum ^= rng.next_u64(); });
    });
    simulator.run_until(TimePoint::origin() + Duration::seconds(1));
    return std::pair{checksum, simulator.events_fired()};
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7).first, run_once(8).first);
}

TEST(EventCore, PeriodicSlotReuseKeepsStaleHandlesInert) {
  Simulator simulator(1);
  int first_count = 0, second_count = 0;
  const PeriodicId first =
      simulator.every(Duration::seconds(1), [&]() { ++first_count; });
  simulator.cancel_periodic(first);
  const PeriodicId second =
      simulator.every(Duration::seconds(1), [&]() { ++second_count; });
  EXPECT_EQ(second.slot, first.slot);  // slot recycled
  simulator.cancel_periodic(first);    // stale: must not kill `second`
  simulator.run_until(TimePoint::origin() + Duration::seconds(3));
  EXPECT_EQ(first_count, 0);
  EXPECT_EQ(second_count, 3);
}

// ABA regression, periodic flavor: a PeriodicId issued before
// Simulator::shrink() dropped the periodic slab must stay inert after the
// slab regrows. Without the per-queue generation floor, the regrown slot
// restarts at gen 1 — the stale handle's generation — and the stale
// cancel_periodic would kill the fresh timer.
TEST(EventCore, ShrinkThenRearmKeepsStalePeriodicIdsInert) {
  Simulator simulator(1);
  int stale_count = 0;
  const PeriodicId stale =
      simulator.every(Duration::seconds(1), [&]() { ++stale_count; });
  simulator.run_until(TimePoint::origin() + Duration::seconds(2));
  simulator.cancel_periodic(stale);
  // Drain the cohort's dead tick so shrink() can take the full path.
  simulator.run_until(TimePoint::origin() + Duration::seconds(4));
  simulator.shrink();
  EXPECT_FALSE(simulator.periodic_live(stale));
  simulator.cancel_periodic(stale);  // bounds-checks against the empty slab

  int fresh_count = 0;
  const PeriodicId fresh =
      simulator.every(Duration::seconds(1), [&]() { ++fresh_count; });
  ASSERT_EQ(fresh.slot, stale.slot) << "slot not regrown, test is vacuous";
  EXPECT_GT(fresh.gen, stale.gen);
  EXPECT_TRUE(simulator.periodic_live(fresh));
  simulator.cancel_periodic(stale);  // stale: must not kill `fresh`
  EXPECT_TRUE(simulator.periodic_live(fresh));
  // The rearmed cohort actually fires.
  simulator.run_until(TimePoint::origin() + Duration::seconds(7));
  EXPECT_EQ(stale_count, 2);
  EXPECT_EQ(fresh_count, 3);
}

TEST(EventCore, ClearRetiresPeriodics) {
  Simulator simulator(1);
  int count = 0;
  const PeriodicId id =
      simulator.every(Duration::seconds(1), [&]() { ++count; });
  simulator.clear();
  EXPECT_FALSE(simulator.periodic_live(id));
  simulator.run_until(TimePoint::origin() + Duration::seconds(5));
  EXPECT_EQ(count, 0);
  EXPECT_EQ(simulator.stats().active_periodics, 0u);
}

TEST(EventCore, SimulatorStatsCounters) {
  Simulator simulator(1);
  const EventId keep = simulator.after(Duration::seconds(2), []() {});
  static_cast<void>(keep);
  const EventId gone = simulator.after(Duration::seconds(3), []() {});
  simulator.after(Duration::seconds(1), []() {});
  simulator.cancel(gone);
  simulator.run_until(TimePoint::origin() + Duration::seconds(1));
  const Simulator::Stats stats = simulator.stats();
  EXPECT_EQ(stats.events_scheduled, 3u);
  EXPECT_EQ(stats.events_cancelled, 1u);
  EXPECT_EQ(stats.events_fired, 1u);
  EXPECT_EQ(stats.pending_events, 1u);
  EXPECT_GE(stats.peak_pending_events, 2u);
}

// --- Periodic wheel: randomized fire order and storage bound ----------------

/// A seeded workload over the periodic wheel: an every-node batch armed at
/// one instant on shuffled lanes (every arm after the first lands behind
/// the cohort's run), staggered timers with mixed periods, gated timers
/// whose host dies, cancels from outside and from inside callbacks
/// (including a timer cancelling itself), re-arms, and one-shots aimed at
/// the same instants as periodic fires. Every fire is logged as
/// (now, lane, timer id) and checked against the canonical order.
class WheelScript {
 public:
  explicit WheelScript(std::uint64_t seed) : sim_(seed), rng_(seed ^ 0x77) {}

  struct Result {
    std::uint64_t digest = 0;
    std::size_t fires = 0;
    Simulator::Stats stats;
  };

  Result run() {
    constexpr std::uint32_t kHosts = 48;
    alive_.assign(kHosts, 1);
    // The every-node batch: one 10 ms timer per host, armed at t = 0 in
    // shuffled host order, plus two on the global lane.
    std::vector<std::uint32_t> hosts(kHosts);
    for (std::uint32_t h = 0; h < kHosts; ++h) hosts[h] = h;
    rng_.shuffle(hosts);
    for (const std::uint32_t h : hosts) {
      arm(h + 1, Duration::milliseconds(10), /*gated=*/h % 7 == 3);
    }
    arm(0, Duration::milliseconds(10), false);
    arm(0, Duration::milliseconds(10), false);
    // Staggered timers with mixed periods, armed from one-shots.
    for (int i = 0; i < 40; ++i) {
      const auto lane = static_cast<std::uint32_t>(rng_.uniform(kHosts + 1));
      const Duration delay = Duration::microseconds(
          1 + static_cast<std::int64_t>(rng_.uniform(20'000)));
      const Duration period = random_period();
      one_shot(lane, delay, [this, lane, period]() {
        arm(lane, period, false);
      });
    }
    const TimePoint end = TimePoint::origin() + Duration::seconds(2);
    for (TimePoint t = TimePoint::origin(); t < end;) {
      t = t + Duration::milliseconds(5);
      sim_.run_until(t);
      // Outside the run loop: cancels, re-arms, host deaths.
      const std::uint64_t dice = rng_.uniform(100);
      if (dice < 30) {
        cancel_random();
      } else if (dice < 55) {
        arm(static_cast<std::uint32_t>(rng_.uniform(kHosts + 1)),
            random_period(), rng_.uniform(4) == 0);
      } else if (dice < 58) {
        // A host dies: its gated timers retire at their next due instant
        // without firing.
        const auto host = static_cast<std::uint32_t>(rng_.uniform(kHosts));
        alive_[host] = 0;
        for (Timer& timer : timers_) {
          if (timer.gated && timer.lane == host + 1) timer.dead = true;
        }
      }
    }
    // Every live timer fired at start + k * period for k = 1..now.
    for (const Timer& timer : timers_) {
      if (timer.dead) continue;
      const std::int64_t due = (end - timer.start).us() / timer.period.us();
      EXPECT_EQ(timer.fires, static_cast<std::uint64_t>(due))
          << "timer " << (&timer - timers_.data());
      EXPECT_TRUE(sim_.periodic_live(timer.handle));
    }
    return {digest_, fires_, sim_.stats()};
  }

 private:
  struct Timer {
    PeriodicId handle;
    std::uint32_t lane = 0;
    Duration period;
    TimePoint start;
    std::uint64_t fires = 0;
    bool gated = false;
    bool dead = false;  ///< cancelled, or gated on a dead host
  };

  static bool host_alive(const void* ctx, std::uint32_t host) {
    return static_cast<const WheelScript*>(ctx)->alive_[host] != 0;
  }

  Duration random_period() {
    static constexpr std::int64_t kPeriodsUs[] = {1'000, 3'000, 7'000,
                                                  10'000, 13'000};
    if (rng_.uniform(3) == 0) {
      return Duration::microseconds(
          500 + static_cast<std::int64_t>(rng_.uniform(19'500)));
    }
    return Duration::microseconds(kPeriodsUs[rng_.uniform(5)]);
  }

  void arm(std::uint32_t lane, Duration period, bool gated) {
    const auto id = static_cast<std::uint32_t>(timers_.size());
    gated = gated && lane != 0;
    timers_.push_back(Timer{kInvalidPeriodicId, lane, period, sim_.now(), 0,
                            gated, gated && alive_[lane - 1] == 0});
    auto fn = [this, id]() { on_fire(id); };
    PeriodicId handle;
    if (lane == 0) {
      handle = sim_.every(period, fn);
    } else if (timers_[id].gated) {
      handle = sim_.every_host_gated(lane - 1, period, &host_alive, this,
                                     lane - 1, fn);
    } else {
      handle = sim_.every_host(lane - 1, period, fn);
    }
    timers_[id].handle = handle;
  }

  template <typename Fn>
  void one_shot(std::uint32_t lane, Duration delay, Fn fn) {
    const std::uint32_t id = kOneShotBase + one_shots_++;
    auto logged = [this, lane, id, fn]() {
      record(lane, id);
      fn();
    };
    if (lane == 0) {
      sim_.after(delay, logged);
    } else {
      sim_.after_host(lane - 1, delay, logged);
    }
  }

  void cancel(std::uint32_t id) {
    Timer& timer = timers_[id];
    if (timer.dead) return;
    timer.dead = true;
    sim_.cancel_periodic(timer.handle);
    EXPECT_FALSE(sim_.periodic_live(timer.handle));
  }

  void cancel_random() {
    if (!timers_.empty()) {
      cancel(static_cast<std::uint32_t>(rng_.uniform(timers_.size())));
    }
  }

  void on_fire(std::uint32_t id) {
    {
      Timer& timer = timers_[id];
      EXPECT_FALSE(timer.dead) << "cancelled timer " << id << " fired";
      ++timer.fires;
      EXPECT_EQ(sim_.now(), timer.start + Duration::microseconds(
                                              timer.period.us() *
                                              static_cast<std::int64_t>(
                                                  timer.fires)))
          << "timer " << id << " fire " << timer.fires;
      record(timer.lane, id);
    }
    const std::uint64_t dice = rng_.uniform(1000);
    if (dice < 15) {
      cancel(id);  // cancels itself from inside its own callback
    } else if (dice < 35) {
      cancel_random();
    } else if (dice < 60) {
      // A one-shot at the instant of this timer's next fire, on a random
      // lane: it must interleave by lane with that fire.
      const auto lane = static_cast<std::uint32_t>(rng_.uniform(49));
      one_shot(lane, timers_[id].period, [this]() {
        if (rng_.uniform(3) == 0) cancel_random();
      });
    } else if (dice < 75) {
      const auto lane = static_cast<std::uint32_t>(rng_.uniform(49));
      const Duration delay = Duration::microseconds(
          1 + static_cast<std::int64_t>(rng_.uniform(5'000)));
      const Duration period = random_period();
      one_shot(lane, delay, [this, lane, period]() {
        arm(lane, period, false);
      });
    }
  }

  void record(std::uint32_t lane, std::uint32_t id) {
    const std::tuple<std::int64_t, std::uint32_t> at{sim_.now().us(), lane};
    EXPECT_LE(last_, at) << "fire out of (time, lane) order, id " << id;
    last_ = at;
    for (const std::uint64_t word :
         {static_cast<std::uint64_t>(sim_.now().us()),
          static_cast<std::uint64_t>(lane), static_cast<std::uint64_t>(id)}) {
      for (int byte = 0; byte < 8; ++byte) {
        digest_ ^= (word >> (8 * byte)) & 0xff;
        digest_ *= 0x100000001b3ull;  // FNV-1a
      }
    }
    ++fires_;
  }

  static constexpr std::uint32_t kOneShotBase = 1'000'000;

  Simulator sim_;
  Rng rng_;
  std::vector<Timer> timers_;
  std::vector<std::uint8_t> alive_;
  std::uint32_t one_shots_ = 0;
  std::tuple<std::int64_t, std::uint32_t> last_{0, 0};
  std::uint64_t digest_ = 0xcbf29ce484222325ull;
  std::size_t fires_ = 0;
};

// The digest and counters below pin the canonical fire order of the
// script; any change to how cohorts order, skim or retire members that
// reorders a fire changes them.
TEST(PeriodicWheel, RandomizedFireOrderMatchesGolden) {
  const WheelScript::Result result = WheelScript(2024).run();
  EXPECT_EQ(result.digest, 0xdcd5013917d06fd1ull);
  EXPECT_EQ(result.fires, 15979u);
  EXPECT_EQ(result.stats.events_fired, 15983u);
  EXPECT_EQ(result.stats.events_scheduled, 16178u);
  EXPECT_EQ(result.stats.events_cancelled, 147u);
  EXPECT_EQ(result.stats.pending_events, 48u);
  EXPECT_EQ(result.stats.peak_pending_events, 123u);
  EXPECT_EQ(result.stats.event_slab_slots, 46u);
  EXPECT_EQ(result.stats.active_periodics, 46u);
}

TEST(PeriodicWheel, StorageTracksLiveTimers) {
  // An every-node batch (1,000 timers due at one instant) plus 200
  // staggered timers with mixed periods, over 300 batch periods. Retired
  // cohorts must not keep their storage for the next tenant, or the
  // batch's capacity spreads through every recycled cohort slot.
  Simulator simulator(5);
  Rng rng(9);
  const Duration period = Duration::milliseconds(10);
  for (std::uint32_t h = 0; h < 1'000; ++h) {
    simulator.every_host(h, period, []() {});
  }
  for (std::uint32_t i = 0; i < 200; ++i) {
    const Duration offset = Duration::microseconds(
        1 + static_cast<std::int64_t>(rng.uniform(10'000)));
    const Duration own = Duration::microseconds(
        2'000 + static_cast<std::int64_t>(rng.uniform(18'000)));
    simulator.after(offset, [&simulator, i, own]() {
      simulator.every_host(1'000 + i, own, []() {});
    });
  }
  std::size_t peak_slots = 0;
  for (int step = 1; step <= 300; ++step) {
    simulator.run_until(TimePoint::origin() + period * step +
                        Duration::microseconds(step * 37 % 10'000));
    const Simulator::Stats stats = simulator.stats();
    ASSERT_EQ(stats.active_periodics, 1'200u);
    peak_slots = std::max(peak_slots, stats.wheel_member_slots);
  }
  EXPECT_GE(peak_slots, 1'000u);  // the batch is actually held
  EXPECT_LE(peak_slots, 3u * 1'200u);
}

TEST(EventCore, LargeClosuresFallBackToHeapAndStillRun) {
  const std::uint64_t before = InlineCallback::heap_fallbacks();
  struct Big {
    unsigned char bytes[2 * InlineCallback::kInlineBytes] = {};
  };
  Big big;
  big.bytes[0] = 42;
  int seen = 0;
  InlineCallback cb([big, &seen]() { seen = big.bytes[0]; });
  EXPECT_EQ(InlineCallback::heap_fallbacks(), before + 1);
  cb();
  EXPECT_EQ(seen, 42);

  // Small closures stay inline.
  InlineCallback small([&seen]() { seen = 7; });
  EXPECT_EQ(InlineCallback::heap_fallbacks(), before + 1);
  small();
  EXPECT_EQ(seen, 7);
}

}  // namespace
}  // namespace brisa::sim

namespace brisa::net {
namespace {

class PoolProbe final : public Message {
 public:
  explicit PoolProbe(int value) : value_(value) {}
  [[nodiscard]] MessageKind kind() const override {
    return MessageKind::kTestPing;
  }
  [[nodiscard]] std::size_t wire_size() const override { return 8; }
  [[nodiscard]] const char* name() const override { return "pool-probe"; }
  [[nodiscard]] int value() const { return value_; }

 private:
  int value_;
};

TEST(MessagePool, RecyclesStorageAcrossMessages) {
  const MessagePoolStats before = message_pool_stats();
  const Message* first_addr = nullptr;
  {
    const MessagePtr m = make_message<PoolProbe>(1);
    first_addr = m.get();
    EXPECT_EQ(static_cast<const PoolProbe&>(*m).value(), 1);
  }
  // The block went back to the pool; the next message of the same type
  // reuses it instead of hitting the allocator.
  {
    const MessagePtr m = make_message<PoolProbe>(2);
    EXPECT_EQ(m.get(), first_addr);
    EXPECT_EQ(static_cast<const PoolProbe&>(*m).value(), 2);
  }
  const MessagePoolStats after = message_pool_stats();
  EXPECT_EQ(after.allocated - before.allocated, 1u);
  EXPECT_GE(after.reused - before.reused, 1u);
  EXPECT_EQ(after.recycled - before.recycled, 2u);
}

TEST(MessagePool, SharedReferencesKeepMessageAlive) {
  const MessagePoolStats before = message_pool_stats();
  MessagePtr a = make_message<PoolProbe>(9);
  MessagePtr b = a;            // fan-out shares the object
  const MessagePtr c = std::move(a);
  EXPECT_EQ(a, nullptr);
  a = nullptr;                 // releasing a moved-from ref is a no-op
  EXPECT_EQ(static_cast<const PoolProbe&>(*b).value(), 9);
  b = nullptr;
  EXPECT_EQ(message_pool_stats().recycled, before.recycled);  // c still holds
  EXPECT_EQ(static_cast<const PoolProbe&>(*c).value(), 9);
}

TEST(MessagePool, DetachAttachRoundTrip) {
  MessagePtr m = make_message<PoolProbe>(5);
  const Message* raw = m.detach();
  EXPECT_EQ(m, nullptr);
  const MessagePtr back = MessageRef::attach(raw);
  EXPECT_EQ(static_cast<const PoolProbe&>(*back).value(), 5);
}

}  // namespace
}  // namespace brisa::net
