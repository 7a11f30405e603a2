#include "sim/simulator.h"

#include <algorithm>

#include "util/assert.h"
#include "util/logging.h"

namespace brisa::sim {

Simulator::Simulator(std::uint64_t seed) : rng_(seed), lane_seq_(1, 0) {}

void Simulator::set_lookahead(Duration lookahead) {
  BRISA_ASSERT_MSG(lookahead >= Duration::zero(), "negative lookahead");
  BRISA_ASSERT_MSG(active_periodics_ == 0,
                   "set_lookahead must precede periodic timers");
  lookahead_ = lookahead;
  const Duration base =
      lookahead > Duration::zero() ? lookahead : Duration::microseconds(100);
  wheel_width_ = Duration::microseconds(base.us() * 8);
}

// --- Canonical keys ----------------------------------------------------------

EventKey Simulator::make_key(TimePoint when, std::uint32_t lane) {
  const std::uint32_t creator = current_lane_;
  if (creator >= lane_seq_.size()) [[unlikely]] {
    lane_seq_.resize(static_cast<std::size_t>(creator) + 1, 0);
  }
  const std::uint64_t order =
      (static_cast<std::uint64_t>(creator) << kCreatorShift) |
      lane_seq_[creator]++;
  return EventKey{when, lane, order};
}

EventId Simulator::post_callback(std::uint32_t lane, TimePoint when,
                                 Callback fn, GatePredicate gate,
                                 const void* ctx, std::uint32_t arg) {
  BRISA_ASSERT_MSG(when >= now_, "cannot schedule events in the past");
  const EventKey key = make_key(when, lane);
  return gate != nullptr
             ? queue_.schedule_gated(key, gate, ctx, arg, std::move(fn))
             : queue_.schedule(key, std::move(fn));
}

// --- Scheduling API ----------------------------------------------------------

EventId Simulator::at(TimePoint when, Callback fn) {
  return post_callback(0, when, std::move(fn), nullptr, nullptr, 0);
}

EventId Simulator::after(Duration delay, Callback fn) {
  BRISA_ASSERT_MSG(delay >= Duration::zero(), "negative delay");
  return post_callback(0, now_ + delay, std::move(fn), nullptr, nullptr, 0);
}

EventId Simulator::at_gated(TimePoint when, GatePredicate gate,
                            const void* ctx, std::uint32_t arg, Callback fn) {
  return post_callback(0, when, std::move(fn), gate, ctx, arg);
}

EventId Simulator::after_gated(Duration delay, GatePredicate gate,
                               const void* ctx, std::uint32_t arg,
                               Callback fn) {
  BRISA_ASSERT_MSG(delay >= Duration::zero(), "negative delay");
  return post_callback(0, now_ + delay, std::move(fn), gate, ctx, arg);
}

EventId Simulator::at_host(std::uint32_t host, TimePoint when, Callback fn) {
  return post_callback(host + 1, when, std::move(fn), nullptr, nullptr, 0);
}

EventId Simulator::after_host(std::uint32_t host, Duration delay,
                              Callback fn) {
  BRISA_ASSERT_MSG(delay >= Duration::zero(), "negative delay");
  return post_callback(host + 1, now_ + delay, std::move(fn), nullptr,
                       nullptr, 0);
}

EventId Simulator::at_host_gated(std::uint32_t host, TimePoint when,
                                 GatePredicate gate, const void* ctx,
                                 std::uint32_t arg, Callback fn) {
  return post_callback(host + 1, when, std::move(fn), gate, ctx, arg);
}

EventId Simulator::after_host_gated(std::uint32_t host, Duration delay,
                                    GatePredicate gate, const void* ctx,
                                    std::uint32_t arg, Callback fn) {
  BRISA_ASSERT_MSG(delay >= Duration::zero(), "negative delay");
  return post_callback(host + 1, now_ + delay, std::move(fn), gate, ctx, arg);
}

EventId Simulator::at_deliver(TimePoint when, const DeliverEvent& event) {
  BRISA_ASSERT_MSG(when >= now_, "cannot schedule events in the past");
  return queue_.schedule_deliver(make_key(when, event.to + 1), event);
}

void Simulator::cancel(EventId id) { queue_.cancel(id); }

// --- Periodic timers ---------------------------------------------------------

PeriodicId Simulator::acquire_periodic() {
  std::uint32_t slot;
  if (periodic_free_head_ != kNullIndex) {
    slot = periodic_free_head_;
    periodic_free_head_ = periodics_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(periodics_.size());
    BRISA_ASSERT_MSG(slot != kNullIndex, "periodic slab full");
    periodics_.emplace_back();
    // Start at the floor shrink() recorded so PeriodicIds issued before a
    // slab shrink can never alias a slot regrown after it.
    periodics_.back().gen = periodic_gen_floor_;
  }
  Periodic& p = periodics_[slot];
  p.armed = true;
  p.next_free = kNullIndex;
  ++active_periodics_;
  return PeriodicId{slot, p.gen};
}

void Simulator::release_periodic(std::uint32_t slot) {
  Periodic& p = periodics_[slot];
  BRISA_ASSERT(p.armed);
  p.gen = p.gen + 1 == 0 ? 1 : p.gen + 1;
  p.armed = false;
  p.occ_armed = false;
  p.fn.reset();
  p.gate = nullptr;
  p.next_free = periodic_free_head_;
  periodic_free_head_ = slot;
  --active_periodics_;
}

PeriodicId Simulator::start_periodic(std::uint32_t lane, Duration period,
                                     GatePredicate gate, const void* ctx,
                                     std::uint32_t arg, Callback fn) {
  BRISA_ASSERT_MSG(period > Duration::zero(),
                   "periodic timer needs period > 0");
  const PeriodicId id = acquire_periodic();
  Periodic& p = periodics_[id.slot];
  p.period = period;
  p.fn = std::move(fn);
  p.gate = gate;
  p.gate_ctx = ctx;
  p.gate_arg = arg;
  p.lane = lane;
  // The key draw sits exactly where the queue-resident tick drew its key, so
  // the per-lane sequence numbering — and every downstream order — is
  // identical to the old scheme.
  wheel_arm(id.slot, id.gen, lane, make_key(now_ + period, lane));
  return id;
}

PeriodicId Simulator::every(Duration period, Callback fn) {
  return start_periodic(0, period, nullptr, nullptr, 0, std::move(fn));
}

PeriodicId Simulator::every_gated(Duration period, GatePredicate gate,
                                  const void* ctx, std::uint32_t arg,
                                  Callback fn) {
  return start_periodic(0, period, gate, ctx, arg, std::move(fn));
}

PeriodicId Simulator::every_host(std::uint32_t host, Duration period,
                                 Callback fn) {
  return start_periodic(host + 1, period, nullptr, nullptr, 0, std::move(fn));
}

PeriodicId Simulator::every_host_gated(std::uint32_t host, Duration period,
                                       GatePredicate gate, const void* ctx,
                                       std::uint32_t arg, Callback fn) {
  return start_periodic(host + 1, period, gate, ctx, arg, std::move(fn));
}

void Simulator::cancel_periodic(PeriodicId id) {
  if (!periodic_live(id)) return;
  Periodic& p = periodics_[id.slot];
  if (p.occ_armed) {
    // The wheel entry stays behind and decays by generation mismatch; only
    // the counters move, mirroring the old eager queue-cancel.
    p.occ_armed = false;
    --wheel_armed_;
    ++wheel_cancelled_;
  }
  release_periodic(id.slot);
}

bool Simulator::periodic_live(PeriodicId id) const {
  return id.gen != 0 && id.slot < periodics_.size() &&
         periodics_[id.slot].armed && periodics_[id.slot].gen == id.gen;
}

// --- Periodic-tick wheel -----------------------------------------------------

/// (Re)schedules `ci`'s tick at its current front member's exact canonical
/// key, superseding any outstanding tick (generation bump — the stale event
/// decays to a no-op at pop). The front may itself be a cancelled member:
/// dispatch validates and re-aims, so a stale aim costs one invisible pop,
/// never an ordering violation (the live front's key is always later).
void Simulator::wheel_schedule_tick(std::uint32_t ci) {
  WheelCohort& c = wheel_[ci];
  const WheelMember& m = c.members[c.cursor];
  ++c.tick_gen;
  queue_.schedule_tick(EventKey{m.when, m.lane, m.order},
                       TickEvent{ci, c.tick_gen, m.order});
}

void Simulator::wheel_retire(std::uint32_t ci) {
  WheelCohort& c = wheel_[ci];
  wheel_index_.erase(c.win);
  // Free the storage: an every-node batch can pass through any slot, so
  // keeping capacity for the next tenant would hold O(slots x largest
  // batch) instead of O(live members).
  std::vector<WheelMember>().swap(c.members);
  c.cursor = 0;
  // tick_gen is intentionally NOT reset: it stays monotone across slot
  // reuse so a dead tick can never match a later tenant's live one.
  c.in_use = false;
  c.next_free = wheel_free_head_;
  wheel_free_head_ = ci;
}

void Simulator::wheel_arm(std::uint32_t slot, std::uint32_t gen,
                          std::uint32_t lane, const EventKey& key) {
  Periodic& p = periodics_[slot];
  p.occ_armed = true;
  ++wheel_scheduled_;
  ++wheel_armed_;
  wheel_armed_peak_ = std::max(wheel_armed_peak_, wheel_armed_);

  const WheelMember m{key.when, key.order, lane, slot, gen};
  const std::int64_t win = key.when.us() / wheel_width_.us();
  const auto it = wheel_index_.find(win);
  if (it != wheel_index_.end()) {
    // The window already has a cohort: join it at the member's canonical
    // position. Fires proceed in key order and re-arm one period ahead, so
    // same-period re-arms land in ascending order — the append fast path;
    // anything else (mixed periods, a batch armed out of lane order) pays a
    // lower_bound insert that shifts the members after it.
    const std::uint32_t ci = it->second;
    WheelCohort& c = wheel_[ci];
    if (c.members.empty() || member_less(c.members.back(), m)) {
      c.members.push_back(m);
      if (c.cursor + 1 == c.members.size()) wheel_schedule_tick(ci);
      return;
    }
    const auto at = std::lower_bound(
        c.members.begin() + static_cast<std::ptrdiff_t>(c.cursor),
        c.members.end(), m, member_less);
    const bool new_front =
        at == c.members.begin() + static_cast<std::ptrdiff_t>(c.cursor);
    c.members.insert(at, m);
    // An earlier front invalidates the pending tick's aim; re-aim eagerly
    // so the new member cannot fire late.
    if (new_front) wheel_schedule_tick(ci);
    return;
  }
  // First occurrence in this window.
  std::uint32_t ci;
  if (wheel_free_head_ != kNullIndex) {
    ci = wheel_free_head_;
    wheel_free_head_ = wheel_[ci].next_free;
  } else {
    ci = static_cast<std::uint32_t>(wheel_.size());
    wheel_.emplace_back();
  }
  WheelCohort& c = wheel_[ci];
  c.in_use = true;
  c.next_free = kNullIndex;
  c.win = win;
  c.cursor = 0;
  c.members.push_back(m);
  wheel_index_.emplace(win, ci);
  wheel_schedule_tick(ci);
}

void Simulator::fire_wheel_member(const WheelMember& m) {
  Callback fn;
  {
    Periodic& p = periodics_[m.slot];
    BRISA_ASSERT(p.armed && p.gen == m.gen && p.occ_armed);
    p.occ_armed = false;
    --wheel_armed_;
    if (p.gate != nullptr && !p.gate(p.gate_ctx, p.gate_arg)) {
      release_periodic(m.slot);
      return;
    }
    // Run the closure from the stack: it may create or cancel periodic
    // timers, which can grow the slab or retire this very slot.
    fn = std::move(p.fn);
  }
  fn();
  Periodic& p = periodics_[m.slot];
  if (!p.armed || p.gen != m.gen) return;  // cancelled itself inside fn
  if (p.gate != nullptr && !p.gate(p.gate_ctx, p.gate_arg)) {
    release_periodic(m.slot);
    return;
  }
  p.fn = std::move(fn);
  wheel_arm(m.slot, m.gen, p.lane, make_key(now_ + p.period, p.lane));
}

/// Dispatches a popped cohort tick. Returns whether a member actually fired
/// — dead/superseded ticks and pure skims are invisible: no counters, no
/// clock movement, no user code. Exactly one live tick exists per in-use
/// cohort, so this is the only place a cursor advances or a cohort drains.
bool Simulator::wheel_tick(const TickEvent& t) {
  if (t.cohort >= wheel_.size()) return false;  // wheel cleared under it
  {
    WheelCohort& c = wheel_[t.cohort];
    if (!c.in_use || c.tick_gen != t.gen) return false;  // superseded
    // Skim cancelled occurrences (the cancel already counted them).
    while (c.cursor < c.members.size()) {
      const WheelMember& m = c.members[c.cursor];
      if (m.slot < periodics_.size()) {
        const Periodic& p = periodics_[m.slot];
        if (p.armed && p.gen == m.gen && p.occ_armed) break;
      }
      ++c.cursor;
    }
    if (c.cursor == c.members.size()) {
      wheel_retire(t.cohort);  // every remaining member had decayed
      return false;
    }
    if (c.members[c.cursor].order != t.order) {
      // The skim moved the front past the member this tick was aimed at;
      // queue events between the two keys must run first, so re-aim
      // instead of firing early.
      wheel_schedule_tick(t.cohort);
      return false;
    }
  }
  // References are re-taken after the callback: it may arm new timers and
  // grow wheel_ under us.
  const WheelMember m = wheel_[t.cohort].members[wheel_[t.cohort].cursor];
  ++wheel_[t.cohort].cursor;
  current_lane_ = m.lane;
  fire_wheel_member(m);
  WheelCohort& c = wheel_[t.cohort];
  if (c.cursor < c.members.size()) {
    // The next member's key is strictly larger than the one just fired, so
    // interleaved queue events between the two run in canonical order.
    wheel_schedule_tick(t.cohort);
  } else {
    wheel_retire(t.cohort);
  }
  return true;
}

// --- Run loop ----------------------------------------------------------------

std::uint64_t Simulator::run_loop(TimePoint limit, bool drain) {
  std::uint64_t fired_count = 0;
  for (;;) {
    const TimePoint t = queue_.next_time();
    if (t == TimePoint::max() || (!drain && t > limit)) break;
    BRISA_ASSERT_MSG(t >= now_, "event queue went backwards");
    EventQueue::Fired event = queue_.pop();
    if (event.payload.kind() == EventPayload::Kind::kTick) {
      // The clock only moves if the tick fires a member: a decayed tick is
      // as invisible as the cancellation that killed it.
      const TimePoint before = now_;
      now_ = event.time;
      if (wheel_tick(event.payload.tick())) {
        ++fired_count;
      } else {
        now_ = before;
      }
    } else {
      now_ = event.time;
      current_lane_ = event.lane;
      event.run();
      ++fired_count;
    }
  }
  current_lane_ = 0;
  if (!drain && now_ < limit) now_ = limit;
  events_fired_ += fired_count;
  return fired_count;
}

std::uint64_t Simulator::run_until(TimePoint limit) {
  return run_loop(limit, false);
}

std::uint64_t Simulator::run() {
  // Unlike run_until, draining leaves the clock on the last event fired.
  return run_loop(TimePoint::max(), true);
}

void Simulator::clear() {
  queue_.clear();
  for (std::uint32_t slot = 0;
       slot < static_cast<std::uint32_t>(periodics_.size()); ++slot) {
    if (periodics_[slot].armed) release_periodic(slot);
  }
  // Dropped occurrences are not cancels, matching queue_.clear() semantics.
  // Pending ticks died with queue_.clear(), so tick generations may reset.
  wheel_.clear();
  wheel_index_.clear();
  wheel_free_head_ = kNullIndex;
  wheel_armed_ = 0;
}

void Simulator::shrink() {
  queue_.shrink();
  if (queue_.tick_pending() == 0) {
    // Every in-use cohort keeps one live tick pending, so zero pending
    // ticks means no cohorts at all (and no dead ticks that could match a
    // reset generation) — the wheel storage can go entirely.
    std::vector<WheelCohort>().swap(wheel_);
    std::unordered_map<std::int64_t, std::uint32_t, WheelKeyHash>().swap(
        wheel_index_);
    wheel_free_head_ = kNullIndex;
  }
  if (active_periodics_ == 0) {
    // Stale PeriodicIds bounds-check against the (now empty) slab — but
    // slots regrown later would restart at gen 1 and alias old handles.
    // Record the highest generation the old slab reached so regrown slots
    // start strictly above every outstanding stale handle (release bumped
    // each slot past any handle it ever issued).
    for (const Periodic& p : periodics_) {
      periodic_gen_floor_ = std::max(periodic_gen_floor_, p.gen);
    }
    std::vector<Periodic>().swap(periodics_);
    periodic_free_head_ = kNullIndex;
  }
}

std::size_t Simulator::pending_events() const {
  return queue_.size() + wheel_armed_;
}

Simulator::Stats Simulator::stats() const {
  Stats s;
  s.events_fired = events_fired_;
  s.events_scheduled = queue_.scheduled_total() + wheel_scheduled_;
  s.events_cancelled = queue_.cancelled_total() + wheel_cancelled_;
  s.pending_events = queue_.size() + wheel_armed_;
  s.event_slab_slots = queue_.slab_capacity();
  for (const WheelCohort& c : wheel_) {
    s.wheel_member_slots += c.members.capacity();
  }
  s.peak_pending_events = queue_.peak_pending() + wheel_armed_peak_;
  s.active_periodics = active_periodics_;
  s.callback_heap_fallbacks =
      InlineCallback::heap_fallbacks() - heap_fallbacks_at_ctor_;
  return s;
}

ScopedLogClock::ScopedLogClock(const Simulator& simulator) {
  util::Logger::instance().set_time_source(
      [&simulator]() { return simulator.now().us(); });
}

ScopedLogClock::~ScopedLogClock() {
  util::Logger::instance().clear_time_source();
}

}  // namespace brisa::sim
