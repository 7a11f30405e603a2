// The discrete-event simulator: a virtual clock driving one event queue on
// one thread.
//
// Determinism is the property every experiment in the paper reproduction
// depends on: same seed, same bytes. Every event carries a canonical key
// (see EventKey) — fire time, destination lane (0 is the global/control
// lane, h+1 is host h), and a creator-scoped sequence number drawn from the
// creating lane's own counter — and the queue fires events in key order, so
// equal-time ties break the same way on every run. See DESIGN.md §6.
//
// Periodic timers are slab-allocated and batched into a cohort wheel: each
// armed occurrence is one 32-byte member of the cohort for its due window —
// every timer due in the same window shares one cohort, so a million
// keep-alive timers cost thousands of cohorts instead of a million pending
// events. Each cohort is represented in the event queue by exactly
// ONE tick event, scheduled at the cohort's front-member canonical key;
// popping the tick fires one member and re-aims at the next member, or
// retires the drained cohort — one O(log n) operation on a heap that holds
// a tick per occupied window, not an entry per timer.
// Ordering therefore comes from the queue itself, so results stay
// byte-identical to the queue-resident scheme (DESIGN.md §14).
// The handle returned by every() is a generation-tagged value — stale
// handles are harmless, and cancellation is O(1) validation; the armed
// occurrence decays lazily in its cohort.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace brisa::sim {

/// Generation-tagged handle to a periodic timer (value type; see EventId).
struct PeriodicId {
  std::uint32_t slot = 0;
  std::uint32_t gen = 0;

  [[nodiscard]] constexpr bool valid() const { return gen != 0; }

  constexpr auto operator<=>(const PeriodicId&) const = default;
};

inline constexpr PeriodicId kInvalidPeriodicId{};

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Root RNG; components should `split()` their own stream from it. Drawn
  /// from setup code and global-lane events; host-lane code draws from
  /// per-host CounterRng streams instead (see net::Network), so one host's
  /// draws never shift another host's sequence.
  [[nodiscard]] Rng& rng() { return rng_; }

  /// Minimum cross-host interaction latency. The network floors cross-host
  /// flight times at it and the transport delays cross-host notices by it,
  /// so it is part of a run's configuration (changing it changes results).
  /// Also sizes the periodic wheel's cohort windows (8 lookaheads; a pure
  /// grouping width that never changes event order). Must precede periodic
  /// timers.
  void set_lookahead(Duration lookahead);
  [[nodiscard]] Duration lookahead() const { return lookahead_; }

  /// Releases empty event-queue slabs, wheel storage, and retired periodic
  /// slabs back to the allocator (between sweep cells; see
  /// EventQueue::shrink). Live state is never dropped.
  void shrink();

  // --- Global-lane scheduling ----------------------------------------------

  /// Schedules a callback at an absolute virtual time (must be >= now).
  EventId at(TimePoint when, Callback fn);

  /// Schedules a callback `delay` after the current time.
  EventId after(Duration delay, Callback fn);

  /// Gated variants: `gate` is evaluated at fire time and a false result
  /// skips the callback. Protocol timers use this for "host still alive?"
  /// without wrapping the closure (see net::Process).
  EventId at_gated(TimePoint when, GatePredicate gate, const void* ctx,
                   std::uint32_t arg, Callback fn);
  EventId after_gated(Duration delay, GatePredicate gate, const void* ctx,
                      std::uint32_t arg, Callback fn);

  /// Schedules a repeating callback every `period`, first firing at
  /// now + period. The returned handle cancels the whole timer when passed
  /// to `cancel_periodic` (including from inside the callback itself).
  PeriodicId every(Duration period, Callback fn);

  /// Gated periodic timer: a failing gate permanently retires the timer
  /// (a dead host's timers disappear rather than ticking forever).
  PeriodicId every_gated(Duration period, GatePredicate gate, const void* ctx,
                         std::uint32_t arg, Callback fn);

  // --- Host-lane scheduling --------------------------------------------------
  // The event runs on host `host`'s lane: at equal times it orders after
  // global-lane events and after lower-numbered hosts' events.

  EventId at_host(std::uint32_t host, TimePoint when, Callback fn);
  EventId after_host(std::uint32_t host, Duration delay, Callback fn);
  EventId at_host_gated(std::uint32_t host, TimePoint when, GatePredicate gate,
                        const void* ctx, std::uint32_t arg, Callback fn);
  EventId after_host_gated(std::uint32_t host, Duration delay,
                           GatePredicate gate, const void* ctx,
                           std::uint32_t arg, Callback fn);
  PeriodicId every_host(std::uint32_t host, Duration period, Callback fn);
  PeriodicId every_host_gated(std::uint32_t host, Duration period,
                              GatePredicate gate, const void* ctx,
                              std::uint32_t arg, Callback fn);

  /// Schedules a typed network delivery on the destination host's lane
  /// (event.to routes it).
  EventId at_deliver(TimePoint when, const DeliverEvent& event);

  /// Cancels a periodic timer. Stale or invalid handles are a no-op.
  void cancel_periodic(PeriodicId id);

  /// True while the periodic timer behind `id` is still armed.
  [[nodiscard]] bool periodic_live(PeriodicId id) const;

  void cancel(EventId id);

  /// Runs every event due at or before `limit`; the clock then ends at
  /// `limit`. Returns number of events fired.
  std::uint64_t run_until(TimePoint limit);

  /// Runs until the queue drains completely.
  std::uint64_t run();

  /// Drops every pending event and periodic timer (used between experiment
  /// phases).
  void clear();

  [[nodiscard]] std::uint64_t events_fired() const { return events_fired_; }
  [[nodiscard]] std::size_t pending_events() const;

  /// Event-core counters for benchmarks and experiment reports. Cheap to
  /// collect; all counters are monotone except the instantaneous gauges.
  struct Stats {
    std::uint64_t events_fired = 0;
    std::uint64_t events_scheduled = 0;   ///< monotone across slot reuse
    std::uint64_t events_cancelled = 0;
    /// Closures too big to inline since this simulator was constructed
    /// (delta of the thread-wide InlineCallback counter).
    std::uint64_t callback_heap_fallbacks = 0;
    std::size_t pending_events = 0;       ///< gauge
    std::size_t event_slab_slots = 0;     ///< gauge: peak concurrent footprint
    /// Gauge: member entries the periodic wheel's cohorts hold storage for
    /// (capacity, not live members; bounded by the live set plus the
    /// fired prefix of open cohorts).
    std::size_t wheel_member_slots = 0;
    std::size_t peak_pending_events = 0;
    std::size_t active_periodics = 0;     ///< gauge

    /// Determinism goldens compare whole runs' counters.
    bool operator==(const Stats&) const = default;
  };
  [[nodiscard]] Stats stats() const;

 private:
  static constexpr std::uint32_t kNullIndex = 0xffffffff;
  static constexpr std::uint32_t kCreatorShift = 40;  ///< order layout

  struct Periodic {
    Duration period;
    Callback fn;
    GatePredicate gate = nullptr;
    const void* gate_ctx = nullptr;
    std::uint32_t gate_arg = 0;
    std::uint32_t lane = 0;
    std::uint32_t gen = 1;
    std::uint32_t next_free = kNullIndex;
    bool armed = false;
    /// An occurrence of this timer sits in the wheel (false while the
    /// callback itself runs, mirroring the old in-flight tick). Cancelling
    /// leaves the wheel entry behind to decay by generation mismatch.
    bool occ_armed = false;
  };

  // --- Periodic-tick wheel ---------------------------------------------------
  // One cohort per occupied time window: timer occurrences due within the
  // same `wheel_width_`-wide slice of simulated time share one cohort,
  // regardless of interval or exact phase. Each member carries its own
  // exact canonical key (when, lane, order); the batch is kept sorted in
  // that order, so draining a cohort front-to-back IS queue order. The
  // cohort's queue presence is one kTick event aimed at the front member's
  // exact key; a popped tick fires one member, then reschedules at the next
  // member's key (strictly larger — interleaved queue events run in
  // canonical order by construction) or retires the cohort when drained.
  // Retirement frees the members, so wheel storage tracks the live set
  // rather than the largest batch a recycled slot ever held.
  // The pending-event set thus holds one entry per occupied window instead
  // of one per timer, which is what keeps a 100k-host fleet's queue — and
  // its slab — cache-resident. Window width only groups; it can never
  // change ordering, so any width yields byte-identical runs. Cancelled
  // occurrences go stale in place (generation mismatch) and are skimmed —
  // invisibly — at tick dispatch; a skim that moves the front reschedules
  // the tick instead of firing early (the tick's pinned member order
  // detects it).

  struct WheelMember {
    TimePoint when;           ///< exact due instant
    std::uint64_t order = 0;  ///< EventKey::order drawn at arm time
    std::uint32_t lane = 0;
    std::uint32_t slot = 0;   ///< periodic slab slot
    std::uint32_t gen = 0;    ///< slab generation at arm time
  };

  struct WheelCohort {
    std::int64_t win = 0;  ///< index key: floor(front due / wheel_width_)
    std::vector<WheelMember> members;  ///< sorted by key; live from cursor
    std::size_t cursor = 0;
    /// Generation of the cohort's live tick. Rescheduling bumps it, so a
    /// superseded tick decays to a no-op at pop; it survives retirement
    /// (monotone across slot reuse) so a dead tick can never match a new
    /// tenant's live one.
    std::uint32_t tick_gen = 0;
    std::uint32_t next_free = kNullIndex;
    bool in_use = false;
  };

  /// Hash for the window-index key (a window ordinal).
  struct WheelKeyHash {
    std::size_t operator()(std::int64_t k) const {
      const std::uint64_t x =
          static_cast<std::uint64_t>(k) * 0x9E3779B97F4A7C15ull;
      return static_cast<std::size_t>(x ^ (x >> 32));
    }
  };

  /// Canonical EventKey order over members.
  static constexpr bool member_less(const WheelMember& a,
                                    const WheelMember& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.lane != b.lane ? a.lane < b.lane : a.order < b.order;
  }

  EventKey make_key(TimePoint when, std::uint32_t lane);
  EventId post_callback(std::uint32_t lane, TimePoint when, Callback fn,
                        GatePredicate gate, const void* ctx,
                        std::uint32_t arg);
  PeriodicId start_periodic(std::uint32_t lane, Duration period,
                            GatePredicate gate, const void* ctx,
                            std::uint32_t arg, Callback fn);

  PeriodicId acquire_periodic();
  void release_periodic(std::uint32_t slot);

  void wheel_arm(std::uint32_t slot, std::uint32_t gen, std::uint32_t lane,
                 const EventKey& key);
  bool wheel_tick(const TickEvent& tick);
  void wheel_schedule_tick(std::uint32_t ci);
  void fire_wheel_member(const WheelMember& m);
  void wheel_retire(std::uint32_t ci);

  std::uint64_t run_loop(TimePoint limit, bool drain);

  EventQueue queue_;
  TimePoint now_ = TimePoint::origin();
  Rng rng_;
  Duration lookahead_ = Duration::zero();
  /// Periodic-wheel cohort window: 8 lookaheads (8 x 100us until a positive
  /// lookahead is set). Wide enough that a cohort batches many timers, narrow
  /// enough that its member vector stays small and cache-hot.
  Duration wheel_width_ = Duration::microseconds(800);

  /// Creator lane of the event being dispatched.
  std::uint32_t current_lane_ = 0;
  /// Per-creator-lane sequence numbers for EventKey::order. A lane's counter
  /// advances only when an event running on that lane schedules another.
  std::vector<std::uint64_t> lane_seq_;

  // Periodic-timer slab.
  std::vector<Periodic> periodics_;
  std::uint32_t periodic_free_head_ = kNullIndex;
  std::size_t active_periodics_ = 0;
  /// Starting generation for slots grown after shrink() dropped the slab:
  /// the highest generation the discarded slab reached, so stale
  /// PeriodicIds can never alias a regrown slot (mirrors
  /// EventQueue::gen_floor_).
  std::uint32_t periodic_gen_floor_ = 1;

  // Tick wheel for periodic occurrences, indexed by occupied window ordinal.
  std::vector<WheelCohort> wheel_;
  std::unordered_map<std::int64_t, std::uint32_t, WheelKeyHash> wheel_index_;
  std::uint32_t wheel_free_head_ = kNullIndex;
  std::size_t wheel_armed_ = 0;  ///< armed occurrences (gauge)
  std::size_t wheel_armed_peak_ = 0;
  // Monotone mirrors of what the queue's scheduled/cancelled counters
  // recorded when occurrences were queue events, so Stats stay comparable.
  std::uint64_t wheel_scheduled_ = 0;
  std::uint64_t wheel_cancelled_ = 0;

  std::uint64_t events_fired_ = 0;
  std::uint64_t heap_fallbacks_at_ctor_ = InlineCallback::heap_fallbacks();
};

/// RAII guard that points the global logger at a simulator's clock.
class ScopedLogClock {
 public:
  explicit ScopedLogClock(const Simulator& simulator);
  ~ScopedLogClock();
  ScopedLogClock(const ScopedLogClock&) = delete;
  ScopedLogClock& operator=(const ScopedLogClock&) = delete;
};

}  // namespace brisa::sim
