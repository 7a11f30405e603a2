// The simulated network: host table, NIC serialization, receive-side CPU
// queue, unreliable datagrams, and per-host bandwidth accounting.
//
// Two resources are modeled per host, because both matter for the paper's
// results:
//   * the NIC: outbound messages serialize FIFO at `upload_Bps`
//     (Figs 10-12: bandwidth usage; flood vs tree load);
//   * the CPU: inbound messages queue for a per-message processing cost
//     (Fig 9: on PlanetLab, duplicate-heavy flooding inflates delays because
//     resource-starved nodes pay for every reception).
// Receive-side link contention is intentionally not modeled; at the paper's
// rates the NIC and CPU are the binding resources.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/fault.h"
#include "net/latency.h"
#include "net/limits.h"
#include "net/message.h"
#include "net/node_id.h"
#include "sim/simulator.h"

namespace brisa::net {

struct BandwidthStats {
  // Receive counters first, each direction's pair adjacent: a delivery
  // updates one cache line of its host's record (see Network::Host).
  std::array<std::uint64_t, kTrafficClassCount> down_bytes{};
  std::array<std::uint64_t, kTrafficClassCount> down_messages{};
  std::array<std::uint64_t, kTrafficClassCount> up_bytes{};
  std::array<std::uint64_t, kTrafficClassCount> up_messages{};
  /// Outbound messages eaten by the fault layer at this host: probabilistic
  /// loss (`dropped`) vs partition/crash suppression (`blackholed`).
  std::array<std::uint64_t, kTrafficClassCount> dropped_messages{};
  std::array<std::uint64_t, kTrafficClassCount> blackholed_messages{};

  [[nodiscard]] std::uint64_t total_up_bytes() const {
    std::uint64_t total = 0;
    for (auto b : up_bytes) total += b;
    return total;
  }
  [[nodiscard]] std::uint64_t total_down_bytes() const {
    std::uint64_t total = 0;
    for (auto b : down_bytes) total += b;
    return total;
  }
  [[nodiscard]] std::uint64_t total_dropped() const {
    std::uint64_t total = 0;
    for (auto m : dropped_messages) total += m;
    return total;
  }
  [[nodiscard]] std::uint64_t total_blackholed() const {
    std::uint64_t total = 0;
    for (auto m : blackholed_messages) total += m;
    return total;
  }
  void reset() { *this = BandwidthStats{}; }

  bool operator==(const BandwidthStats&) const = default;
};

/// The simulated network. Datagram deliveries are typed DeliverEvents (no
/// closure, no allocation on the steady-state path); the Network is the sink
/// that interprets them at arrival and CPU-ready time.
class Network : public sim::DeliverEvent::Sink {
 public:
  struct Config {
    /// NIC throughput. Default: 1 Gbps full duplex (the paper's cluster).
    double upload_Bps = 125e6;
    /// Mean per-message receive processing cost (fixed part); 0 with
    /// rx_process_per_kb == 0 disables CPU modeling.
    sim::Duration rx_process_mean = sim::Duration::zero();
    /// Additional processing cost per KB of message body — large payloads
    /// cost proportionally more to parse/copy (dominant on PlanetLab).
    sim::Duration rx_process_per_kb = sim::Duration::zero();
    /// Per-host CPU speed heterogeneity: each host's processing cost is
    /// multiplied by lognormal(0, rx_process_sigma). 0 = homogeneous.
    double rx_process_sigma = 0.0;
    /// Transport-level failure detection (TCP reset / flow-control timeout):
    /// peers of a dead node learn of broken connections after
    /// `failure_detect_base` + Exp(`failure_detect_jitter`).
    sim::Duration failure_detect_base = sim::Duration::milliseconds(200);
    sim::Duration failure_detect_jitter = sim::Duration::milliseconds(100);
    /// Transport retransmission timeout: each loss-rule hit on a reliable
    /// segment delays it by one RTO (and re-charges the sender's NIC).
    sim::Duration retransmit_timeout = sim::Duration::milliseconds(200);
    /// Bandwidth-discipline knobs ([limits] scenario section). The Network
    /// consults only the rate-control fields; defaults keep tx_usage() at
    /// kNormal unconditionally.
    Limits limits;
  };

  /// Presets matching the two testbeds of §III.
  [[nodiscard]] static Config cluster_config();
  [[nodiscard]] static Config planetlab_config();

  Network(sim::Simulator& simulator, std::unique_ptr<LatencyModel> latency);
  Network(sim::Simulator& simulator, std::unique_ptr<LatencyModel> latency,
          Config config);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // --- Host lifecycle -----------------------------------------------------

  /// Adds a host, alive immediately.
  NodeId add_host();

  /// Crash-stop failure: the host stops sending/receiving instantly; peers
  /// learn through transport failure detection.
  void kill(NodeId node);

  /// Fail-recover crash: the host freezes — it neither sends nor receives —
  /// but keeps its protocol state and identity; resume() brings it back.
  /// Distinct from kill(): a suspended host stays alive() (its timers keep
  /// firing into a blocked network, like a machine with its NIC down) but is
  /// not responsive(). No-op on dead or already-suspended hosts.
  void suspend(NodeId node);
  void resume(NodeId node);
  [[nodiscard]] bool suspended(NodeId node) const {
    return known(node) && hosts_[node.index()].is_suspended;
  }
  /// alive and not suspended: can currently send and receive.
  [[nodiscard]] bool responsive(NodeId node) const {
    return known(node) && hosts_[node.index()].alive &&
           !hosts_[node.index()].is_suspended;
  }

  /// Inline: every timer firing and connection-setup step asks it.
  [[nodiscard]] bool alive(NodeId node) const {
    return known(node) && hosts_[node.index()].alive;
  }
  [[nodiscard]] std::size_t host_count() const { return hosts_.size(); }
  [[nodiscard]] std::size_t alive_count() const { return alive_count_; }
  /// Ids of the alive hosts, ascending. The vector is cached and only
  /// rebuilt after a membership change (add_host/kill), so the churn layer
  /// can poll it every tick without a fresh allocation per call. The
  /// reference is invalidated by the next membership change.
  [[nodiscard]] const std::vector<NodeId>& alive_hosts() const;

  class DeathListener {
   public:
    virtual ~DeathListener() = default;
    virtual void on_host_killed(NodeId node) = 0;
    /// Fail-recover events from the fault layer; default no-ops keep
    /// kill-only listeners unchanged.
    virtual void on_host_suspended(NodeId /*node*/) {}
    virtual void on_host_resumed(NodeId /*node*/) {}
    /// A host joined the network (always from a serial phase). Layers that
    /// keep per-host tables (Transport) presize them here, so host-lane
    /// events never grow shared containers.
    virtual void on_host_added(NodeId /*node*/) {}
  };
  void add_death_listener(DeathListener* listener) {
    death_listeners_.push_back(listener);
  }

  // --- Fault injection ------------------------------------------------------

  /// Installs a fault plan (non-owning; nullptr uninstalls). While installed,
  /// every datagram and transport segment consults it; without one the send
  /// path pays a single null check. Installing seeds the dedicated fault RNG
  /// stream, so un-faulted runs reproduce pre-fault-layer behavior exactly.
  void install_fault_plan(const FaultPlan* plan);
  [[nodiscard]] const FaultPlan* fault_plan() const { return fault_plan_; }

  /// Fault decision for one message crossing `from`->`to` now (kDeliver when
  /// no plan is installed). Consumes the fault RNG for active loss rules.
  /// Links touching no rule's node groups short-circuit through the dense
  /// per-host relevance flags built at install time — at sweep scale most
  /// traffic never scans the rule table.
  [[nodiscard]] LinkVerdict fault_verdict(NodeId from, NodeId to);

  /// Applies active slow rules to a sampled flight latency.
  [[nodiscard]] sim::Duration fault_adjust(NodeId from, NodeId to,
                                           sim::Duration flight) const;

  /// Accounting for a message the fault layer ate at `at` (sender side).
  /// `datagram` splits the network-wide totals by path.
  void note_fault(NodeId at, TrafficClass traffic_class, LinkVerdict verdict,
                  bool datagram);

  /// Network-wide fault counters (tests, analysis reports). Link-level
  /// fields are kept per host (bumped on the host's own send/receive path)
  /// and aggregated here on read; suspends/resumes stay global.
  struct FaultTotals {
    std::uint64_t datagrams_dropped = 0;
    std::uint64_t datagrams_blackholed = 0;
    std::uint64_t segments_dropped = 0;  ///< masked as retransmission delay
    std::uint64_t segments_blackholed = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t rx_suppressed = 0;  ///< arrivals at suspended hosts
    std::uint64_t suspends = 0;
    std::uint64_t resumes = 0;

    bool operator==(const FaultTotals&) const = default;
  };
  /// Aggregated by value — O(hosts), report/test cadence only.
  [[nodiscard]] FaultTotals fault_totals() const;
  void note_retransmission(NodeId at) { ++host(at).faults.retransmissions; }
  void note_rx_suppressed(NodeId at) { ++host(at).faults.rx_suppressed; }

  // --- Datagrams ----------------------------------------------------------

  class DatagramHandler {
   public:
    virtual ~DatagramHandler() = default;
    virtual void on_datagram(NodeId from, MessagePtr message) = 0;
  };

  void bind_datagram_handler(NodeId node, DatagramHandler* handler);

  /// Fire-and-forget send; silently dropped if the destination is dead at
  /// arrival (Cyclon-style protocols tolerate this by design).
  void send_datagram(NodeId from, NodeId to, MessagePtr message,
                     TrafficClass traffic_class);

  // --- Resource model (used by Transport and datagrams) -------------------

  /// Serializes `wire_bytes` (+frame overhead) at `from`'s NIC; charges
  /// upload accounting; returns the serialization-completion time.
  sim::TimePoint nic_send(NodeId from, std::size_t wire_bytes,
                          TrafficClass traffic_class);

  /// Charges download accounting at `to`.
  void charge_receive(NodeId to, std::size_t wire_bytes,
                      TrafficClass traffic_class);

  /// Queues inbound processing at `to`'s CPU starting no earlier than
  /// `arrival`; returns the instant the protocol handler should run.
  sim::TimePoint cpu_deliver(NodeId to, sim::TimePoint arrival,
                             std::size_t wire_bytes);

  /// Sampled delay until a peer notices this host's death (transport level).
  /// Drawn from `at`'s stream: the draw happens on that host's lane.
  sim::Duration sample_failure_detect_delay(NodeId at);

  /// One-way flight latency `from` -> `to`: latency-model sample (drawn from
  /// the sender's stream), slow-rule adjustment, and the same cross-host
  /// lookahead floor as send_datagram. Used by the transport for reliable
  /// segments.
  [[nodiscard]] sim::Duration sample_flight(NodeId from, NodeId to);

  // --- Adaptive rate control (sender-side congestion signal) ---------------

  /// Classifies `node`'s own send-side pressure from its NIC + CPU backlog
  /// (free_at minus now) against the configured thresholds — the goog_cc
  /// BandwidthUsage shape. Always kNormal when limits.rate_control is off.
  [[nodiscard]] BandwidthUsage tx_usage(NodeId node) const;

  /// AIMD gate for optional traffic (anti-entropy rounds, pulls, gap
  /// probes): true = defer this round. Overuse halves the sender's
  /// optional-traffic gain (floor 16/256) and always defers; once the
  /// backlog clears, a matching fraction of rounds keeps being deferred
  /// until sustained underuse ramps the gain back up by one additive step
  /// per limits.rate_recovery period. At full gain — and always when rate
  /// control is off — it is a single branch returning false, so protocol
  /// timers can gate on it unconditionally without perturbing outputs.
  [[nodiscard]] bool tx_defer(NodeId node);

  /// Current AIMD gain for `node` in Q8 fixed point (256 = full rate);
  /// instrumentation for tests and reports.
  [[nodiscard]] std::uint32_t tx_rate_gain(NodeId node) const {
    return host(node).aimd_gain;
  }

  /// Peak backlog instrumentation (always tracked; it only feeds reports):
  /// the largest NIC serialization queue and receive-CPU queue observed at
  /// any host since construction / the last reset_stats(). Tracked per host
  /// (the hot paths run on host lanes) and max-reduced on read.
  [[nodiscard]] sim::Duration peak_nic_backlog() const;
  [[nodiscard]] sim::Duration peak_cpu_backlog() const;

  // --- Accessors ----------------------------------------------------------

  [[nodiscard]] sim::Simulator& simulator() { return simulator_; }
  [[nodiscard]] LatencyModel& latency() { return *latency_; }
  [[nodiscard]] const Config& config() const { return config_; }

  [[nodiscard]] BandwidthStats& stats(NodeId node);
  [[nodiscard]] const BandwidthStats& stats(NodeId node) const;
  /// Zeroes all per-host counters (phase boundaries in Fig 12).
  void reset_stats();

  /// Messages that finished NIC serialization, network-wide (tests).
  /// Summed over the per-host counters; unlike stats(), not cleared by
  /// reset_stats().
  [[nodiscard]] std::uint64_t messages_sent() const;

 private:
  /// The transport is the reliable-segment half of this resource model: its
  /// per-segment send and delivery paths resolve a Host once (find_host),
  /// read its alive/is_suspended flags and call the *_host variants below.
  friend class Transport;

  /// Delivery stages encoded in DeliverEvent::tag.
  enum DatagramStage : std::uint16_t {
    kDatagramArrival = 0,   ///< left the wire; charge receive, queue CPU
    kDatagramCpuReady = 1,  ///< processing done; hand to the protocol
  };

  // sim::DeliverEvent::Sink
  void on_deliver(const sim::DeliverEvent& event) override;

  /// Per-host state. Everything mutated on the steady-state send/receive
  /// paths lives here, because those paths execute on the host's lane.
  /// Membership flags (alive/is_suspended) are written only from global-lane
  /// events and merely read from host lanes.
  ///
  /// Cache-line aligned, hottest first: the first line holds everything a
  /// send or a delivery touches except the traffic counters, and the
  /// receive counters open the second line.
  struct alignas(64) Host {
    bool alive = true;
    bool is_suspended = false;
    sim::TimePoint nic_free_at = sim::TimePoint::origin();
    sim::TimePoint cpu_free_at = sim::TimePoint::origin();
    double cpu_cost_factor = 1.0;
    /// Lane-local draw stream (latency jitter as sender, rx cost as
    /// receiver, failure-detect jitter): a pure function of (key, #draws
    /// this host made), so partition-independent.
    sim::CounterRng rng;
    sim::Duration peak_nic_backlog = sim::Duration::zero();
    sim::Duration peak_cpu_backlog = sim::Duration::zero();
    BandwidthStats stats;
    /// Messages counted by stats.up_messages before the last reset_stats(),
    /// so messages_sent() survives resets without a third counter to bump
    /// on every send.
    std::uint64_t messages_sent_before_reset = 0;
    DatagramHandler* datagram_handler = nullptr;
    /// Lane-local fault dice (loss rules roll on the sender's lane).
    /// Keyed only while a fault plan is installed.
    sim::CounterRng fault_rng;
    /// This host's share of the link-level FaultTotals fields.
    FaultTotals faults;
    /// AIMD optional-traffic gate (tx_defer): Q8 send gain (256 = full
    /// rate), token-bucket credit, and the start of the current sustained
    /// -underuse streak (TimePoint::max() = no streak in progress).
    std::uint32_t aimd_gain = 256;
    std::uint32_t aimd_credit = 0;
    sim::TimePoint aimd_underuse_since = sim::TimePoint::max();
  };

  Host& host(NodeId node);
  const Host& host(NodeId node) const;
  [[nodiscard]] bool known(NodeId node) const {
    return node.valid() && node.index() < hosts_.size();
  }
  /// nullptr for an id this network never added.
  [[nodiscard]] Host* find_host(NodeId node) {
    return known(node) ? &hosts_[node.index()] : nullptr;
  }

  /// Hot-path variants of the resource model taking an already-resolved
  /// Host&: send/deliver does one bounds-checked table lookup, not four.
  sim::TimePoint nic_send_host(Host& h, std::size_t wire_bytes,
                               TrafficClass traffic_class);
  void charge_receive_host(Host& h, std::size_t wire_bytes,
                           TrafficClass traffic_class);
  sim::TimePoint cpu_deliver_host(Host& h, sim::TimePoint arrival,
                                  std::size_t wire_bytes);
  /// sample_flight with the sender's record already resolved.
  [[nodiscard]] sim::Duration sample_flight_host(Host& sender, NodeId from,
                                                 NodeId to);

  /// Which fault-rule node groups mention a host: or-ed kFault* bits. A link
  /// whose endpoints carry no bits cannot match any rule, so the hot path
  /// skips the rule scan (and, for loss rules, provably consumes no RNG —
  /// non-matching rules never rolled the dice either).
  enum FaultFlag : std::uint8_t {
    kFaultPartition = 1,
    kFaultLoss = 2,
    kFaultSlow = 4,
  };
  [[nodiscard]] std::uint8_t compute_fault_flags(std::uint32_t index) const;
  void rebuild_fault_flags();

  sim::Simulator& simulator_;
  std::unique_ptr<LatencyModel> latency_;
  Config config_;
  /// Setup-only stream (cpu cost factors, key derivation). Never drawn from
  /// a host lane — hot-path draws use the per-host CounterRng streams.
  sim::Rng rng_;
  /// Base key of the per-host draw streams, derived once at construction.
  std::uint64_t host_key_base_ = 0;
  /// Base key of the per-host fault streams; drawn at install_fault_plan
  /// time so runs without a plan reproduce pre-fault-layer behavior.
  std::uint64_t fault_key_base_ = 0;
  const FaultPlan* fault_plan_ = nullptr;
  std::vector<Host> hosts_;
  /// Indexed by host; rebuilt at install_fault_plan, extended by add_host.
  std::vector<std::uint8_t> fault_flags_;
  std::size_t alive_count_ = 0;
  std::size_t suspended_count_ = 0;
  /// Serial-phase fault-plan lifecycle counts (see FaultTotals).
  std::uint64_t suspends_ = 0;
  std::uint64_t resumes_ = 0;
  std::vector<DeathListener*> death_listeners_;
  /// alive_hosts() cache; invalidated by add_host/kill.
  mutable std::vector<NodeId> alive_cache_;
  mutable bool alive_cache_valid_ = false;
};

}  // namespace brisa::net
