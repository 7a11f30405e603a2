#include "net/network.h"

#include <algorithm>
#include <cmath>

#include "util/assert.h"
#include "util/logging.h"

namespace brisa::net {

Network::Config Network::cluster_config() {
  Config config;
  config.upload_Bps = 125e6;  // 1 Gbps
  config.rx_process_mean = sim::Duration::microseconds(30);
  config.rx_process_per_kb = sim::Duration::microseconds(50);
  config.rx_process_sigma = 0.2;
  config.failure_detect_base = sim::Duration::milliseconds(150);
  config.failure_detect_jitter = sim::Duration::milliseconds(75);
  return config;
}

Network::Config Network::planetlab_config() {
  Config config;
  // PlanetLab slivers see a small share of a 100 Mbps uplink.
  config.upload_Bps = 2.5e6;  // 20 Mbps
  // Resource-starved nodes: the paper's prototype runs on Splay/Lua on
  // heavily shared machines, so parsing a payload costs milliseconds per
  // KB while small control messages stay cheap. Duplicate-heavy flooding
  // therefore queues visibly at the slower nodes (Fig 9's "heavy load"),
  // without drowning keep-alives.
  config.rx_process_mean = sim::Duration::milliseconds(1);
  config.rx_process_per_kb = sim::Duration::milliseconds(15);
  config.rx_process_sigma = 0.8;
  config.failure_detect_base = sim::Duration::milliseconds(400);
  config.failure_detect_jitter = sim::Duration::milliseconds(250);
  return config;
}

Network::Network(sim::Simulator& simulator,
                 std::unique_ptr<LatencyModel> latency)
    : Network(simulator, std::move(latency), Config{}) {}

Network::Network(sim::Simulator& simulator,
                 std::unique_ptr<LatencyModel> latency, Config config)
    : simulator_(simulator),
      latency_(std::move(latency)),
      config_(config),
      rng_(simulator.rng().split(0x4e7f00d)),
      host_key_base_(rng_.split(0x4057).next_u64()) {
  BRISA_ASSERT(latency_ != nullptr);
  BRISA_ASSERT(config_.upload_Bps > 0);
}

NodeId Network::add_host() {
  Host h;
  // A host created mid-run starts with idle NIC/CPU *now*, not at origin.
  h.nic_free_at = simulator_.now();
  h.cpu_free_at = simulator_.now();
  if (config_.rx_process_sigma > 0.0) {
    h.cpu_cost_factor = rng_.lognormal(0.0, config_.rx_process_sigma);
  }
  const auto index = static_cast<std::uint32_t>(hosts_.size());
  h.rng = sim::CounterRng::keyed(host_key_base_, index);
  if (fault_plan_ != nullptr) {
    h.fault_rng = sim::CounterRng::keyed(fault_key_base_, index);
  }
  hosts_.push_back(std::move(h));
  ++alive_count_;
  alive_cache_valid_ = false;
  if (fault_plan_ != nullptr) {
    fault_flags_.push_back(compute_fault_flags(index));
  }
  const NodeId node(index);
  for (DeathListener* listener : death_listeners_) {
    listener->on_host_added(node);
  }
  return node;
}

void Network::kill(NodeId node) {
  Host& h = host(node);
  if (!h.alive) return;
  h.alive = false;
  alive_cache_valid_ = false;
  if (h.is_suspended) {
    h.is_suspended = false;
    --suspended_count_;
  }
  --alive_count_;
  BRISA_DEBUG("net") << node << " killed";
  for (DeathListener* listener : death_listeners_) {
    listener->on_host_killed(node);
  }
}

void Network::suspend(NodeId node) {
  Host& h = host(node);
  if (!h.alive || h.is_suspended) return;
  h.is_suspended = true;
  ++suspended_count_;
  ++suspends_;
  BRISA_DEBUG("net") << node << " suspended";
  for (DeathListener* listener : death_listeners_) {
    listener->on_host_suspended(node);
  }
}

void Network::resume(NodeId node) {
  Host& h = host(node);
  if (!h.alive || !h.is_suspended) return;
  h.is_suspended = false;
  --suspended_count_;
  ++resumes_;
  BRISA_DEBUG("net") << node << " resumed";
  for (DeathListener* listener : death_listeners_) {
    listener->on_host_resumed(node);
  }
}

void Network::install_fault_plan(const FaultPlan* plan) {
  fault_plan_ = plan;
  if (plan != nullptr) {
    // Key every host's fault stream only now: runs without a plan never
    // consume this draw, so they reproduce pre-fault-layer behavior.
    fault_key_base_ = rng_.split(0xFA017).next_u64();
    for (std::uint32_t i = 0; i < hosts_.size(); ++i) {
      hosts_[i].fault_rng = sim::CounterRng::keyed(fault_key_base_, i);
    }
  }
  rebuild_fault_flags();
}

std::uint8_t Network::compute_fault_flags(std::uint32_t index) const {
  const NodeId node(index);
  std::uint8_t flags = 0;
  for (const PartitionRule& rule : fault_plan_->partitions()) {
    if (rule.a.contains(node) || rule.b.contains(node)) {
      flags |= kFaultPartition;
      break;
    }
  }
  for (const LossRule& rule : fault_plan_->losses()) {
    if (rule.a.contains(node) || rule.b.contains(node)) {
      flags |= kFaultLoss;
      break;
    }
  }
  for (const SlowRule& rule : fault_plan_->slows()) {
    if (rule.a.contains(node) || rule.b.contains(node)) {
      flags |= kFaultSlow;
      break;
    }
  }
  return flags;
}

void Network::rebuild_fault_flags() {
  if (fault_plan_ == nullptr) {
    fault_flags_.clear();
    return;
  }
  fault_flags_.resize(hosts_.size());
  for (std::uint32_t i = 0; i < fault_flags_.size(); ++i) {
    fault_flags_[i] = compute_fault_flags(i);
  }
}

LinkVerdict Network::fault_verdict(NodeId from, NodeId to) {
  if (fault_plan_ == nullptr) return LinkVerdict::kDeliver;
  // A rule matches a link only when both endpoints sit in its (symmetric)
  // group pair, so a link where neither endpoint carries a partition/loss
  // bit cannot be hit — skip the scan. Matching is time-window-agnostic
  // here (conservative): windows are still checked by link_verdict.
  const std::uint8_t flags =
      fault_flags_[from.index()] & fault_flags_[to.index()];
  if ((flags & (kFaultPartition | kFaultLoss)) == 0) {
    return LinkVerdict::kDeliver;
  }
  // Loss dice roll on the *sender's* stream: the verdict is computed from
  // the sender's lane, and per-host streams keep the draw partition-free.
  return fault_plan_->link_verdict(simulator_.now(), from, to,
                                   hosts_[from.index()].fault_rng);
}

sim::Duration Network::fault_adjust(NodeId from, NodeId to,
                                    sim::Duration flight) const {
  if (fault_plan_ == nullptr) return flight;
  if ((fault_flags_[from.index()] & fault_flags_[to.index()] & kFaultSlow) ==
      0) {
    return flight;
  }
  const double factor =
      fault_plan_->latency_factor(simulator_.now(), from, to);
  if (factor == 1.0) return flight;
  return sim::Duration::microseconds(
      static_cast<std::int64_t>(static_cast<double>(flight.us()) * factor));
}

void Network::note_fault(NodeId at, TrafficClass traffic_class,
                         LinkVerdict verdict, bool datagram) {
  const auto tc = static_cast<std::size_t>(traffic_class);
  Host& h = host(at);
  if (verdict == LinkVerdict::kDrop) {
    h.stats.dropped_messages[tc] += 1;
    ++(datagram ? h.faults.datagrams_dropped : h.faults.segments_dropped);
  } else if (verdict == LinkVerdict::kBlackhole) {
    h.stats.blackholed_messages[tc] += 1;
    ++(datagram ? h.faults.datagrams_blackholed
                : h.faults.segments_blackholed);
  }
}

Network::FaultTotals Network::fault_totals() const {
  FaultTotals totals;
  for (const Host& h : hosts_) {
    totals.datagrams_dropped += h.faults.datagrams_dropped;
    totals.datagrams_blackholed += h.faults.datagrams_blackholed;
    totals.segments_dropped += h.faults.segments_dropped;
    totals.segments_blackholed += h.faults.segments_blackholed;
    totals.retransmissions += h.faults.retransmissions;
    totals.rx_suppressed += h.faults.rx_suppressed;
  }
  totals.suspends = suspends_;
  totals.resumes = resumes_;
  return totals;
}

const std::vector<NodeId>& Network::alive_hosts() const {
  if (!alive_cache_valid_) {
    alive_cache_.clear();
    alive_cache_.reserve(alive_count_);
    for (std::size_t i = 0; i < hosts_.size(); ++i) {
      if (hosts_[i].alive) {
        alive_cache_.emplace_back(static_cast<std::uint32_t>(i));
      }
    }
    alive_cache_valid_ = true;
  }
  return alive_cache_;
}

void Network::bind_datagram_handler(NodeId node, DatagramHandler* handler) {
  host(node).datagram_handler = handler;
}

void Network::send_datagram(NodeId from, NodeId to, MessagePtr message,
                            TrafficClass traffic_class) {
  BRISA_ASSERT(message != nullptr);
  if (!from.valid() || from.index() >= hosts_.size()) return;
  if (!hosts_[from.index()].alive) return;
  if (suspended_count_ > 0 && hosts_[from.index()].is_suspended) [[unlikely]] {
    // Frozen host: timer-driven sends go nowhere, without NIC charge.
    note_fault(from, traffic_class, LinkVerdict::kBlackhole, /*datagram=*/true);
    return;
  }
  Host& sender = hosts_[from.index()];
  const std::size_t wire_bytes = message->wire_size();
  const sim::TimePoint serialized =
      nic_send_host(sender, wire_bytes, traffic_class);
  sim::Duration flight = latency_->sample(from, to, sender.rng);
  if (fault_plan_ != nullptr) [[unlikely]] {
    // The packet left the sender (NIC charged above); loss happens in the
    // network.
    const LinkVerdict verdict = fault_verdict(from, to);
    if (verdict != LinkVerdict::kDeliver) {
      note_fault(from, traffic_class, verdict, /*datagram=*/true);
      return;
    }
    flight = fault_adjust(from, to, flight);
  }
  // Cross-host flight may never undercut the lookahead (the latency models
  // guarantee min_flight() >= lookahead, so this floor is a no-op for the
  // testbed's settings).
  if (from != to && flight < simulator_.lookahead()) [[unlikely]] {
    flight = simulator_.lookahead();
  }
  const sim::TimePoint arrival = serialized + flight;
  sim::DeliverEvent event;
  event.sink = this;
  event.token = const_cast<void*>(static_cast<const void*>(message.detach()));
  event.drop_token = &release_message_token;
  event.from = from.index();
  event.to = to.index();
  event.bytes = static_cast<std::uint32_t>(wire_bytes);
  event.tag = kDatagramArrival;
  event.tclass = static_cast<std::uint16_t>(traffic_class);
  simulator_.at_deliver(arrival, event);
}

void Network::on_deliver(const sim::DeliverEvent& event) {
  MessagePtr message =
      MessageRef::attach(static_cast<const Message*>(event.token));
  const NodeId from(event.from);
  if (event.to >= hosts_.size()) return;
  Host& h = hosts_[event.to];
  if (!h.alive) return;
  if (h.is_suspended) [[unlikely]] {
    ++h.faults.rx_suppressed;
    return;
  }
  if (h.datagram_handler == nullptr) return;
  if (event.tag == kDatagramArrival) {
    charge_receive_host(h, event.bytes,
                        static_cast<TrafficClass>(event.tclass));
    const sim::TimePoint ready =
        cpu_deliver_host(h, simulator_.now(), event.bytes);
    if (ready == simulator_.now()) {
      h.datagram_handler->on_datagram(from, std::move(message));
    } else {
      sim::DeliverEvent next = event;
      next.tag = kDatagramCpuReady;
      next.token = const_cast<void*>(
          static_cast<const void*>(message.detach()));
      simulator_.at_deliver(ready, next);
    }
    return;
  }
  h.datagram_handler->on_datagram(from, std::move(message));
}


sim::TimePoint Network::nic_send(NodeId from, std::size_t wire_bytes,
                                 TrafficClass traffic_class) {
  return nic_send_host(host(from), wire_bytes, traffic_class);
}

sim::TimePoint Network::nic_send_host(Host& h, std::size_t wire_bytes,
                                      TrafficClass traffic_class) {
  BRISA_ASSERT_MSG(h.alive, "dead host attempted to send");
  const std::size_t total_bytes = wire_bytes + kFrameOverheadBytes;
  const auto serialize_us = static_cast<std::int64_t>(
      std::ceil(static_cast<double>(total_bytes) * 1e6 / config_.upload_Bps));
  const sim::TimePoint start =
      std::max(simulator_.now(), h.nic_free_at);
  const sim::TimePoint done =
      start + sim::Duration::microseconds(serialize_us);
  h.nic_free_at = done;
  const sim::Duration backlog = done - simulator_.now();
  if (backlog > h.peak_nic_backlog) h.peak_nic_backlog = backlog;
  const auto tc = static_cast<std::size_t>(traffic_class);
  h.stats.up_bytes[tc] += total_bytes;
  h.stats.up_messages[tc] += 1;
  return done;
}

void Network::charge_receive(NodeId to, std::size_t wire_bytes,
                             TrafficClass traffic_class) {
  charge_receive_host(host(to), wire_bytes, traffic_class);
}

void Network::charge_receive_host(Host& h, std::size_t wire_bytes,
                                  TrafficClass traffic_class) {
  const auto tc = static_cast<std::size_t>(traffic_class);
  h.stats.down_bytes[tc] += wire_bytes + kFrameOverheadBytes;
  h.stats.down_messages[tc] += 1;
}

sim::TimePoint Network::cpu_deliver(NodeId to, sim::TimePoint arrival,
                                    std::size_t wire_bytes) {
  return cpu_deliver_host(host(to), arrival, wire_bytes);
}

sim::TimePoint Network::cpu_deliver_host(Host& h, sim::TimePoint arrival,
                                         std::size_t wire_bytes) {
  if (config_.rx_process_mean == sim::Duration::zero() &&
      config_.rx_process_per_kb == sim::Duration::zero()) {
    return arrival;
  }
  const double size_us = static_cast<double>(config_.rx_process_per_kb.us()) *
                         static_cast<double>(wire_bytes) / 1024.0;
  const double mean_us =
      (static_cast<double>(config_.rx_process_mean.us()) + size_us) *
      h.cpu_cost_factor;
  // Receiver-stream draw: processing cost is rolled on the receiving
  // host's lane.
  const auto cost = sim::Duration::microseconds(
      static_cast<std::int64_t>(h.rng.exponential(mean_us)) + 1);
  const sim::TimePoint start = std::max(arrival, h.cpu_free_at);
  const sim::TimePoint done = start + cost;
  h.cpu_free_at = done;
  const sim::Duration backlog = done - arrival;
  if (backlog > h.peak_cpu_backlog) h.peak_cpu_backlog = backlog;
  return done;
}

BandwidthUsage Network::tx_usage(NodeId node) const {
  if (!config_.limits.rate_control) return BandwidthUsage::kNormal;
  const Host& h = host(node);
  const sim::TimePoint now = simulator_.now();
  sim::Duration backlog = sim::Duration::zero();
  if (h.nic_free_at > now) backlog = h.nic_free_at - now;
  if (h.cpu_free_at > now && h.cpu_free_at - now > backlog) {
    backlog = h.cpu_free_at - now;
  }
  if (backlog >= config_.limits.overuse_threshold) {
    return BandwidthUsage::kOverusing;
  }
  if (backlog <= config_.limits.underuse_threshold) {
    return BandwidthUsage::kUnderusing;
  }
  return BandwidthUsage::kNormal;
}

namespace {
// tx_defer gain scale: Q8 fixed point. Full rate, multiplicative-decrease
// floor (1/16 of full), and the additive recovery step (+1/4 per sustained
// underuse period — full recovery from the floor takes four quiet periods).
constexpr std::uint32_t kAimdFull = 256;
constexpr std::uint32_t kAimdFloor = 16;
constexpr std::uint32_t kAimdStep = 64;
}  // namespace

bool Network::tx_defer(NodeId node) {
  if (!config_.limits.rate_control) return false;
  const BandwidthUsage usage = tx_usage(node);
  Host& h = host(node);
  if (usage == BandwidthUsage::kOverusing) {
    // Multiplicative decrease: halve the optional-traffic rate, drop any
    // accumulated credit, and defer unconditionally while backlogged.
    h.aimd_gain = std::max(kAimdFloor, h.aimd_gain / 2);
    h.aimd_credit = 0;
    h.aimd_underuse_since = sim::TimePoint::max();
    return true;
  }
  if (usage == BandwidthUsage::kUnderusing) {
    const sim::TimePoint now = simulator_.now();
    if (h.aimd_underuse_since == sim::TimePoint::max()) {
      h.aimd_underuse_since = now;
    } else if (now - h.aimd_underuse_since >= config_.limits.rate_recovery) {
      // Additive increase: one step per sustained quiet period.
      h.aimd_gain = std::min(kAimdFull, h.aimd_gain + kAimdStep);
      h.aimd_underuse_since = now;
    }
  } else {
    // kNormal breaks the sustained-underuse streak without penalizing.
    h.aimd_underuse_since = sim::TimePoint::max();
  }
  if (h.aimd_gain == kAimdFull) return false;  // fully recovered: never defer
  // Token bucket in Q8: pass a gain/256 fraction of optional rounds.
  h.aimd_credit += h.aimd_gain;
  if (h.aimd_credit >= kAimdFull) {
    h.aimd_credit -= kAimdFull;
    return false;
  }
  return true;
}

sim::Duration Network::sample_flight(NodeId from, NodeId to) {
  return sample_flight_host(host(from), from, to);
}

sim::Duration Network::sample_flight_host(Host& sender, NodeId from,
                                          NodeId to) {
  sim::Duration flight = latency_->sample(from, to, sender.rng);
  if (fault_plan_ != nullptr) [[unlikely]] {
    flight = fault_adjust(from, to, flight);
  }
  if (from != to && flight < simulator_.lookahead()) [[unlikely]] {
    flight = simulator_.lookahead();
  }
  return flight;
}

sim::Duration Network::sample_failure_detect_delay(NodeId at) {
  const double jitter_us = host(at).rng.exponential(
      static_cast<double>(config_.failure_detect_jitter.us()));
  return config_.failure_detect_base +
         sim::Duration::microseconds(static_cast<std::int64_t>(jitter_us));
}

BandwidthStats& Network::stats(NodeId node) { return host(node).stats; }

const BandwidthStats& Network::stats(NodeId node) const {
  return host(node).stats;
}

void Network::reset_stats() {
  for (Host& h : hosts_) {
    for (const std::uint64_t sent : h.stats.up_messages) {
      h.messages_sent_before_reset += sent;
    }
    h.stats.reset();
    h.peak_nic_backlog = sim::Duration::zero();
    h.peak_cpu_backlog = sim::Duration::zero();
  }
}

std::uint64_t Network::messages_sent() const {
  std::uint64_t total = 0;
  for (const Host& h : hosts_) {
    total += h.messages_sent_before_reset;
    for (const std::uint64_t sent : h.stats.up_messages) total += sent;
  }
  return total;
}

sim::Duration Network::peak_nic_backlog() const {
  sim::Duration peak = sim::Duration::zero();
  for (const Host& h : hosts_) peak = std::max(peak, h.peak_nic_backlog);
  return peak;
}

sim::Duration Network::peak_cpu_backlog() const {
  sim::Duration peak = sim::Duration::zero();
  for (const Host& h : hosts_) peak = std::max(peak, h.peak_cpu_backlog);
  return peak;
}

Network::Host& Network::host(NodeId node) {
  BRISA_ASSERT_MSG(node.valid() && node.index() < hosts_.size(),
                   "unknown host");
  return hosts_[node.index()];
}

const Network::Host& Network::host(NodeId node) const {
  BRISA_ASSERT_MSG(node.valid() && node.index() < hosts_.size(),
                   "unknown host");
  return hosts_[node.index()];
}

}  // namespace brisa::net
