// Connection-oriented reliable transport (the simulator's TCP stand-in).
//
// Provides what HyParView and the dissemination protocols need from TCP
// (§II-A): connection establishment, reliable in-order delivery per
// connection, graceful close, and eventual notification when the remote end
// dies (modeling RST / flow-control timeouts via the network's
// failure-detection delay).
//
// State is partitioned as *half-connections*: each endpoint owns a Half
// record in its host's slab, mutated only from that host's lane (or from
// global-lane events such as kills). A ConnectionId names the holder's own
// half, so handlers on the two ends of one connection hold *different* ids —
// each side only ever uses ids handed to it by its own callbacks, which
// protocols already do. Cross-endpoint effects (SYN/SYN-ACK/FIN arrivals,
// failure notices) travel as host-lane events delayed at least the
// simulator lookahead, like any cross-host message.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/message.h"
#include "net/network.h"
#include "net/node_id.h"
#include "util/small_vec.h"

namespace brisa::net {

/// Generation-tagged handle to one *half* of a connection, packed as
/// (gen:20 | host:24 | slot+1:20). The low bits hold slot+1 so the encoding
/// of a real half is never 0. Stale ids (half since erased, slot since
/// reused) fail the generation check and resolve to "unknown connection" —
/// exactly the semantics handlers already rely on for late failure notices.
using ConnectionId = std::uint64_t;
inline constexpr ConnectionId kInvalidConnectionId = 0;

enum class CloseReason : std::uint8_t {
  kLocalClose,   ///< we called close()
  kRemoteClose,  ///< peer closed gracefully (FIN)
  kPeerFailure,  ///< peer crashed; detected by the transport
  kRefused,      ///< connect() to a dead/unreachable node
};

[[nodiscard]] const char* to_string(CloseReason reason);

class TransportHandler {
 public:
  virtual ~TransportHandler() = default;

  /// Connection is usable. `initiated` tells which side called connect().
  virtual void on_connection_up(ConnectionId conn, NodeId peer,
                                bool initiated) = 0;
  virtual void on_connection_down(ConnectionId conn, NodeId peer,
                                  CloseReason reason) = 0;
  virtual void on_message(ConnectionId conn, NodeId from,
                          MessagePtr message) = 0;
};

class Transport final : public Network::DeathListener,
                        public sim::DeliverEvent::Sink {
 public:
  explicit Transport(Network& network);

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Registers the (single) handler for a host's inbound transport events.
  void bind(NodeId node, TransportHandler* handler);

  /// Begins connection establishment; the result arrives asynchronously as
  /// on_connection_up (both ends) or on_connection_down(kRefused) (initiator).
  /// The returned id names the initiator's half; the acceptor receives its
  /// own id in its on_connection_up.
  ConnectionId connect(NodeId from, NodeId to);

  /// Graceful close by the id's owner. The peer sees kRemoteClose after
  /// one-way latency. No callback fires at the closer (it already knows).
  void close(ConnectionId conn, NodeId closer);

  /// Reliable in-order send. Returns false if the connection is not
  /// established or `sender` does not own the half `conn` names.
  bool send(ConnectionId conn, NodeId sender, MessagePtr message,
            TrafficClass traffic_class);

  [[nodiscard]] bool established(ConnectionId conn) const;
  /// Remote endpoint of the half `conn` names; `self` must be its owner.
  [[nodiscard]] NodeId peer_of(ConnectionId conn, NodeId self) const;

  /// Number of non-closed connection halves (tests / leak checks). A fully
  /// established pair counts 2; the interesting invariant — every test uses
  /// it this way — is that a drained system reports 0.
  [[nodiscard]] std::size_t open_connections() const;

  /// Severs a connection whose link the fault layer blackholed (partition,
  /// frozen peer, or sustained loss): both endpoints see kPeerFailure after
  /// their own failure-detection delay, modeling RST / flow-control timeout.
  void break_connection(ConnectionId conn);

  /// Contract note for handlers: a failure/refusal notice may arrive for a
  /// connection the handler already closed or replaced locally (the record
  /// can be gone before the detection delay elapses, so the notice cannot
  /// be cancelled). Handlers must treat unknown/stale ids in
  /// on_connection_down as a no-op, as HyParView does.

  // Network::DeathListener (all invoked from global-lane events)
  void on_host_killed(NodeId node) override;
  void on_host_suspended(NodeId node) override;
  void on_host_resumed(NodeId node) override;
  void on_host_added(NodeId node) override;

 private:
  enum class State : std::uint8_t { kSynSent, kEstablished, kClosed };

  /// Delivery stages encoded in DeliverEvent::tag.
  enum SegmentStage : std::uint16_t {
    kSegmentArrival = 0,   ///< left the wire; charge receive, queue CPU
    kSegmentCpuReady = 1,  ///< processing done; hand to the handler
  };

  // ConnectionId packing.
  static constexpr std::uint32_t kSlotBits = 20;
  static constexpr std::uint32_t kHostBits = 24;
  static constexpr std::uint32_t kGenBits = 20;
  static constexpr std::uint32_t kNil = 0xffffffff;
  [[nodiscard]] static std::uint32_t slot_of(ConnectionId conn) {
    return static_cast<std::uint32_t>(conn & ((1u << kSlotBits) - 1)) - 1;
  }
  [[nodiscard]] static std::uint32_t host_of(ConnectionId conn) {
    return static_cast<std::uint32_t>(conn >> kSlotBits) &
           ((1u << kHostBits) - 1);
  }
  [[nodiscard]] static std::uint32_t gen_of(ConnectionId conn) {
    return static_cast<std::uint32_t>(conn >> (kSlotBits + kHostBits));
  }
  [[nodiscard]] static ConnectionId pack_id(std::uint32_t host,
                                            std::uint32_t slot,
                                            std::uint32_t gen) {
    return (static_cast<ConnectionId>(gen) << (kSlotBits + kHostBits)) |
           (static_cast<ConnectionId>(host) << kSlotBits) |
           static_cast<ConnectionId>(slot + 1);
  }

  // sim::DeliverEvent::Sink (data segments; event.id = receiver's half)
  void on_deliver(const sim::DeliverEvent& event) override;

  /// One endpoint's record, owned by its host's lane. The FIFO clamp covers
  /// only the *outbound* direction — the inbound clamp lives in the peer's
  /// half — so no field is ever written from two lanes. The record is also
  /// its slab slot (open flag, generation, free-list link), packed into 32
  /// bytes so a host's usual halves sit inline in its HostState.
  struct Half {
    NodeId peer;
    State state = State::kSynSent;
    bool initiated = false;
    /// The slot holds a live half; otherwise it is on the free list.
    bool open = false;
    /// Bumped on erase, so ids naming an erased half fail the check in find.
    std::uint32_t gen = 1;
    std::uint32_t next_free = kNil;
    /// The peer's half id; the acceptor learns it from the SYN, the
    /// initiator from the SYN-ACK.
    ConnectionId peer_half = kInvalidConnectionId;
    /// Enforces FIFO delivery toward the peer despite latency jitter.
    sim::TimePoint last_tx_arrival = sim::TimePoint::origin();
  };
  static_assert(sizeof(Half) == 32, "keep the inline slab dense");

  /// Halves held inline per host: an active view plus a few dials and
  /// closing halves. A host with more spills its slab to the heap.
  static constexpr std::size_t kInlineHalves = 8;

  struct PendingNotice {
    ConnectionId conn;
    NodeId peer;
    CloseReason reason;
  };

  /// Everything the transport keeps for one host; mutated only from that
  /// host's lane or from global-lane events. Sized by on_host_added/bind, never
  /// from lane events. Line-aligned, and laid out so the handler, the free
  /// list and the 16-byte slab header fill the first 32 bytes: the first
  /// inline half completes that line and no half straddles one.
  struct alignas(64) HostState {
    TransportHandler* handler = nullptr;
    std::uint32_t free_head = kNil;
    util::SmallVec<Half, kInlineHalves> slots;
    /// Connection failures a suspended host will learn about at resume.
    std::vector<PendingNotice> resume_notices;
  };

  void ensure_host(std::uint32_t index);
  ConnectionId allocate_half(NodeId at);
  void erase_half(ConnectionId conn);
  Half* find(ConnectionId conn);
  const Half* find(ConnectionId conn) const;
  /// Linear scan of `at`'s slab for the half pointing back at `peer_half`
  /// (FIN resolution; slabs are per-host and protocol-degree sized).
  Half* find_by_peer_half(NodeId at, ConnectionId peer_half,
                          ConnectionId* id_out);
  TransportHandler* handler_of(NodeId node);

  // Handshake / teardown stages; each runs on the lane of its first arg.
  void handle_syn(ConnectionId initiator_half, NodeId from, NodeId to);
  void handle_syn_ack(ConnectionId initiator_half, ConnectionId acceptor_half,
                      NodeId from, NodeId to);
  void handle_fin(NodeId peer, NodeId closer, ConnectionId closer_half);
  void handle_remote_sever(NodeId target, ConnectionId target_half,
                           NodeId peer, CloseReason reason);

  /// Schedules on_connection_down(conn, peer, reason) at `at` on its own
  /// lane after its failure-detection delay, and erases the half (if still
  /// present) when the notice fires. Dead endpoints are skipped; suspended
  /// ones get the notice queued until resume.
  void schedule_failure_notice(NodeId at, ConnectionId conn, NodeId peer,
                               CloseReason reason);

  /// Schedules handle_remote_sever at `target`'s lane `delay` from now:
  /// lookahead when called from a host-lane event, zero from global-lane
  /// events.
  void schedule_remote_sever(NodeId target, ConnectionId target_half,
                             NodeId peer, CloseReason reason,
                             sim::Duration delay);

  void queue_resume_notice(NodeId node, PendingNotice notice);

  /// Resolves one fault verdict for a reliable segment: loss rules become
  /// retransmissions (NIC re-charged, arrival delayed one RTO each), and
  /// after kMaxConsecutiveLosses consecutive losses the path counts as dead.
  /// Returns the surviving verdict (kDeliver or kBlackhole) and adds the
  /// retransmission penalty to `*extra_delay`.
  LinkVerdict resolve_segment_verdict(NodeId sender, NodeId receiver,
                                      std::size_t wire_bytes,
                                      TrafficClass traffic_class,
                                      sim::Duration* extra_delay);

  /// Transmits one segment through the fault layer: charges the sender's
  /// NIC (including retransmissions) and returns the arrival instant, or
  /// nullopt when the segment was blackholed (counted at the sender; the
  /// caller decides how the connection reacts). Shared by SYN, SYN-ACK,
  /// FIN, and data sends. All draws come from the sender's streams, and
  /// `sender_host` is the sender's record, resolved once by the caller.
  std::optional<sim::TimePoint> transmit_segment(Network::Host& sender_host,
                                                 NodeId sender,
                                                 NodeId receiver,
                                                 std::size_t wire_bytes,
                                                 TrafficClass traffic_class);

  /// Applies the per-direction FIFO clamp of `h` to a raw arrival instant.
  static sim::TimePoint clamp_fifo(Half& h, sim::TimePoint arrival) {
    if (arrival <= h.last_tx_arrival) {
      arrival = h.last_tx_arrival + sim::Duration::microseconds(1);
    }
    h.last_tx_arrival = arrival;
    return arrival;
  }

  /// Size of a handshake/teardown segment on the wire.
  static constexpr std::size_t kControlSegmentBytes = 8;
  /// TCP gives up after this many consecutive losses of one segment;
  /// sustained 100% loss therefore behaves like a partition.
  static constexpr std::uint32_t kMaxConsecutiveLosses = 6;

  Network& network_;
  std::vector<HostState> hosts_;
};

}  // namespace brisa::net
