#include "net/transport.h"

#include <algorithm>

#include "util/assert.h"
#include "util/logging.h"

namespace brisa::net {

const char* to_string(CloseReason reason) {
  switch (reason) {
    case CloseReason::kLocalClose:
      return "local-close";
    case CloseReason::kRemoteClose:
      return "remote-close";
    case CloseReason::kPeerFailure:
      return "peer-failure";
    case CloseReason::kRefused:
      return "refused";
  }
  return "?";
}

Transport::Transport(Network& network) : network_(network) {
  network_.add_death_listener(this);
  hosts_.resize(network_.host_count());
}

void Transport::ensure_host(std::uint32_t index) {
  if (index >= hosts_.size()) hosts_.resize(index + 1);
}

void Transport::on_host_added(NodeId node) { ensure_host(node.index()); }

void Transport::bind(NodeId node, TransportHandler* handler) {
  ensure_host(node.index());
  hosts_[node.index()].handler = handler;
}

TransportHandler* Transport::handler_of(NodeId node) {
  return node.index() < hosts_.size() ? hosts_[node.index()].handler : nullptr;
}

// --- Half slab ---------------------------------------------------------------

ConnectionId Transport::allocate_half(NodeId at) {
  HostState& hs = hosts_[at.index()];
  std::uint32_t slot;
  if (hs.free_head != kNil) {
    slot = hs.free_head;
    hs.free_head = hs.slots[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(hs.slots.size());
    hs.slots.emplace_back();
  }
  BRISA_ASSERT_MSG(slot + 1 < (1u << kSlotBits), "per-host half slab full");
  Half& s = hs.slots[slot];
  const std::uint32_t gen = s.gen;
  s = Half{};
  s.gen = gen;
  s.open = true;
  return pack_id(at.index(), slot, gen);
}

void Transport::erase_half(ConnectionId conn) {
  if (conn == kInvalidConnectionId) return;
  const std::uint32_t hidx = host_of(conn);
  if (hidx >= hosts_.size()) return;
  HostState& hs = hosts_[hidx];
  const std::uint32_t slot = slot_of(conn);
  if (slot >= hs.slots.size()) return;
  Half& s = hs.slots[slot];
  if (!s.open || s.gen != gen_of(conn)) return;  // already erased
  s.open = false;
  // Bumping the generation invalidates every outstanding handle; 0 would
  // make pack_id collide with a gen-0 encoding, so skip it on wraparound.
  s.gen = (s.gen + 1) & ((1u << kGenBits) - 1);
  if (s.gen == 0) s.gen = 1;
  s.next_free = hs.free_head;
  hs.free_head = slot;
}

Transport::Half* Transport::find(ConnectionId conn) {
  if (conn == kInvalidConnectionId) return nullptr;
  const std::uint32_t hidx = host_of(conn);
  if (hidx >= hosts_.size()) return nullptr;
  HostState& hs = hosts_[hidx];
  const std::uint32_t slot = slot_of(conn);
  if (slot >= hs.slots.size()) return nullptr;
  Half& s = hs.slots[slot];
  if (!s.open || s.gen != gen_of(conn)) return nullptr;
  return &s;
}

const Transport::Half* Transport::find(ConnectionId conn) const {
  return const_cast<Transport*>(this)->find(conn);
}

Transport::Half* Transport::find_by_peer_half(NodeId at,
                                              ConnectionId peer_half,
                                              ConnectionId* id_out) {
  if (peer_half == kInvalidConnectionId || at.index() >= hosts_.size()) {
    return nullptr;
  }
  HostState& hs = hosts_[at.index()];
  // peer_half is generation-tagged and therefore globally unique, so the
  // first match is the only one.
  for (std::uint32_t slot = 0; slot < hs.slots.size(); ++slot) {
    Half& s = hs.slots[slot];
    if (s.open && s.peer_half == peer_half) {
      *id_out = pack_id(at.index(), slot, s.gen);
      return &s;
    }
  }
  return nullptr;
}

// --- Handshake ---------------------------------------------------------------

ConnectionId Transport::connect(NodeId from, NodeId to) {
  BRISA_ASSERT_MSG(from != to, "self-connection");
  BRISA_ASSERT_MSG(network_.alive(from), "dead host calling connect");
  if (network_.suspended(from)) {
    // Frozen initiator: the SYN never leaves; resolve as a refusal once the
    // host wakes. The id is allocated and immediately retired, so it is
    // unique but never live.
    const ConnectionId conn = allocate_half(from);
    erase_half(conn);
    network_.note_fault(from, TrafficClass::kMembership,
                        LinkVerdict::kBlackhole, /*datagram=*/false);
    schedule_failure_notice(from, conn, to, CloseReason::kRefused);
    return conn;
  }
  const ConnectionId conn = allocate_half(from);
  Half* h = find(conn);
  h->peer = to;
  h->state = State::kSynSent;
  h->initiated = true;

  // SYN: from -> to, subject to the fault layer.
  const std::optional<sim::TimePoint> syn_sent =
      transmit_segment(network_.host(from), from, to, kControlSegmentBytes,
                       TrafficClass::kMembership);
  if (!syn_sent) {
    // Partitioned link: SYN vanishes, initiator times out.
    erase_half(conn);
    schedule_failure_notice(from, conn, to, CloseReason::kRefused);
    return conn;
  }
  // The SYN shares the outbound FIFO clamp with data and FIN, so teardown
  // segments of a later connection cannot overtake it.
  const sim::TimePoint syn_arrival = clamp_fifo(*h, *syn_sent);
  network_.simulator().at_host(
      to.index(), syn_arrival,
      [this, conn, from, to]() { handle_syn(conn, from, to); });
  return conn;
}

void Transport::handle_syn(ConnectionId initiator_half, NodeId from,
                           NodeId to) {
  if (!network_.responsive(to)) {
    // Dead or frozen acceptor: initiator sees a refusal after its detection
    // delay.
    schedule_remote_sever(from, initiator_half, to, CloseReason::kRefused,
                          network_.simulator().lookahead());
    return;
  }
  network_.charge_receive(to, kControlSegmentBytes, TrafficClass::kMembership);
  const ConnectionId b_id = allocate_half(to);
  Half* b = find(b_id);
  b->peer = from;
  b->peer_half = initiator_half;
  b->state = State::kEstablished;
  b->initiated = false;

  // SYN-ACK: to -> from, transmitted *before* the acceptor's handler runs:
  // the FIFO clamp then orders it ahead of anything the handler does to the
  // fresh connection (data, or even an immediate FIN), so the initiator
  // always learns the acceptor's half id first.
  const std::optional<sim::TimePoint> ack_sent =
      transmit_segment(network_.host(to), to, from, kControlSegmentBytes,
                       TrafficClass::kMembership);
  if (!ack_sent) {
    // SYN-ACK lost to a partition: the acceptor never saw the connection
    // (no callback fired yet), so retire its half silently; the initiator
    // sees a failed dial.
    erase_half(b_id);
    schedule_remote_sever(from, initiator_half, to, CloseReason::kRefused,
                          network_.simulator().lookahead());
    return;
  }
  const sim::TimePoint ack_arrival = clamp_fifo(*b, *ack_sent);
  network_.simulator().at_host(
      from.index(), ack_arrival,
      [this, initiator_half, b_id, from, to]() {
        handle_syn_ack(initiator_half, b_id, from, to);
      });
  // Acceptor considers the connection up as soon as it replied SYN-ACK.
  if (TransportHandler* h = handler_of(to)) {
    h->on_connection_up(b_id, from, /*initiated=*/false);
  }
}

void Transport::handle_syn_ack(ConnectionId initiator_half,
                               ConnectionId acceptor_half, NodeId from,
                               NodeId to) {
  Half* a = find(initiator_half);
  if (a == nullptr || a->state != State::kSynSent) {
    // The dial is gone (initiator killed or frozen meanwhile: the kill's
    // teardown erased its halves, and a still-kSynSent half has no
    // peer_half for that teardown to sever). Tell the acceptor, which
    // already considers the connection up.
    schedule_remote_sever(to, acceptor_half, from, CloseReason::kPeerFailure,
                          network_.simulator().lookahead());
    return;
  }
  network_.charge_receive(from, kControlSegmentBytes,
                          TrafficClass::kMembership);
  a->state = State::kEstablished;
  a->peer_half = acceptor_half;
  if (TransportHandler* h = handler_of(from)) {
    h->on_connection_up(initiator_half, to, /*initiated=*/true);
  }
}

// --- Teardown ----------------------------------------------------------------

void Transport::close(ConnectionId conn, NodeId closer) {
  Half* h = find(conn);
  if (h == nullptr || h->state == State::kClosed) return;
  BRISA_ASSERT_MSG(host_of(conn) == closer.index(), "close: not the owner");
  const NodeId peer = h->peer;
  if (!network_.responsive(closer)) {
    h->state = State::kClosed;
    erase_half(conn);
    return;
  }
  // FIN: closer -> peer. Shares the per-direction FIFO clamp with send(),
  // so it cannot overtake data (or the SYN-ACK) already in flight.
  const std::optional<sim::TimePoint> fin_sent =
      transmit_segment(network_.host(closer), closer, peer,
                       kControlSegmentBytes, TrafficClass::kMembership);
  if (!fin_sent) {
    // FIN vanished into the partition: the peer sees a failure after its
    // detection delay (RST-on-timeout) instead of a graceful close; the
    // closer needs no callback (it already knows).
    const ConnectionId peer_half = h->peer_half;
    h->state = State::kClosed;
    erase_half(conn);
    if (peer_half != kInvalidConnectionId && network_.alive(peer)) {
      schedule_remote_sever(peer, peer_half, closer,
                            CloseReason::kPeerFailure,
                            network_.simulator().lookahead());
    }
    return;
  }
  const sim::TimePoint fin_arrival = clamp_fifo(*h, *fin_sent);
  h->state = State::kClosed;
  // Inbound segments still in flight reference this half (checked at
  // arrival); keep the slot until the FIN has reached the peer's side.
  network_.simulator().at_host(closer.index(), fin_arrival,
                               [this, conn]() { erase_half(conn); });
  network_.simulator().at_host(
      peer.index(), fin_arrival,
      [this, peer, closer, conn]() { handle_fin(peer, closer, conn); });
}

void Transport::handle_fin(NodeId peer, NodeId closer,
                           ConnectionId closer_half) {
  if (!network_.alive(peer)) return;
  if (network_.suspended(peer)) {
    // Frozen receiver: the FIN is lost, but the freeze itself already
    // severed the peer's half and queued its resume notice.
    network_.note_rx_suppressed(peer);
    return;
  }
  network_.charge_receive(peer, kControlSegmentBytes,
                          TrafficClass::kMembership);
  ConnectionId b_id = kInvalidConnectionId;
  Half* b = find_by_peer_half(peer, closer_half, &b_id);
  if (b == nullptr) return;  // already severed locally
  if (b->state == State::kClosed) return;  // simultaneous close: peer knows
  if (TransportHandler* h = handler_of(peer)) {
    h->on_connection_down(b_id, closer, CloseReason::kRemoteClose);
  }
  erase_half(b_id);
}

void Transport::break_connection(ConnectionId conn) {
  Half* h = find(conn);
  if (h == nullptr || h->state == State::kClosed) return;
  const NodeId me(host_of(conn));
  const NodeId peer = h->peer;
  const ConnectionId peer_half = h->peer_half;
  // The record stays (closed) until the local notice fires, admitting
  // segments already in flight toward us — TCP delivers bytes on the wire.
  h->state = State::kClosed;
  schedule_failure_notice(me, conn, peer, CloseReason::kPeerFailure);
  if (peer_half != kInvalidConnectionId && network_.alive(peer)) {
    schedule_remote_sever(peer, peer_half, me, CloseReason::kPeerFailure,
                          network_.simulator().lookahead());
  }
}

void Transport::schedule_failure_notice(NodeId at, ConnectionId conn,
                                        NodeId peer, CloseReason reason) {
  if (!network_.alive(at)) {
    erase_half(conn);
    return;
  }
  if (network_.suspended(at)) {
    queue_resume_notice(at, {conn, peer, reason});
    erase_half(conn);
    return;
  }
  const sim::Duration detect = network_.sample_failure_detect_delay(at);
  network_.simulator().after_host(
      at.index(), detect, [this, conn, at, peer, reason]() {
        if (!network_.alive(at)) {
          erase_half(conn);
          return;
        }
        if (network_.suspended(at)) {
          // Frozen during the detection window: deliver the notice at
          // resume instead of dropping it.
          queue_resume_notice(at, {conn, peer, reason});
          erase_half(conn);
          return;
        }
        if (TransportHandler* h = handler_of(at)) {
          h->on_connection_down(conn, peer, reason);
        }
        erase_half(conn);
      });
}

void Transport::schedule_remote_sever(NodeId target, ConnectionId target_half,
                                      NodeId peer, CloseReason reason,
                                      sim::Duration delay) {
  // The delay is passed in by the caller: host-lane events use the
  // lookahead, global-lane events (kills, freezes) zero.
  network_.simulator().at_host(
      target.index(), network_.simulator().now() + delay,
      [this, target, target_half, peer, reason]() {
        handle_remote_sever(target, target_half, peer, reason);
      });
}

void Transport::handle_remote_sever(NodeId target, ConnectionId target_half,
                                    NodeId peer, CloseReason reason) {
  Half* h = find(target_half);
  if (h == nullptr || h->state == State::kClosed) return;
  h->state = State::kClosed;
  schedule_failure_notice(target, target_half, peer, reason);
}

// --- Data path ---------------------------------------------------------------

bool Transport::send(ConnectionId conn, NodeId sender, MessagePtr message,
                     TrafficClass traffic_class) {
  BRISA_ASSERT(message != nullptr);
  if (host_of(conn) != sender.index()) return false;
  Half* h = find(conn);
  if (h == nullptr || h->state != State::kEstablished) return false;
  // The sender's network record, fetched once for the whole send. No
  // suspension check needed: suspending a host severs every one of its
  // halves, so the established check above already rejects frozen senders.
  Network::Host* sender_host = network_.find_host(sender);
  if (sender_host == nullptr || !sender_host->alive) return false;
  const NodeId receiver = h->peer;

  const std::size_t wire_bytes = message->wire_size();
  const std::optional<sim::TimePoint> sent = transmit_segment(
      *sender_host, sender, receiver, wire_bytes, traffic_class);
  if (!sent) {
    // The segment was transmitted into a partition: TCP gives up and the
    // connection breaks, both ends learning after their detection delays.
    // The send itself was accepted — failure is async, exactly like a real
    // socket write.
    break_connection(conn);
    return true;
  }
  // FIFO per direction: a message may not overtake its predecessors.
  const sim::TimePoint arrival = clamp_fifo(*h, *sent);

  // In-flight data outlives a graceful close (TCP delivers bytes already on
  // the wire), so delivery only checks that the receiver's half still
  // exists and the receiver is alive — not that the state is established.
  sim::DeliverEvent event;
  event.sink = this;
  event.token = const_cast<void*>(static_cast<const void*>(message.detach()));
  event.drop_token = &release_message_token;
  event.id = h->peer_half;
  event.from = sender.index();
  event.to = receiver.index();
  event.bytes = static_cast<std::uint32_t>(wire_bytes);
  event.tag = kSegmentArrival;
  event.tclass = static_cast<std::uint16_t>(traffic_class);
  network_.simulator().at_deliver(arrival, event);
  return true;
}

void Transport::on_deliver(const sim::DeliverEvent& event) {
  MessagePtr message =
      MessageRef::attach(static_cast<const Message*>(event.token));
  const ConnectionId conn = event.id;  // the receiver's own half
  const NodeId sender(event.from);
  const NodeId receiver(event.to);
  // The receiver's network record, fetched once for every stage below.
  Network::Host* receiver_host = network_.find_host(receiver);
  if (receiver_host == nullptr || !receiver_host->alive) return;
  if (receiver_host->is_suspended) {
    network_.note_rx_suppressed(receiver);
    return;
  }
  if (event.tag == kSegmentArrival) {
    // The record gates only the wire stage: once the bytes have arrived
    // (receive charged below), a subsequent half erase must not eat the
    // message while it sits in the CPU queue.
    if (find(conn) == nullptr) return;
    network_.charge_receive_host(*receiver_host, event.bytes,
                                 static_cast<TrafficClass>(event.tclass));
    const sim::TimePoint ready = network_.cpu_deliver_host(
        *receiver_host, network_.simulator().now(), event.bytes);
    if (ready != network_.simulator().now()) {
      sim::DeliverEvent next = event;
      next.tag = kSegmentCpuReady;
      next.token = const_cast<void*>(
          static_cast<const void*>(message.detach()));
      network_.simulator().at_deliver(ready, next);
      return;
    }
  }
  if (TransportHandler* h = handler_of(receiver)) {
    h->on_message(conn, sender, std::move(message));
  }
}

// --- Queries -----------------------------------------------------------------

bool Transport::established(ConnectionId conn) const {
  const Half* h = find(conn);
  return h != nullptr && h->state == State::kEstablished;
}

NodeId Transport::peer_of(ConnectionId conn, NodeId self) const {
  const Half* h = find(conn);
  BRISA_ASSERT_MSG(h != nullptr, "peer_of on unknown connection");
  BRISA_ASSERT_MSG(host_of(conn) == self.index(), "peer_of: not the owner");
  return h->peer;
}

std::size_t Transport::open_connections() const {
  std::size_t open = 0;
  for (const HostState& hs : hosts_) {
    for (const Half& s : hs.slots) {
      if (s.open && s.state != State::kClosed) ++open;
    }
  }
  return open;
}

// --- Segments ----------------------------------------------------------------

std::optional<sim::TimePoint> Transport::transmit_segment(
    Network::Host& sender_host, NodeId sender, NodeId receiver,
    std::size_t wire_bytes, TrafficClass traffic_class) {
  sim::Duration penalty = sim::Duration::zero();
  const LinkVerdict verdict = resolve_segment_verdict(
      sender, receiver, wire_bytes, traffic_class, &penalty);
  const sim::TimePoint done =
      network_.nic_send_host(sender_host, wire_bytes, traffic_class);
  if (verdict == LinkVerdict::kBlackhole) {
    // The segment was transmitted (NIC charged) into a partition.
    network_.note_fault(sender, traffic_class, LinkVerdict::kBlackhole,
                        /*datagram=*/false);
    return std::nullopt;
  }
  return done + penalty +
         network_.sample_flight_host(sender_host, sender, receiver);
}

LinkVerdict Transport::resolve_segment_verdict(NodeId sender, NodeId receiver,
                                               std::size_t wire_bytes,
                                               TrafficClass traffic_class,
                                               sim::Duration* extra_delay) {
  LinkVerdict verdict = network_.fault_verdict(sender, receiver);
  std::uint32_t losses = 0;
  while (verdict == LinkVerdict::kDrop) {
    ++losses;
    if (losses >= kMaxConsecutiveLosses) {
      // The path is dead: give up instead of retransmitting again. The
      // fatal hit is counted as the blackhole (by the caller), not as yet
      // another masked drop — segments_dropped stays equal to the
      // retransmissions that actually recovered a loss.
      return LinkVerdict::kBlackhole;
    }
    // Reliable transport masks the loss as one RTO of delay plus a
    // retransmission (which costs real NIC time and upload bytes).
    network_.note_fault(sender, traffic_class, LinkVerdict::kDrop,
                        /*datagram=*/false);
    network_.note_retransmission(sender);
    network_.nic_send(sender, wire_bytes, traffic_class);
    *extra_delay = *extra_delay + network_.config().retransmit_timeout;
    verdict = network_.fault_verdict(sender, receiver);
  }
  return verdict;
}

// --- Fail/recover hooks (global-lane events) --------------------------------

void Transport::queue_resume_notice(NodeId node, PendingNotice notice) {
  ensure_host(node.index());
  hosts_[node.index()].resume_notices.push_back(notice);
}

void Transport::on_host_killed(NodeId node) {
  if (node.index() >= hosts_.size()) return;
  HostState& hs = hosts_[node.index()];
  hs.resume_notices.clear();
  for (std::uint32_t slot = 0; slot < hs.slots.size(); ++slot) {
    const Half& s = hs.slots[slot];
    if (!s.open) continue;
    const ConnectionId conn = pack_id(node.index(), slot, s.gen);
    const NodeId peer = s.peer;
    const ConnectionId peer_half = s.peer_half;
    const bool was_closed = s.state == State::kClosed;
    erase_half(conn);
    // Already-closed halves told their peer when they closed; a still-
    // kSynSent half (no peer_half yet) is resolved by handle_syn_ack
    // finding it gone.
    if (was_closed) continue;
    if (peer_half != kInvalidConnectionId && network_.alive(peer)) {
      schedule_remote_sever(peer, peer_half, node, CloseReason::kPeerFailure,
                            sim::Duration::zero());
    }
  }
}

void Transport::on_host_suspended(NodeId node) {
  // A freeze severs every connection (established or mid-handshake): peers
  // detect the failure after their delay; the frozen host itself finds its
  // sockets dead when it resumes.
  if (node.index() >= hosts_.size()) return;
  HostState& hs = hosts_[node.index()];
  for (std::uint32_t slot = 0; slot < hs.slots.size(); ++slot) {
    const Half& s = hs.slots[slot];
    if (!s.open) continue;
    const ConnectionId conn = pack_id(node.index(), slot, s.gen);
    const NodeId peer = s.peer;
    const ConnectionId peer_half = s.peer_half;
    const bool was_closed = s.state == State::kClosed;
    erase_half(conn);
    // A closed half already has its failure notice pending; that notice
    // sees the suspension and re-queues itself for resume.
    if (was_closed) continue;
    queue_resume_notice(node, {conn, peer, CloseReason::kPeerFailure});
    if (peer_half != kInvalidConnectionId && network_.alive(peer)) {
      schedule_remote_sever(peer, peer_half, node, CloseReason::kPeerFailure,
                            sim::Duration::zero());
    }
  }
}

void Transport::on_host_resumed(NodeId node) {
  if (node.index() >= hosts_.size()) return;
  std::vector<PendingNotice> notices =
      std::move(hosts_[node.index()].resume_notices);
  hosts_[node.index()].resume_notices.clear();
  for (const PendingNotice& notice : notices) {
    schedule_failure_notice(node, notice.conn, notice.peer, notice.reason);
  }
}

}  // namespace brisa::net
