#include "core/brisa.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "util/assert.h"
#include "util/small_vec.h"

namespace brisa::core {

BrisaEngine::BrisaEngine(net::Network& network,
                         membership::PeerSamplingService& pss, net::NodeId id)
    : net::Process(network, id), pss_(pss) {
  pss_.set_listener(this);
}

BrisaStream& BrisaEngine::add_stream(net::StreamId stream,
                                     BrisaStream::Config config) {
  while (streams_.size() <= stream) streams_.emplace_back();
  BRISA_ASSERT_MSG(streams_[stream] == nullptr, "stream id already active");
  streams_[stream] = std::make_unique<BrisaStream>(*this, stream, config);
  ++stream_count_;
  return *streams_[stream];
}

BrisaStream& BrisaEngine::stream(net::StreamId stream) {
  BrisaStream* found = find_stream(stream);
  BRISA_ASSERT_MSG(found != nullptr, "stream not active on this node");
  return *found;
}

const BrisaStream& BrisaEngine::stream(net::StreamId stream) const {
  const BrisaStream* found = find_stream(stream);
  BRISA_ASSERT_MSG(found != nullptr, "stream not active on this node");
  return *found;
}

BrisaStream* BrisaEngine::find_stream(net::StreamId stream) {
  return stream < streams_.size() ? streams_[stream].get() : nullptr;
}

const BrisaStream* BrisaEngine::find_stream(net::StreamId stream) const {
  return stream < streams_.size() ? streams_[stream].get() : nullptr;
}

std::vector<net::StreamId> BrisaEngine::stream_ids() const {
  std::vector<net::StreamId> ids;
  ids.reserve(stream_count_);
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    if (streams_[i] != nullptr) {
      ids.push_back(static_cast<net::StreamId>(i));
    }
  }
  return ids;
}

void BrisaEngine::on_neighbor_up(net::NodeId peer) {
  for (const auto& stream : streams_) {
    if (stream != nullptr) stream->on_neighbor_up(peer);
  }
}

void BrisaEngine::on_neighbor_down(net::NodeId peer,
                                   membership::NeighborLossReason reason) {
  for (const auto& stream : streams_) {
    if (stream != nullptr) stream->on_neighbor_down(peer, reason);
  }
}

void BrisaEngine::on_neighbor_watermark(net::NodeId peer, net::StreamId stream,
                                        std::uint64_t watermark,
                                        std::uint64_t aux) {
  if (BrisaStream* s = find_stream(stream)) {
    s->on_neighbor_watermark(peer, watermark, aux);
  }
}

membership::WatermarkSnapshot BrisaEngine::watermark_snapshot() {
  util::SmallVec<membership::AppWatermark, 4> entries;
  for (const auto& stream : streams_) {
    if (stream != nullptr) entries.push_back(stream->watermark_entry());
  }
  const bool unchanged =
      snapshot_ ? std::equal(entries.begin(), entries.end(),
                             snapshot_->begin(), snapshot_->end())
                : entries.empty();
  if (!unchanged) {
    // A fresh vector, never an in-place update: keep-alives still in flight
    // hold the previous snapshot and must deliver what they were sent with.
    snapshot_ = std::make_shared<const std::vector<membership::AppWatermark>>(
        entries.begin(), entries.end());
    ++snapshot_rebuilds_;
  }
  return snapshot_;
}

void BrisaEngine::on_app_message(net::NodeId from, net::MessagePtr message) {
  // Demux: kind first, then the stream id every BRISA message carries.
  // Messages for streams this node does not run are dropped (a peer may
  // legitimately run a superset of our streams).
  switch (message->kind()) {
    case net::MessageKind::kBrisaData: {
      const auto& msg = static_cast<const BrisaData&>(*message);
      if (BrisaStream* s = find_stream(msg.stream())) s->handle_data(from, msg);
      return;
    }
    case net::MessageKind::kBrisaDeactivate: {
      const auto& msg = static_cast<const BrisaDeactivate&>(*message);
      if (BrisaStream* s = find_stream(msg.stream())) {
        s->handle_deactivate(from, msg);
      }
      return;
    }
    case net::MessageKind::kBrisaResume: {
      const auto& msg = static_cast<const BrisaResume&>(*message);
      if (BrisaStream* s = find_stream(msg.stream())) {
        s->handle_resume(from, msg);
      }
      return;
    }
    case net::MessageKind::kBrisaResumeAck: {
      const auto& msg = static_cast<const BrisaResumeAck&>(*message);
      if (BrisaStream* s = find_stream(msg.stream())) {
        s->handle_resume_ack(from, msg);
      }
      return;
    }
    case net::MessageKind::kBrisaReactivateOrder: {
      const auto& msg = static_cast<const BrisaReactivateOrder&>(*message);
      if (BrisaStream* s = find_stream(msg.stream())) {
        s->handle_reactivate_order(from);
      }
      return;
    }
    case net::MessageKind::kBrisaRetransmitRequest: {
      const auto& msg = static_cast<const BrisaRetransmitRequest&>(*message);
      if (BrisaStream* s = find_stream(msg.stream())) {
        s->handle_retransmit_request(from, msg);
      }
      return;
    }
    default:
      return;
  }
}

}  // namespace brisa::core
