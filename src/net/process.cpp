#include "net/process.h"

namespace brisa::net {

bool Process::alive_gate(const void* ctx, std::uint32_t arg) {
  return static_cast<const Network*>(ctx)->alive(NodeId(arg));
}

sim::EventId Process::after(sim::Duration delay, sim::Callback fn) {
  // Host-lane timer: orders among this host's events, gated on liveness.
  return simulator().after_host_gated(id_.index(), delay,
                                      &Process::alive_gate, &network_,
                                      id_.index(), std::move(fn));
}

sim::PeriodicId Process::every(sim::Duration period, sim::Callback fn) {
  return simulator().every_host_gated(id_.index(), period,
                                      &Process::alive_gate, &network_,
                                      id_.index(), std::move(fn));
}

}  // namespace brisa::net
