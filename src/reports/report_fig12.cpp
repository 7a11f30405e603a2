// Figure 12: total data transmitted per node (stabilization vs
// dissemination) for SimpleTree, BRISA (tree, view 4), TAG (view 4) and
// SimpleGossip, 512 nodes, payload sizes {0, 1, 10, 20} KB, 500 messages.
//
// Paper shape: SimpleTree cheapest to stabilize (one coordinator
// round-trip); BRISA ~= TAG (payload-dominated, small structure overhead);
// SimpleGossip comparable at tiny payloads but blowing up with payload size
// (duplicate relays).
#include <cstdio>

#include "analysis/table.h"
#include "reports/metrics.h"
#include "reports/reports_impl.h"

namespace brisa::reports::impl {

namespace {

struct PhaseBytes {
  double stabilization_mb_per_node;
  double dissemination_mb_per_node;
  bool complete;
};

double mean_upload_mb(net::Network& network,
                      const std::vector<net::NodeId>& ids) {
  double total = 0;
  for (const net::NodeId id : ids) {
    total += static_cast<double>(network.stats(id).total_up_bytes());
  }
  return total / static_cast<double>(ids.size()) / (1024.0 * 1024.0);
}

template <typename System>
PhaseBytes measure(System& system, std::size_t messages, std::size_t payload,
                   sim::Duration grace) {
  PhaseBytes result;
  result.stabilization_mb_per_node =
      mean_upload_mb(system.network(), system.all_ids());
  system.network().reset_stats();
  system.run_stream(messages, 5.0, payload, grace);
  result.dissemination_mb_per_node =
      mean_upload_mb(system.network(), system.all_ids());
  result.complete = system.complete_delivery();
  return result;
}

}  // namespace

workload::Scenario fig12_defaults() {
  workload::Scenario s;
  s.set("scenario", "name", "fig12_protocol_bandwidth")
      .set("scenario", "report", "fig12_protocol_bandwidth")
      .set("scenario", "nodes", "512")
      .set("scenario", "seed", "1")
      .set("streams", "messages", "500")
      .set("params", "payloads", "0,1024,10240,20480");
  return s;
}

int fig12_run(const workload::Scenario& scenario) {
  const std::size_t nodes = scenario.nodes_or(512);
  const std::size_t messages = scenario.messages_or(500);
  const auto payloads =
      scenario.param_int_list("payloads", {0, 1024, 10240, 20480});
  const std::uint64_t seed = scenario.seed_or(1);

  std::printf(
      "=== Fig 12: per-node data transmitted (MB), %zu nodes, %zu messages "
      "===\n",
      nodes, messages);

  analysis::Table table({"protocol", "payload", "stabilize MB", "dissem. MB",
                         "total MB", "complete"});

  for (const std::int64_t payload : payloads) {
    const auto payload_label = std::to_string(payload / 1024) + "KB";
    const auto pay = static_cast<std::size_t>(payload);
    {
      workload::SimpleTreeSystem::Config config;
      config.seed = seed;
      config.num_nodes = nodes;
      workload::SimpleTreeSystem system(config);
      system.bootstrap();
      const PhaseBytes r =
          measure(system, messages, pay, sim::Duration::seconds(10));
      table.add_row({"SimpleTree", payload_label,
                     analysis::Table::num(r.stabilization_mb_per_node, 3),
                     analysis::Table::num(r.dissemination_mb_per_node, 2),
                     analysis::Table::num(r.stabilization_mb_per_node +
                                              r.dissemination_mb_per_node,
                                          2),
                     r.complete ? "yes" : "NO"});
    }
    {
      workload::BrisaSystem::Config config;
      config.seed = seed;
      config.num_nodes = nodes;
      config.hyparview.active_size = 4;
      workload::BrisaSystem system(config);
      system.bootstrap();
      // The first few messages are part of structure emergence; the paper
      // includes them in dissemination.
      const PhaseBytes r =
          measure(system, messages, pay, sim::Duration::seconds(10));
      table.add_row({"BRISA tree/view4", payload_label,
                     analysis::Table::num(r.stabilization_mb_per_node, 3),
                     analysis::Table::num(r.dissemination_mb_per_node, 2),
                     analysis::Table::num(r.stabilization_mb_per_node +
                                              r.dissemination_mb_per_node,
                                          2),
                     r.complete ? "yes" : "NO"});
    }
    {
      workload::TagSystem::Config config;
      config.seed = seed;
      config.num_nodes = nodes;
      workload::TagSystem system(config);
      system.bootstrap();
      const PhaseBytes r =
          measure(system, messages, pay,
                  sim::Duration::seconds(260));  // pull drains at half rate
      table.add_row({"TAG view4", payload_label,
                     analysis::Table::num(r.stabilization_mb_per_node, 3),
                     analysis::Table::num(r.dissemination_mb_per_node, 2),
                     analysis::Table::num(r.stabilization_mb_per_node +
                                              r.dissemination_mb_per_node,
                                          2),
                     r.complete ? "yes" : "NO"});
    }
    {
      workload::SimpleGossipSystem::Config config;
      config.seed = seed;
      config.num_nodes = nodes;
      workload::SimpleGossipSystem system(config);
      system.bootstrap();
      // SimpleGossip has no structure: the paper attributes everything to
      // dissemination; Cyclon shuffles land in the stabilization column
      // here, which is still tiny.
      const PhaseBytes r =
          measure(system, messages, pay, sim::Duration::seconds(30));
      table.add_row({"SimpleGossip", payload_label,
                     analysis::Table::num(r.stabilization_mb_per_node, 3),
                     analysis::Table::num(r.dissemination_mb_per_node, 2),
                     analysis::Table::num(r.stabilization_mb_per_node +
                                              r.dissemination_mb_per_node,
                                          2),
                     r.complete ? "yes" : "NO"});
    }
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "paper check: SimpleTree cheapest stabilization; BRISA ~= TAG; "
      "SimpleGossip multiples of the others once payloads grow\n");
  return 0;
}

}  // namespace brisa::reports::impl
