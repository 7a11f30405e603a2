// Table II: dissemination latency for 512 nodes, 500 messages of 1 KB at
// 5/s — the time between the first and last delivery at each node, averaged
// over all nodes (ideal: 100 s).
//
// Paper numbers: SimpleTree 100.0 s (baseline), BRISA +6%, SimpleGossip
// +28%, TAG +100%.
#include <cstdio>

#include "analysis/table.h"
#include "reports/metrics.h"
#include "reports/reports_impl.h"

namespace brisa::reports::impl {

workload::Scenario tab2_defaults() {
  workload::Scenario s;
  s.set("scenario", "name", "tab2_latency")
      .set("scenario", "report", "tab2_latency")
      .set("scenario", "nodes", "512")
      .set("scenario", "seed", "1")
      .set("streams", "messages", "500");
  return s;
}

int tab2_run(const workload::Scenario& scenario) {
  const std::size_t nodes = scenario.nodes_or(512);
  const std::size_t messages = scenario.messages_or(500);
  const std::uint64_t seed = scenario.seed_or(1);

  std::printf(
      "=== Table II: dissemination latency, %zu nodes, %zu x 1KB at 5/s "
      "(ideal %.1f s) ===\n",
      nodes, messages, static_cast<double>(messages) / 5.0);

  struct Row {
    std::string name;
    double latency_s;
    bool complete;
  };
  std::vector<Row> rows;

  {
    workload::SimpleTreeSystem::Config config;
    config.seed = seed;
    config.num_nodes = nodes;
    workload::SimpleTreeSystem system(config);
    system.bootstrap();
    system.run_stream(messages, 5.0, 1024);
    const auto windows = collect_windows_s(
        system.all_ids(), [&](net::NodeId id) -> const auto& {
          return system.node(id).stats().delivery_time;
        });
    rows.push_back(
        {"SimpleTree", analysis::mean(windows), system.complete_delivery()});
  }
  {
    workload::BrisaSystem::Config config;
    config.seed = seed;
    config.num_nodes = nodes;
    config.hyparview.active_size = 4;
    workload::BrisaSystem system(config);
    system.bootstrap();
    system.run_stream(messages, 5.0, 1024);
    const auto windows = collect_windows_s(
        system.member_ids(), [&](net::NodeId id) -> const auto& {
          return system.brisa(id).stats().delivery_time;
        });
    rows.push_back(
        {"BRISA", analysis::mean(windows), system.complete_delivery()});
  }
  {
    workload::SimpleGossipSystem::Config config;
    config.seed = seed;
    config.num_nodes = nodes;
    workload::SimpleGossipSystem system(config);
    system.bootstrap();
    system.run_stream(messages, 5.0, 1024, sim::Duration::seconds(60));
    const auto windows = collect_windows_s(
        system.all_ids(), [&](net::NodeId id) -> const auto& {
          return system.node(id).stats().delivery_time;
        });
    rows.push_back({"SimpleGossip", analysis::mean(windows),
                    system.complete_delivery()});
  }
  {
    workload::TagSystem::Config config;
    config.seed = seed;
    config.num_nodes = nodes;
    workload::TagSystem system(config);
    system.bootstrap();
    system.run_stream(messages, 5.0, 1024, sim::Duration::seconds(240));
    const auto windows = collect_windows_s(
        system.all_ids(), [&](net::NodeId id) -> const auto& {
          return system.node(id).stats().delivery_time;
        });
    rows.push_back(
        {"TAG", analysis::mean(windows), system.complete_delivery()});
  }

  const double baseline = rows[0].latency_s;
  analysis::Table table({"protocol", "latency (s)", "overhead", "complete"});
  for (const Row& row : rows) {
    const double overhead = 100.0 * (row.latency_s / baseline - 1.0);
    table.add_row({row.name, analysis::Table::num(row.latency_s, 2),
                   row.name == "SimpleTree"
                       ? std::string("-")
                       : (overhead >= 0 ? "+" : "") +
                             analysis::Table::num(overhead, 0) + "%",
                   row.complete ? "yes" : "NO"});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "paper check: SimpleTree ~ideal; BRISA within a few %%; SimpleGossip "
      "tens of %%; TAG ~+100%%\n");
  return 0;
}

}  // namespace brisa::reports::impl
