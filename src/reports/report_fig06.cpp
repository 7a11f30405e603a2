// Figure 6: depth distribution (CDF) of the emergent structures for 512
// nodes under the first-come-first-picked strategy: tree and DAG-2, view
// sizes 4 and 8.
//
// Paper shape: larger views -> shallower structures; DAG depths exceed tree
// depths (depth = longest path); curves are steep (balanced structures).
#include <cstdio>

#include "analysis/table.h"
#include "reports/metrics.h"
#include "reports/reports_impl.h"

namespace brisa::reports::impl {

workload::Scenario fig06_defaults() {
  workload::Scenario s;
  s.set("scenario", "name", "fig06_depth")
      .set("scenario", "report", "fig06_depth")
      .set("scenario", "nodes", "512")
      .set("scenario", "seed", "1")
      .set("streams", "messages", "60");
  return s;
}

int fig06_run(const workload::Scenario& scenario) {
  const std::size_t nodes = scenario.nodes_or(512);
  const std::size_t messages = scenario.messages_or(60);
  const std::uint64_t seed = scenario.seed_or(1);

  std::printf("=== Fig 6: depth distribution, %zu nodes, first-come ===\n",
              nodes);

  struct Config {
    const char* label;
    core::StructureMode mode;
    std::size_t parents;
    std::size_t view;
  };
  const Config configs[] = {
      {"tree, view=4", core::StructureMode::kTree, 1, 4},
      {"tree, view=8", core::StructureMode::kTree, 1, 8},
      {"DAG-2, view=4", core::StructureMode::kDag, 2, 4},
      {"DAG-2, view=8", core::StructureMode::kDag, 2, 8},
  };

  analysis::Table table({"config", "p50", "p90", "max", "mean", "complete"});
  for (const Config& cfg : configs) {
    workload::BrisaSystem::Config system_config;
    system_config.seed = seed;
    system_config.num_nodes = nodes;
    system_config.testbed = workload::scenario_testbed(scenario);
    system_config.topology = workload::scenario_topology(scenario);
    system_config.hyparview.active_size = cfg.view;
    system_config.hyparview.passive_size = cfg.view * 6;
    system_config.brisa.mode = cfg.mode;
    system_config.brisa.num_parents = cfg.parents;
    workload::BrisaSystem system(system_config);
    system.bootstrap();
    system.run_stream(messages, 5.0, 1024);

    const std::vector<double> depths = collect_depths(system);
    print_cdf(std::string(cfg.label) + " depth CDF (depth percent)", depths);
    table.add_row({cfg.label,
                   analysis::Table::num(analysis::percentile(depths, 50), 1),
                   analysis::Table::num(analysis::percentile(depths, 90), 1),
                   analysis::Table::num(analysis::sample_max(depths), 0),
                   analysis::Table::num(analysis::mean(depths), 2),
                   system.complete_delivery() ? "yes" : "NO"});
  }
  std::printf("\n%s", table.render().c_str());
  std::printf(
      "paper check: view=8 shallower than view=4; DAG max depth >= tree max "
      "depth per view size\n");
  return 0;
}

}  // namespace brisa::reports::impl
