// Figure 14: parent-recovery delay CDF for *hard* repairs under 3%/min
// continuous churn, 128 nodes, active view size 4 — BRISA vs TAG.
//
// Paper shape: BRISA's recovery is about twice as fast as TAG's list
// re-insertion, and TAG needs hard repairs about twice as often.
#include <cstdio>

#include "analysis/table.h"
#include "reports/metrics.h"
#include "reports/reports_impl.h"
#include "workload/churn.h"

namespace brisa::reports::impl {

workload::Scenario fig14_defaults() {
  workload::Scenario s;
  s.set("scenario", "name", "fig14_recovery_delay")
      .set("scenario", "report", "fig14_recovery_delay")
      .set("scenario", "nodes", "128")
      .set("scenario", "seed", "1")
      .set("params", "churn-seconds", "360");
  return s;
}

int fig14_run(const workload::Scenario& scenario) {
  const std::size_t nodes = scenario.nodes_or(128);
  const std::int64_t churn_seconds = scenario.param_int("churn-seconds", 360);
  const std::uint64_t seed = scenario.seed_or(1);

  std::printf(
      "=== Fig 14: hard-repair recovery delays, %zu nodes, 3%%/min churn "
      "===\n",
      nodes);

  const std::string script_text =
      "at 0 s set replacement ratio to 100%\n"
      "from 0 s to " + std::to_string(churn_seconds) +
      " s const churn 3% each 60 s\n" +
      "at " + std::to_string(churn_seconds) + " s stop\n";
  const auto stream_messages =
      static_cast<std::size_t>(5 * churn_seconds);

  // --- BRISA ---------------------------------------------------------------
  std::vector<double> brisa_hard_ms, brisa_soft_ms;
  std::uint64_t brisa_hard_count = 0;
  {
    workload::BrisaSystem::Config config;
    config.seed = seed;
    config.num_nodes = nodes;
    config.hyparview.active_size = 4;
    workload::BrisaSystem system(config);
    system.bootstrap();
    system.run_stream(30, 5.0, 1024);
    workload::ChurnDriver driver(system.simulator(),
                                 workload::ChurnScript::parse(script_text),
                                 system.churn_hooks());
    driver.arm();
    system.run_stream(stream_messages, 5.0, 1024,
                      sim::Duration::seconds(30));
    for (const net::NodeId id : system.all_ids()) {
      const auto& stats = system.brisa(id).stats();
      brisa_hard_count += stats.hard_repairs;
      for (const sim::Duration d : stats.hard_repair_delays) {
        brisa_hard_ms.push_back(d.to_milliseconds());
      }
      for (const sim::Duration d : stats.soft_repair_delays) {
        brisa_soft_ms.push_back(d.to_milliseconds());
      }
    }
  }

  // --- TAG -----------------------------------------------------------------
  std::vector<double> tag_hard_ms;
  std::uint64_t tag_hard_count = 0;
  {
    workload::TagSystem::Config config;
    config.seed = seed;
    config.num_nodes = nodes;
    workload::TagSystem system(config);
    system.bootstrap();
    system.run_stream(30, 5.0, 1024, sim::Duration::seconds(30));
    workload::ChurnDriver driver(system.simulator(),
                                 workload::ChurnScript::parse(script_text),
                                 system.churn_hooks());
    driver.arm();
    system.run_stream(stream_messages, 5.0, 1024,
                      sim::Duration::seconds(60));
    for (const net::NodeId id : system.all_ids()) {
      const auto& stats = system.node(id).stats();
      tag_hard_count += stats.hard_repairs;
      for (const sim::Duration d : stats.hard_repair_delays) {
        tag_hard_ms.push_back(d.to_milliseconds());
      }
    }
  }

  if (!brisa_hard_ms.empty()) {
    print_cdf("BRISA hard repairs (ms percent)", brisa_hard_ms);
  }
  if (!tag_hard_ms.empty()) {
    print_cdf("TAG re-insertions (ms percent)", tag_hard_ms);
  }

  analysis::Table table(
      {"protocol", "hard repairs", "p50(ms)", "p90(ms)", "mean(ms)"});
  auto row = [&table](const char* label, std::uint64_t count,
                      const std::vector<double>& s) {
    table.add_row({label, std::to_string(count),
                   analysis::Table::num(analysis::percentile(s, 50), 1),
                   analysis::Table::num(analysis::percentile(s, 90), 1),
                   analysis::Table::num(analysis::mean(s), 1)});
  };
  row("BRISA tree", brisa_hard_count, brisa_hard_ms);
  row("TAG", tag_hard_count, tag_hard_ms);
  std::printf("\n%s", table.render().c_str());
  std::printf("BRISA soft repairs for reference: %zu samples, p50=%.1f ms\n",
              brisa_soft_ms.size(),
              analysis::percentile(brisa_soft_ms, 50));
  std::printf(
      "paper check: BRISA hard-repair delays ~half of TAG's; TAG needs hard "
      "repairs more often\n");
  return 0;
}

}  // namespace brisa::reports::impl
