#include "reports/reports.h"

#include <algorithm>

#include "reports/reports_impl.h"

namespace brisa::reports {

namespace {

std::vector<Report> build_registry() {
  using namespace impl;
  return {
      {"fig02_flood_duplicates",
       "Fig 2: duplicates per message per node under pure flooding",
       {"scenario.nodes", "streams.messages", "streams.payload",
        "params.views", "scenario.seed"},
       fig02_defaults,
       fig02_run},
      {"fig06_depth",
       "Fig 6: depth distribution of the emergent structures",
       {"scenario.nodes", "streams.messages", "scenario.seed"},
       fig06_defaults,
       fig06_run},
      {"fig07_degree",
       "Fig 7: degree distribution of the emergent structures",
       {"scenario.nodes", "streams.messages", "scenario.seed"},
       fig07_defaults,
       fig07_run},
      {"fig08_tree_shape",
       "Fig 8: sample tree shapes (DOT export + depth histogram)",
       {"scenario.nodes", "scenario.seed", "params.dot-prefix"},
       fig08_defaults,
       fig08_run},
      {"fig09_routing_delay",
       "Fig 9: routing-delay CDF on the PlanetLab model",
       {"scenario.nodes", "streams.messages", "scenario.seed"},
       fig09_defaults,
       fig09_run},
      {"fig10_bandwidth_down",
       "Fig 10: download bandwidth percentiles per structure/payload",
       {"scenario.nodes", "streams.messages", "params.payloads",
        "scenario.seed"},
       fig10_defaults,
       fig10_run},
      {"fig11_bandwidth_up",
       "Fig 11: upload bandwidth percentiles per structure/payload",
       {"scenario.nodes", "streams.messages", "params.payloads",
        "scenario.seed"},
       fig11_defaults,
       fig11_run},
      {"fig12_protocol_bandwidth",
       "Fig 12: data transmitted per node across the four protocols",
       {"scenario.nodes", "streams.messages", "params.payloads",
        "scenario.seed"},
       fig12_defaults,
       fig12_run},
      {"fig13_construction_time",
       "Fig 13: structure construction-time CDF, BRISA vs TAG",
       {"params.cluster-nodes", "params.planetlab-nodes", "scenario.seed"},
       fig13_defaults,
       fig13_run},
      {"fig14_recovery_delay",
       "Fig 14: hard-repair recovery delays under churn, BRISA vs TAG",
       {"scenario.nodes", "params.churn-seconds", "scenario.seed"},
       fig14_defaults,
       fig14_run},
      {"tab1_churn",
       "Table I: churn impact (parents lost, orphans, repair split)",
       {"params.sizes", "params.churn-seconds", "scenario.seed"},
       tab1_defaults,
       tab1_run},
      {"tab2_latency",
       "Table II: dissemination latency across the four protocols",
       {"scenario.nodes", "streams.messages", "scenario.seed"},
       tab2_defaults,
       tab2_run},
      {"ablation_strategies",
       "Ablation: the four parent-selection strategies",
       {"scenario.nodes", "streams.messages", "scenario.seed"},
       ablation_defaults,
       ablation_run},
      {"fault_recovery",
       "Fault recovery: reliability & latency vs loss / partitions",
       {"scenario.nodes", "scenario.protocol", "streams.messages",
        "scenario.seed", "params.regime"},
       fault_recovery_defaults,
       fault_recovery_run},
      {"multi_stream",
       "Multi-stream sweep: per-stream reliability as the forest grows",
       {"scenario.nodes", "params.streams", "streams.messages",
        "streams.rate-per-s", "streams.payload",
        "streams.subscription-fraction", "scenario.seed", "params.churn",
        "params.quick"},
       multi_stream_defaults,
       multi_stream_run},
      {"scale_sweep",
       "Scale sweep: reliability/cost of one broadcast at 1k-100k nodes",
       {"scenario.nodes", "scenario.protocol", "streams.messages",
        "streams.rate-per-s", "streams.payload", "scenario.seed",
        "params.variant"},
       scale_sweep_defaults,
       scale_sweep_run},
      {"buffer_tradeoff",
       "Buffer tradeoff: reliability vs bounded store size per protocol",
       {"params.entries", "params.store-bytes", "params.protocols",
        "params.policies", "params.bloom", "params.rate-control",
        "params.faults", "scenario.nodes", "streams.messages",
        "streams.rate-per-s", "streams.payload", "scenario.seed",
        "params.quick"},
       buffer_tradeoff_defaults,
       buffer_tradeoff_run},
      {"run",
       "Generic declarative run: any protocol/topology/faults combination",
       {},
       generic_defaults,
       generic_run},
  };
}

}  // namespace

const std::vector<Report>& all() {
  static const std::vector<Report> registry = build_registry();
  return registry;
}

const Report* find(const std::string& name) {
  for (const Report& report : all()) {
    if (report.name == name) return &report;
  }
  return nullptr;
}

std::string scenario_key_error(const workload::Scenario& scenario,
                               const Report& report) {
  if (report.name == "run") return "";
  const workload::Scenario defaults = report.defaults();
  const auto default_keys = defaults.set_keys();
  const auto consumed = [&report](const std::string& path) {
    return std::find(report.consumed.begin(), report.consumed.end(), path) !=
           report.consumed.end();
  };

  for (const auto& [key, value] : scenario.set_keys()) {
    // [sweep] keys are consumed upstream by the sweep executor, never by
    // the per-cell report; labels are always fine.
    if (key.rfind("sweep.", 0) == 0) continue;
    if (key == "scenario.name" || key == "scenario.report") continue;
    if (consumed(key)) continue;
    // A key the figure pins may be restated, but only with the pinned
    // value — changing it would be silently ignored.
    const auto it = default_keys.find(key);
    if (it != default_keys.end() && it->second == value) continue;
    return "key '" + key + "' is not consumed by report '" + report.name +
           "'" +
           (it != default_keys.end()
                ? " (the figure pins it to " + it->second + ")"
                : "") +
           "; drop it or use the generic `run` report";
  }
  for (const auto& [key, _] : scenario.params) {
    if (!consumed("params." + key) && defaults.params.count(key) == 0) {
      return "param '" + key + "' is not consumed by report '" + report.name +
             "'";
    }
  }
  return "";
}

}  // namespace brisa::reports
