// Scale sweep cell: one broadcast stream of one protocol at one width, with
// or without a fault plan. scenarios/scale_grid.scn sweeps it over 1k ->
// 100k nodes and the four protocols, validating the paper's headline claim
// at scale — per-node dissemination cost (and reliability) stays flat while
// the system grows two orders of magnitude. The default cell is the 10k
// faulted BRISA run that perfbench's upkeep_10k workload reproduces.
//
// Prints one human row and one JSON line; recorded grids live in
// BENCH_scale.json at the repo root. A clean (un-faulted) BRISA cell exits
// non-zero when it misses 100% reliability.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "analysis/stats.h"
#include "reports/metrics.h"
#include "reports/reports_impl.h"
#include "workload/churn.h"

namespace brisa::reports::impl {

namespace {

struct RunResult {
  std::string protocol;
  std::size_t nodes = 0;
  bool faulted = false;
  double reliability = 0.0;
  bool complete = false;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t events_fired = 0;
  std::uint64_t messages_sent = 0;
  double wall_seconds = 0.0;
  double events_per_second = 0.0;  ///< wall-clock event rate of the run
};

/// The same mild fault plan for every faulted configuration: 5% uniform loss
/// over the first 15 s of the stream plus a crash burst of 1% of the nodes
/// (min 3) recovering after 10 s.
std::string fault_script(std::size_t nodes) {
  const std::size_t crash = std::max<std::size_t>(3, nodes / 100);
  return "from 0 s to 15 s drop 5%\nat 5 s crash " + std::to_string(crash) +
         " for 10 s\nat 60 s stop\n";
}

/// Reliability + latency percentiles over per-node delivery instants.
template <typename TimesOf>
void fill_delivery_metrics(const std::vector<net::NodeId>& ids,
                           net::NodeId source, std::uint64_t sent,
                           const TimesOf& times_of, RunResult* result) {
  std::uint64_t delivered = 0;
  std::size_t receivers = 0;
  std::vector<double> delays_ms;
  const auto& source_times = times_of(source);
  for (const net::NodeId id : ids) {
    if (id == source) continue;
    ++receivers;
    const auto& times = times_of(id);
    delivered += times.size();
    for (const auto& [seq, at] : times) {
      const auto it = source_times.find(seq);
      if (it == source_times.end()) continue;
      delays_ms.push_back((at - it->second).to_milliseconds());
    }
  }
  const std::uint64_t expected =
      static_cast<std::uint64_t>(receivers) * sent;
  result->reliability = expected == 0 ? 0.0
                                      : static_cast<double>(delivered) /
                                            static_cast<double>(expected);
  result->p50_ms =
      delays_ms.empty() ? 0.0 : analysis::percentile(delays_ms, 50);
  result->p99_ms =
      delays_ms.empty() ? 0.0 : analysis::percentile(delays_ms, 99);
}

/// The one cell runner: bootstrap, optionally arm the fault plan, stream,
/// measure. Only the config and the per-node delivery-time accessor differ
/// per protocol.
template <typename System, typename TimesOf>
RunResult run_cell(const std::string& protocol,
                   const typename System::Config& config,
                   std::size_t messages, double rate, std::size_t payload,
                   sim::Duration grace, bool faulted, TimesOf times_of) {
  constexpr bool kTree = std::is_same_v<System, workload::SimpleTreeSystem>;
  const auto wall_start = std::chrono::steady_clock::now();
  System system(config);
  system.bootstrap();
  // Bootstrap churns far more pending events than steady state (joins,
  // per-host arming); release the slack before the measured stream.
  system.simulator().shrink();
  workload::ChurnHooks hooks;
  if constexpr (kTree) {
    // SimpleTree has no spawn/kill API, but the fault plan only uses
    // drop/crash/stop, which the fault hooks cover: the interesting number
    // is how much a repair-less tree loses under the same faults
    // (§III-D b).
    hooks.spawn = [] {};
    hooks.kill = [](net::NodeId) {};
    hooks.population = [&system] {
      std::vector<net::NodeId> alive;
      for (const net::NodeId id : system.all_ids()) {
        if (system.network().alive(id)) alive.push_back(id);
      }
      return alive;
    };
    system.fill_fault_hooks(hooks);
  } else {
    hooks = system.churn_hooks();
  }
  workload::ChurnDriver driver(
      system.simulator(),
      workload::ChurnScript::parse(fault_script(config.num_nodes)), hooks);
  if (faulted) driver.arm();
  system.run_stream(messages, rate, payload, grace);

  RunResult result;
  result.protocol = protocol;
  result.nodes = config.num_nodes;
  result.faulted = faulted;
  std::vector<net::NodeId> ids;
  if constexpr (kTree) {
    ids = system.all_ids();
  } else {
    ids = system.member_ids();
  }
  fill_delivery_metrics(
      ids, system.source_id(), system.messages_sent(),
      [&](net::NodeId id) -> const auto& { return times_of(system, id); },
      &result);
  result.complete = system.complete_delivery();
  result.events_fired = system.simulator().events_fired();
  result.messages_sent = system.network().messages_sent();
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  result.events_per_second =
      result.wall_seconds > 0.0
          ? static_cast<double>(result.events_fired) / result.wall_seconds
          : 0.0;
  return result;
}

void print_row(const RunResult& r) {
  std::printf(
      "%-7s %8zu nodes %s: reliability %7.3f%% (complete: %s), "
      "p50 %7.1f ms, p99 %8.1f ms, %6.2fM events in %6.1fs wall "
      "(%.2fM ev/s)\n",
      r.protocol.c_str(), r.nodes, r.faulted ? "faulted" : "clean  ",
      r.reliability * 100.0, r.complete ? "yes" : "NO",
      r.p50_ms, r.p99_ms, static_cast<double>(r.events_fired) / 1e6,
      r.wall_seconds, r.events_per_second / 1e6);
}

void print_json(const RunResult& r, std::size_t messages, std::uint64_t seed) {
  std::printf(
      "{\"bench\":\"scale_sweep\",\"protocol\":\"%s\",\"nodes\":%zu,"
      "\"faulted\":%s,\"messages\":%zu,\"seed\":%llu,"
      "\"reliability\":%.6f,\"complete_delivery\":%s,"
      "\"p50_ms\":%.3f,\"p99_ms\":%.3f,\"events_fired\":%llu,"
      "\"network_messages\":%llu,\"wall_seconds\":%.2f,"
      "\"events_per_second\":%.0f}\n",
      r.protocol.c_str(), r.nodes, r.faulted ? "true" : "false", messages,
      static_cast<unsigned long long>(seed), r.reliability,
      r.complete ? "true" : "false", r.p50_ms, r.p99_ms,
      static_cast<unsigned long long>(r.events_fired),
      static_cast<unsigned long long>(r.messages_sent), r.wall_seconds,
      r.events_per_second);
}

}  // namespace

workload::Scenario scale_sweep_defaults() {
  workload::Scenario s;
  s.set("scenario", "name", "scale_sweep")
      .set("scenario", "report", "scale_sweep")
      .set("scenario", "protocol", "brisa")
      .set("scenario", "nodes", "10000")
      .set("scenario", "seed", "1")
      .set("streams", "messages", "20")
      .set("streams", "rate-per-s", "5")
      .set("streams", "payload", "256")
      .set("params", "variant", "faulted");
  return s;
}

int scale_sweep_run(const workload::Scenario& scenario) {
  const std::string protocol = scenario.protocol_or("brisa");
  const std::size_t nodes = scenario.nodes_or(10'000);
  const std::size_t messages = scenario.messages_or(20);
  const double rate = scenario.rate_or(5.0);
  const std::size_t payload = scenario.payload_or(256);
  const std::uint64_t seed = scenario.seed_or(1);
  const std::string variant = scenario.param_string("variant", "faulted");
  if (variant != "clean" && variant != "faulted") {
    std::fprintf(stderr,
                 "error: params.variant must be clean or faulted, got '%s'\n",
                 variant.c_str());
    return 2;
  }
  const bool faulted = variant == "faulted";
  std::fprintf(stderr, "running %s %zu %s...\n", protocol.c_str(), nodes,
               variant.c_str());

  const auto join_spread = sim::Duration::seconds(20);
  const auto grace = sim::Duration::seconds(20);
  RunResult result;
  if (protocol == "brisa") {
    workload::BrisaSystem::Config config;
    config.seed = seed;
    config.num_nodes = nodes;
    config.join_spread = join_spread;
    config.stabilization = sim::Duration::seconds(25);
    result = run_cell<workload::BrisaSystem>(
        protocol, config, messages, rate, payload, grace, faulted,
        [](workload::BrisaSystem& system, net::NodeId id) -> const auto& {
          return system.brisa(id).stats().delivery_time;
        });
  } else if (protocol == "gossip") {
    workload::SimpleGossipSystem::Config config;
    config.seed = seed;
    config.num_nodes = nodes;
    config.fanout = workload::gossip_fanout_for(nodes);
    config.join_spread = join_spread;
    config.stabilization = sim::Duration::seconds(10);
    result = run_cell<workload::SimpleGossipSystem>(
        protocol, config, messages, rate, payload, grace, faulted,
        [](workload::SimpleGossipSystem& system, net::NodeId id)
            -> const auto& { return system.node(id).stats().delivery_time; });
  } else if (protocol == "tree") {
    workload::SimpleTreeSystem::Config config;
    config.seed = seed;
    config.num_nodes = nodes;
    config.join_spread = join_spread;
    config.stabilization = sim::Duration::seconds(10);
    result = run_cell<workload::SimpleTreeSystem>(
        protocol, config, messages, rate, payload, grace, faulted,
        [](workload::SimpleTreeSystem& system, net::NodeId id)
            -> const auto& { return system.node(id).stats().delivery_time; });
  } else {
    workload::TagSystem::Config config;
    config.seed = seed;
    config.num_nodes = nodes;
    config.join_spread = join_spread;
    config.stabilization = sim::Duration::seconds(20);
    result = run_cell<workload::TagSystem>(
        protocol, config, messages, rate, payload,
        sim::Duration::seconds(30), faulted,
        [](workload::TagSystem& system, net::NodeId id) -> const auto& {
          return system.node(id).stats().delivery_time;
        });
  }
  print_row(result);
  print_json(result, messages, seed);

  // The scale claim under test: a clean BRISA broadcast delivers everything
  // at every width.
  if (protocol != "brisa" || faulted) return 0;
  if (!result.complete || result.reliability < 1.0) {
    std::printf("scale check: brisa %zu nodes clean fell short "
                "(reliability %.4f%%, complete: %s)\n",
                nodes, result.reliability * 100.0,
                result.complete ? "yes" : "no");
    return 1;
  }
  std::printf("scale check: clean BRISA delivered 100%% at %zu nodes\n",
              nodes);
  return 0;
}

}  // namespace brisa::reports::impl
