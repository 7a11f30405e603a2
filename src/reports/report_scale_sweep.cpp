// Scale sweep: one broadcast stream per protocol at 1k -> 100k nodes, with
// and without a fault plan, validating the paper's headline claim at sweep
// scale — per-node dissemination cost (and reliability) stays flat while the
// system grows two orders of magnitude.
//
// Per (protocol, size, fault) configuration it prints one human row and one
// JSON line; a recorded run lives in BENCH_scale.json at the repo root.
// Exits non-zero when a clean (un-faulted) BRISA run misses 100% reliability
// at any width.
//
// Baselines above --baseline-cap are skipped loudly (TAG's per-hop join
// traversal and SimpleTree's central coordinator make them both unrealistic
// and uninformative at 100k); BRISA itself always runs every width.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
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

template <typename System>
void finish_run(System& system, bool faulted,
                const std::chrono::steady_clock::time_point wall_start,
                RunResult* result) {
  result->faulted = faulted;
  result->complete = system.complete_delivery();
  result->events_fired = system.simulator().events_fired();
  result->messages_sent = system.network().messages_sent();
  result->wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  result->events_per_second =
      result->wall_seconds > 0.0
          ? static_cast<double>(result->events_fired) / result->wall_seconds
          : 0.0;
}

RunResult run_brisa(std::uint64_t seed, std::size_t nodes,
                    std::size_t messages, double rate, std::size_t payload,
                    bool faulted) {
  const auto wall_start = std::chrono::steady_clock::now();
  workload::BrisaSystem::Config config;
  config.seed = seed;
  config.num_nodes = nodes;
  config.join_spread = sim::Duration::seconds(20);
  config.stabilization = sim::Duration::seconds(25);
  workload::BrisaSystem system(config);
  system.bootstrap();
  // Bootstrap churns far more pending events than steady state (joins,
  // per-host arming); release the slack so back-to-back sweep cells do not
  // stack each other's peak footprint.
  system.simulator().shrink();
  workload::ChurnDriver driver(
      system.simulator(),
      workload::ChurnScript::parse(fault_script(nodes)),
      system.churn_hooks());
  if (faulted) driver.arm();
  system.run_stream(messages, rate, payload, sim::Duration::seconds(20));

  RunResult result;
  result.protocol = "brisa";
  result.nodes = nodes;
  fill_delivery_metrics(
      system.member_ids(), system.source_id(), system.messages_sent(),
      [&system](net::NodeId id) -> const auto& {
        return system.brisa(id).stats().delivery_time;
      },
      &result);
  finish_run(system, faulted, wall_start, &result);
  return result;
}

RunResult run_gossip(std::uint64_t seed, std::size_t nodes,
                     std::size_t messages, double rate, std::size_t payload,
                     bool faulted) {
  const auto wall_start = std::chrono::steady_clock::now();
  workload::SimpleGossipSystem::Config config;
  config.seed = seed;
  config.num_nodes = nodes;
  config.fanout = workload::gossip_fanout_for(nodes);
  config.join_spread = sim::Duration::seconds(20);
  config.stabilization = sim::Duration::seconds(10);
  workload::SimpleGossipSystem system(config);
  system.bootstrap();
  // Bootstrap churns far more pending events than steady state (joins,
  // per-host arming); release the slack so back-to-back sweep cells do not
  // stack each other's peak footprint.
  system.simulator().shrink();
  workload::ChurnDriver driver(
      system.simulator(),
      workload::ChurnScript::parse(fault_script(nodes)),
      system.churn_hooks());
  if (faulted) driver.arm();
  system.run_stream(messages, rate, payload, sim::Duration::seconds(20));

  RunResult result;
  result.protocol = "gossip";
  result.nodes = nodes;
  fill_delivery_metrics(
      system.member_ids(), system.source_id(), system.messages_sent(),
      [&system](net::NodeId id) -> const auto& {
        return system.node(id).stats().delivery_time;
      },
      &result);
  finish_run(system, faulted, wall_start, &result);
  return result;
}

RunResult run_tree(std::uint64_t seed, std::size_t nodes,
                   std::size_t messages, double rate, std::size_t payload,
                   bool faulted) {
  const auto wall_start = std::chrono::steady_clock::now();
  workload::SimpleTreeSystem::Config config;
  config.seed = seed;
  config.num_nodes = nodes;
  config.join_spread = sim::Duration::seconds(20);
  config.stabilization = sim::Duration::seconds(10);
  workload::SimpleTreeSystem system(config);
  system.bootstrap();
  // Bootstrap churns far more pending events than steady state (joins,
  // per-host arming); release the slack so back-to-back sweep cells do not
  // stack each other's peak footprint.
  system.simulator().shrink();
  // SimpleTree has no spawn/kill API, but the sweep's fault plan only uses
  // drop/crash/stop, which the fault hooks cover: the interesting number is
  // how much a repair-less tree loses under the same faults (§III-D b).
  workload::ChurnHooks hooks;
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
  workload::ChurnDriver driver(
      system.simulator(), workload::ChurnScript::parse(fault_script(nodes)),
      hooks);
  if (faulted) driver.arm();
  system.run_stream(messages, rate, payload, sim::Duration::seconds(20));

  RunResult result;
  result.protocol = "tree";
  result.nodes = nodes;
  std::vector<net::NodeId> ids = system.all_ids();
  fill_delivery_metrics(
      ids, system.source_id(), system.messages_sent(),
      [&system](net::NodeId id) -> const auto& {
        return system.node(id).stats().delivery_time;
      },
      &result);
  finish_run(system, faulted, wall_start, &result);
  return result;
}

RunResult run_tag(std::uint64_t seed, std::size_t nodes, std::size_t messages,
                  double rate, std::size_t payload, bool faulted) {
  const auto wall_start = std::chrono::steady_clock::now();
  workload::TagSystem::Config config;
  config.seed = seed;
  config.num_nodes = nodes;
  config.join_spread = sim::Duration::seconds(20);
  config.stabilization = sim::Duration::seconds(20);
  workload::TagSystem system(config);
  system.bootstrap();
  // Bootstrap churns far more pending events than steady state (joins,
  // per-host arming); release the slack so back-to-back sweep cells do not
  // stack each other's peak footprint.
  system.simulator().shrink();
  workload::ChurnDriver driver(
      system.simulator(),
      workload::ChurnScript::parse(fault_script(nodes)),
      system.churn_hooks());
  if (faulted) driver.arm();
  system.run_stream(messages, rate, payload, sim::Duration::seconds(30));

  RunResult result;
  result.protocol = "tag";
  result.nodes = nodes;
  fill_delivery_metrics(
      system.member_ids(), system.source_id(), system.messages_sent(),
      [&system](net::NodeId id) -> const auto& {
        return system.node(id).stats().delivery_time;
      },
      &result);
  finish_run(system, faulted, wall_start, &result);
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
  // sizes / protocols / messages stay unset: their defaults depend on
  // --quick and are resolved inside scale_sweep_run.
  s.set("scenario", "name", "scale_sweep")
      .set("scenario", "report", "scale_sweep")
      .set("scenario", "seed", "1")
      .set("streams", "rate-per-s", "5")
      .set("streams", "payload", "256")
      .set("params", "baseline-cap", "10000");
  return s;
}

int scale_sweep_run(const workload::Scenario& scenario) {
  const bool quick = scenario.param_bool("quick", false);
  const std::vector<std::int64_t> sizes = scenario.param_int_list(
      "sizes", quick ? std::vector<std::int64_t>{10'000}
                     : std::vector<std::int64_t>{1'000, 10'000, 100'000});
  const std::string protocols = scenario.param_string(
      "protocols", quick ? "brisa" : "brisa,gossip,tree,tag");
  const auto baseline_cap =
      static_cast<std::size_t>(scenario.param_int("baseline-cap", 10'000));
  const std::size_t messages = scenario.messages_or(quick ? 10 : 20);
  const double rate = scenario.rate_or(5.0);
  const std::size_t payload = scenario.payload_or(256);
  const std::uint64_t seed = scenario.seed_or(1);
  const bool fault_variant = scenario.param_bool("fault-variant", true);
  // --variants names the fault variants to run explicitly (the sweep grid's
  // per-cell form); it defaults to what --fault-variant implies.
  const std::string variants = scenario.param_string(
      "variants", fault_variant ? "clean,faulted" : "clean");

  const auto wants = [&protocols](const char* name) {
    return protocols.find(name) != std::string::npos;
  };
  const auto wants_variant = [&variants](const char* name) {
    return variants.find(name) != std::string::npos;
  };

  std::vector<RunResult> results;
  for (const std::int64_t size : sizes) {
    const auto nodes = static_cast<std::size_t>(size);
    const bool baseline_size = nodes <= baseline_cap;
    for (const bool faulted : {false, true}) {
      if (!wants_variant(faulted ? "faulted" : "clean")) continue;
      if (wants("brisa")) {
        std::fprintf(stderr, "running brisa %zu %s...\n", nodes,
                     faulted ? "faulted" : "clean");
        results.push_back(
            run_brisa(seed, nodes, messages, rate, payload, faulted));
        print_row(results.back());
      }
      if (wants("gossip")) {
        if (!baseline_size) {
          std::printf("gossip  %8zu nodes: skipped (above --baseline-cap "
                      "%zu)\n", nodes, baseline_cap);
        } else {
          std::fprintf(stderr, "running gossip %zu %s...\n", nodes,
                       faulted ? "faulted" : "clean");
          results.push_back(
              run_gossip(seed, nodes, messages, rate, payload, faulted));
          print_row(results.back());
        }
      }
      if (wants("tree")) {
        if (!baseline_size) {
          std::printf("tree    %8zu nodes: skipped (above --baseline-cap "
                      "%zu)\n", nodes, baseline_cap);
        } else {
          std::fprintf(stderr, "running tree %zu %s...\n", nodes,
                       faulted ? "faulted" : "clean");
          results.push_back(
              run_tree(seed, nodes, messages, rate, payload, faulted));
          print_row(results.back());
        }
      }
      if (wants("tag")) {
        if (!baseline_size) {
          std::printf("tag     %8zu nodes: skipped (above --baseline-cap "
                      "%zu)\n", nodes, baseline_cap);
        } else {
          std::fprintf(stderr, "running tag %zu %s...\n", nodes,
                       faulted ? "faulted" : "clean");
          results.push_back(
              run_tag(seed, nodes, messages, rate, payload, faulted));
          print_row(results.back());
        }
      }
    }
  }

  for (const RunResult& r : results) print_json(r, messages, seed);

  // The scale claim under test: a clean BRISA broadcast delivers everything
  // at every width. Passing vacuously is not passing — when the
  // configuration ASKS for clean BRISA runs, zero of them is a failure. A
  // configuration that deliberately requests none (a sweep cell running
  // only gossip, or only the faulted variant) has nothing to validate and
  // must not fail for it.
  const bool expects_clean_brisa = wants("brisa") && wants_variant("clean");
  bool ok = true;
  std::size_t clean_brisa_runs = 0;
  for (const RunResult& r : results) {
    if (r.protocol != "brisa" || r.faulted) continue;
    ++clean_brisa_runs;
    if (!r.complete || r.reliability < 1.0) {
      ok = false;
      std::printf("scale check: brisa %zu nodes clean fell short "
                  "(reliability %.4f%%, complete: %s)\n",
                  r.nodes, r.reliability * 100.0, r.complete ? "yes" : "no");
    }
  }
  if (!expects_clean_brisa) {
    std::printf("scale check: skipped (configuration requests no clean "
                "BRISA run)\n");
    return 0;
  }
  if (clean_brisa_runs == 0) {
    std::printf("scale check: NOT VALIDATED — no clean BRISA run in this "
                "configuration\n");
    return 1;
  }
  if (ok) {
    std::printf("scale check: clean BRISA runs delivered 100%% at every "
                "width\n");
  }
  return ok ? 0 : 1;
}

}  // namespace brisa::reports::impl
