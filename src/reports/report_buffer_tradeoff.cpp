// Buffer tradeoff: reliability vs per-node store bound, for every protocol
// and eviction policy. The Chen & Choi phase structure under test: with
// unbounded stores every protocol delivers 100%; as the bound tightens past
// the working-set size, repair/pull traffic starts missing evicted payloads
// and reliability falls off a cliff whose position (not slope) is what the
// eviction policy moves.
//
// Per (protocol, entries, policy) cell it prints one human row and one JSON
// line; a recorded run lives in BENCH_buffer.json at the repo root.
// entries=0 is the unbounded control cell and runs once per protocol (the
// eviction policy is meaningless without a bound). SimpleTree relays without
// a store, so its reliability must stay flat across the sweep — it rides
// along as the control protocol.
//
// Exits non-zero when any unbounded cell misses complete delivery: the sweep
// only means something against a clean baseline.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/stats.h"
#include "reports/metrics.h"
#include "reports/reports_impl.h"
#include "workload/baseline_systems.h"
#include "workload/brisa_system.h"
#include "workload/churn.h"

namespace brisa::reports::impl {

namespace {

struct CellResult {
  std::string protocol;
  std::size_t entries = 0;    ///< store entry bound (0 = unbounded)
  std::size_t bytes = 0;      ///< store byte bound (0 = unbounded)
  std::string policy;         ///< "oldest-first" | "delivered-first" | "-"
  double reliability = 0.0;
  bool complete = false;
  double p50_ms = 0.0;
  std::uint64_t evictions = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t messages_sent = 0;
  double wall_seconds = 0.0;
};

/// Reliability + p50 over per-node delivery instants (same shape as the
/// scale sweep, minus the tail percentile — the cliff is a median story).
template <typename TimesOf>
void fill_delivery_metrics(const std::vector<net::NodeId>& ids,
                           net::NodeId source, std::uint64_t sent,
                           const TimesOf& times_of, CellResult* result) {
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
}

struct CellParams {
  std::uint64_t seed = 1;
  std::size_t nodes = 512;
  std::size_t messages = 40;
  double rate = 5.0;
  std::size_t payload = 256;
  bool faulted = true;
  net::Limits limits;
};

/// The pressure source: without faults nothing ever asks for an old payload
/// and a bounded store is free. Same mild plan as the scale sweep — 5%
/// uniform loss over the first 15 s plus a 1% crash burst recovering after
/// 10 s — so the repair traffic it forces is what hits the store bound.
std::string fault_script(std::size_t nodes) {
  const std::size_t crash = std::max<std::size_t>(3, nodes / 100);
  return "from 0 s to 15 s drop 5%\nat 5 s crash " + std::to_string(crash) +
         " for 10 s\nat 60 s stop\n";
}

CellResult run_brisa(const CellParams& p) {
  const auto wall_start = std::chrono::steady_clock::now();
  workload::BrisaSystem::Config config;
  config.seed = p.seed;
  config.num_nodes = p.nodes;
  config.join_spread = sim::Duration::seconds(20);
  config.stabilization = sim::Duration::seconds(25);
  config.brisa.limits = p.limits;
  workload::BrisaSystem system(config);
  system.bootstrap();
  workload::ChurnDriver driver(
      system.simulator(), workload::ChurnScript::parse(fault_script(p.nodes)),
      system.churn_hooks());
  if (p.faulted) driver.arm();
  system.run_stream(p.messages, p.rate, p.payload, sim::Duration::seconds(20));

  CellResult result;
  result.protocol = "brisa";
  fill_delivery_metrics(
      system.member_ids(), system.source_id(), system.messages_sent(),
      [&system](net::NodeId id) -> const auto& {
        return system.brisa(id).stats().delivery_time;
      },
      &result);
  result.complete = system.complete_delivery();
  for (const net::NodeId id : system.member_ids()) {
    result.evictions += system.brisa(id).stats().buffer_evictions;
    result.duplicates += system.brisa(id).stats().duplicates;
  }
  result.messages_sent = system.network().messages_sent();
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return result;
}

CellResult run_gossip(const CellParams& p) {
  const auto wall_start = std::chrono::steady_clock::now();
  workload::SimpleGossipSystem::Config config;
  config.seed = p.seed;
  config.num_nodes = p.nodes;
  config.fanout = workload::gossip_fanout_for(p.nodes);
  config.join_spread = sim::Duration::seconds(20);
  config.stabilization = sim::Duration::seconds(10);
  config.gossip.limits = p.limits;
  workload::SimpleGossipSystem system(config);
  system.bootstrap();
  workload::ChurnDriver driver(
      system.simulator(), workload::ChurnScript::parse(fault_script(p.nodes)),
      system.churn_hooks());
  if (p.faulted) driver.arm();
  system.run_stream(p.messages, p.rate, p.payload, sim::Duration::seconds(20));

  CellResult result;
  result.protocol = "gossip";
  fill_delivery_metrics(
      system.member_ids(), system.source_id(), system.messages_sent(),
      [&system](net::NodeId id) -> const auto& {
        return system.node(id).stats().delivery_time;
      },
      &result);
  result.complete = system.complete_delivery();
  for (const net::NodeId id : system.member_ids()) {
    result.evictions += system.node(id).evictions();
    result.duplicates += system.node(id).stats().duplicates;
  }
  result.messages_sent = system.network().messages_sent();
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return result;
}

CellResult run_tree(const CellParams& p) {
  const auto wall_start = std::chrono::steady_clock::now();
  workload::SimpleTreeSystem::Config config;
  config.seed = p.seed;
  config.num_nodes = p.nodes;
  config.join_spread = sim::Duration::seconds(20);
  config.stabilization = sim::Duration::seconds(10);
  config.limits = p.limits;
  workload::SimpleTreeSystem system(config);
  system.bootstrap();
  // SimpleTree has no spawn/kill API; the plan only needs drop/crash hooks.
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
      system.simulator(), workload::ChurnScript::parse(fault_script(p.nodes)),
      hooks);
  if (p.faulted) driver.arm();
  system.run_stream(p.messages, p.rate, p.payload, sim::Duration::seconds(20));

  CellResult result;
  result.protocol = "tree";
  fill_delivery_metrics(
      system.all_ids(), system.source_id(), system.messages_sent(),
      [&system](net::NodeId id) -> const auto& {
        return system.node(id).stats().delivery_time;
      },
      &result);
  result.complete = system.complete_delivery();
  for (const net::NodeId id : system.all_ids()) {
    result.duplicates += system.node(id).stats().duplicates;
  }
  result.messages_sent = system.network().messages_sent();
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return result;
}

CellResult run_tag(const CellParams& p) {
  const auto wall_start = std::chrono::steady_clock::now();
  workload::TagSystem::Config config;
  config.seed = p.seed;
  config.num_nodes = p.nodes;
  config.join_spread = sim::Duration::seconds(20);
  config.stabilization = sim::Duration::seconds(20);
  config.tag.limits = p.limits;
  workload::TagSystem system(config);
  system.bootstrap();
  workload::ChurnDriver driver(
      system.simulator(), workload::ChurnScript::parse(fault_script(p.nodes)),
      system.churn_hooks());
  if (p.faulted) driver.arm();
  system.run_stream(p.messages, p.rate, p.payload, sim::Duration::seconds(30));

  CellResult result;
  result.protocol = "tag";
  fill_delivery_metrics(
      system.member_ids(), system.source_id(), system.messages_sent(),
      [&system](net::NodeId id) -> const auto& {
        return system.node(id).stats().delivery_time;
      },
      &result);
  result.complete = system.complete_delivery();
  for (const net::NodeId id : system.member_ids()) {
    result.evictions += system.node(id).evictions();
    result.duplicates += system.node(id).stats().duplicates;
  }
  result.messages_sent = system.network().messages_sent();
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return result;
}

void print_row(const CellResult& r) {
  std::printf(
      "%-7s entries %5zu bytes %8zu %-15s: reliability %7.3f%% "
      "(complete: %s), p50 %7.1f ms, %8llu evictions, %8llu dups, "
      "%5.1fs wall\n",
      r.protocol.c_str(), r.entries, r.bytes,
      r.entries == 0 && r.bytes == 0 ? "(unbounded)" : r.policy.c_str(),
      r.reliability * 100.0, r.complete ? "yes" : "NO", r.p50_ms,
      static_cast<unsigned long long>(r.evictions),
      static_cast<unsigned long long>(r.duplicates), r.wall_seconds);
}

void print_json(const CellResult& r, const CellParams& p) {
  std::printf(
      "{\"bench\":\"buffer_tradeoff\",\"protocol\":\"%s\",\"nodes\":%zu,"
      "\"entries\":%zu,\"store_bytes\":%zu,\"policy\":\"%s\",\"bloom\":%s,"
      "\"rate_control\":%s,\"faulted\":%s,\"messages\":%zu,\"seed\":%llu,"
      "\"reliability\":%.6f,\"complete_delivery\":%s,\"p50_ms\":%.3f,"
      "\"evictions\":%llu,\"duplicates\":%llu,\"network_messages\":%llu,"
      "\"wall_seconds\":%.2f}\n",
      r.protocol.c_str(), p.nodes, r.entries, r.bytes, r.policy.c_str(),
      p.limits.bloom_digests ? "true" : "false",
      p.limits.rate_control ? "true" : "false",
      p.faulted ? "true" : "false", p.messages,
      static_cast<unsigned long long>(p.seed), r.reliability,
      r.complete ? "true" : "false", r.p50_ms,
      static_cast<unsigned long long>(r.evictions),
      static_cast<unsigned long long>(r.duplicates),
      static_cast<unsigned long long>(r.messages_sent), r.wall_seconds);
}

}  // namespace

workload::Scenario buffer_tradeoff_defaults() {
  workload::Scenario s;
  // entries / protocols / policies stay unset: their defaults depend on
  // --quick and are resolved inside buffer_tradeoff_run.
  s.set("scenario", "name", "buffer_tradeoff")
      .set("scenario", "report", "buffer_tradeoff")
      .set("scenario", "seed", "1")
      .set("streams", "rate-per-s", "5")
      .set("streams", "payload", "256");
  return s;
}

int buffer_tradeoff_run(const workload::Scenario& scenario) {
  const bool quick = scenario.param_bool("quick", false);
  const std::vector<std::int64_t> entries_list = scenario.param_int_list(
      "entries", quick ? std::vector<std::int64_t>{0, 8}
                       : std::vector<std::int64_t>{0, 4, 8, 16, 64});
  // Second bound axis: cap the store by payload bytes instead of (or on top
  // of) entry count. {0} keeps the classic entries-only grid.
  const std::vector<std::int64_t> bytes_list =
      scenario.param_int_list("store-bytes", {0});
  const std::string protocols = scenario.param_string(
      "protocols", quick ? "brisa,gossip" : "brisa,gossip,tree,tag");
  const std::string policies = scenario.param_string(
      "policies", quick ? "oldest-first" : "oldest-first,delivered-first");
  const bool bloom = scenario.param_bool("bloom", false);
  const bool rate_control = scenario.param_bool("rate-control", false);
  const bool faults = scenario.param_bool("faults", true);

  CellParams base;
  base.seed = scenario.seed_or(1);
  base.nodes = scenario.nodes_or(quick ? 128 : 512);
  base.messages = scenario.messages_or(quick ? 20 : 40);
  base.rate = scenario.rate_or(5.0);
  base.payload = scenario.payload_or(256);
  base.faulted = faults;
  base.limits.bloom_digests = bloom;
  base.limits.rate_control = rate_control;

  const auto wants = [&protocols](const char* name) {
    return protocols.find(name) != std::string::npos;
  };
  const auto wants_policy = [&policies](const char* name) {
    return policies.find(name) != std::string::npos;
  };

  struct Cell {
    std::size_t entries;
    std::size_t bytes;
    net::EvictionPolicy policy;
    const char* policy_name;
  };
  std::vector<Cell> cells;
  for (const std::int64_t e : entries_list) {
    for (const std::int64_t b : bytes_list) {
      const auto entries = static_cast<std::size_t>(e);
      const auto bytes = static_cast<std::size_t>(b);
      if (entries == 0 && bytes == 0) {
        // Unbounded control: the policy never fires, run the cell once.
        cells.push_back({0, 0, net::EvictionPolicy::kOldestFirst, "-"});
        continue;
      }
      if (wants_policy("oldest-first")) {
        cells.push_back(
            {entries, bytes, net::EvictionPolicy::kOldestFirst,
             "oldest-first"});
      }
      if (wants_policy("delivered-first")) {
        cells.push_back(
            {entries, bytes, net::EvictionPolicy::kDeliveredFirst,
             "delivered-first"});
      }
    }
  }

  std::vector<std::pair<CellResult, CellParams>> results;
  for (const Cell& cell : cells) {
    CellParams p = base;
    p.limits.store_entries = cell.entries;
    p.limits.store_bytes = cell.bytes;
    p.limits.eviction = cell.policy;
    for (const char* protocol : {"brisa", "gossip", "tree", "tag"}) {
      if (!wants(protocol)) continue;
      std::fprintf(stderr,
                   "running %s entries=%zu bytes=%zu policy=%s...\n",
                   protocol, cell.entries, cell.bytes, cell.policy_name);
      CellResult r;
      if (protocol == std::string("brisa")) r = run_brisa(p);
      else if (protocol == std::string("gossip")) r = run_gossip(p);
      else if (protocol == std::string("tree")) r = run_tree(p);
      else r = run_tag(p);
      r.entries = cell.entries;
      r.bytes = cell.bytes;
      r.policy = cell.policy_name;
      print_row(r);
      results.emplace_back(std::move(r), p);
    }
  }

  for (const auto& [r, p] : results) print_json(r, p);

  // The sweep reads off a cliff position, which needs the unbounded control
  // cells at 100%: an incomplete control run means the configuration (not
  // the bound) is dropping messages. Repair-less SimpleTree legitimately
  // loses under the fault plan (§III-D b), so only the repairing protocols
  // are gated.
  bool ok = true;
  std::size_t control_cells = 0;
  for (const auto& [r, p] : results) {
    if (r.entries != 0 || r.bytes != 0 || r.protocol == "tree") continue;
    ++control_cells;
    if (!r.complete) {
      ok = false;
      std::printf("buffer check: %s unbounded control fell short "
                  "(reliability %.4f%%)\n",
                  r.protocol.c_str(), r.reliability * 100.0);
    }
  }
  if (control_cells == 0) {
    std::printf("buffer check: skipped (no unbounded control cell in this "
                "configuration)\n");
    return 0;
  }
  if (ok) {
    std::printf("buffer check: all unbounded control cells delivered "
                "completely\n");
  }
  return ok ? 0 : 1;
}

}  // namespace brisa::reports::impl
