// The generic declarative runner behind `report = run` (the default when a
// scenario names no figure report): build the configured protocol system on
// the configured topology, arm the churn/fault trace, drive the stream
// workload, and report per-stream delivery rows — as a table, optional CDF,
// and scenario-tagged JSON lines.
//
// This is the entry point that opens workloads the paper never measured:
// any (protocol x topology x streams x faults) combination expressible in a
// .scn file runs here with no new C++.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "analysis/stats.h"
#include "analysis/stream_report.h"
#include "reports/metrics.h"
#include "reports/reports_impl.h"
#include "workload/churn.h"
#include "workload/pubsub.h"
#include "workload/scenario.h"

namespace brisa::reports::impl {

namespace {

/// Everything the generic loop needs from a concrete system harness.
struct SystemAdapter {
  std::function<bool(net::StreamId, std::size_t)> publish;
  std::function<net::NodeId(net::StreamId)> source_of;
  /// Per-(node, stream) delivery times / duplicates, erased into rows.
  std::function<void(const workload::PubSubDriver&,
                     std::vector<analysis::StreamRow>&)>
      collect;
  std::function<std::vector<double>()> delivery_delays_ms;
  workload::ChurnHooks hooks;
};

/// Delivery delays (source injection -> delivery) across all streams, for
/// the optional CDF sink.
template <typename StatsOf, typename SourceOf>
std::vector<double> collect_delays_ms(const std::vector<net::NodeId>& ids,
                                      std::size_t streams, StatsOf stats_of,
                                      SourceOf source_of) {
  std::vector<double> delays;
  for (std::size_t stream = 0; stream < streams; ++stream) {
    const net::NodeId source =
        source_of(static_cast<net::StreamId>(stream));
    const auto& source_times =
        stats_of(source, static_cast<net::StreamId>(stream)).delivery_time;
    for (const net::NodeId id : ids) {
      if (id == source) continue;
      const auto& stats = stats_of(id, static_cast<net::StreamId>(stream));
      for (const auto& [seq, at] : stats.delivery_time) {
        const auto it = source_times.find(seq);
        if (it == source_times.end()) continue;
        delays.push_back((at - it->second).to_milliseconds());
      }
    }
  }
  return delays;
}

/// `ids_of()` names the population rows are computed over — member_ids()
/// where the harness tracks liveness (gossip/tag), all_ids() for the
/// static tree.
template <typename System, typename StatsOf, typename IdsOf>
SystemAdapter make_adapter(System& system, std::size_t streams,
                           StatsOf stats_of, IdsOf ids_of) {
  SystemAdapter adapter;
  adapter.publish = [&system](net::StreamId stream, std::size_t bytes) {
    return system.publish(stream, bytes);
  };
  adapter.source_of = [&system](net::StreamId) { return system.source_id(); };
  adapter.collect = [&system, stats_of, ids_of](
                        const workload::PubSubDriver& driver,
                        std::vector<analysis::StreamRow>& rows) {
    rows = collect_stream_rows_generic(
        driver, ids_of(system),
        [&system, stats_of](net::NodeId id, net::StreamId stream)
            -> const auto& { return stats_of(system, id, stream); },
        [&system](net::StreamId) { return system.source_id(); });
  };
  adapter.delivery_delays_ms = [&system, streams, stats_of, ids_of] {
    return collect_delays_ms(
        ids_of(system), streams,
        [&system, stats_of](net::NodeId id, net::StreamId stream)
            -> const auto& { return stats_of(system, id, stream); },
        [&system](net::StreamId) { return system.source_id(); });
  };
  return adapter;
}

/// True when the churn script needs a full membership API (joins or
/// continuous churn), which SimpleTree's fixed coordinator topology lacks.
bool needs_membership_churn(const workload::ChurnScript& script) {
  for (const workload::ChurnAction& action : script.actions()) {
    if (std::holds_alternative<workload::JoinSpan>(action) ||
        std::holds_alternative<workload::ConstChurn>(action)) {
      return true;
    }
  }
  return false;
}

}  // namespace

workload::Scenario generic_defaults() {
  workload::Scenario s;
  s.set("scenario", "report", "run");
  return s;
}

int generic_run(const workload::Scenario& s) {
  const std::string protocol = s.protocol_or("brisa");
  const std::size_t nodes = s.nodes_or(512);
  const std::size_t streams = s.streams_or(1);
  const std::size_t messages = s.messages_or(100);
  const double rate = s.rate_or(5.0);
  const std::size_t payload = s.payload_or(1024);
  const double fraction = s.subscription_fraction_or(1.0);
  const std::uint64_t seed = s.seed_or(1);
  const sim::Duration grace = sim::Duration::milliseconds(
      static_cast<std::int64_t>(s.grace_s.value_or(30.0) * 1e3));

  std::printf(
      "=== scenario %s: %s, %zu nodes, topology %s, %zu stream(s), "
      "%zu msgs/stream at %.1f/s, seed %llu ===\n",
      s.name_or("(unnamed)").c_str(), protocol.c_str(), nodes,
      s.topology_or("cluster").c_str(), streams, messages, rate,
      static_cast<unsigned long long>(seed));

  // The four harnesses have no common base for per-stream stats, so each
  // branch builds its system and erases the differences into an adapter.
  std::unique_ptr<workload::BrisaSystem> brisa;
  std::unique_ptr<workload::SimpleTreeSystem> tree;
  std::unique_ptr<workload::SimpleGossipSystem> gossip;
  std::unique_ptr<workload::TagSystem> tag;
  SystemAdapter adapter;
  workload::SystemBase* base = nullptr;

  if (protocol == "brisa") {
    // Not make_adapter(): BRISA is the one harness with per-stream sources
    // and a member/all distinction, so its adapter is hand-rolled.
    brisa = std::make_unique<workload::BrisaSystem>(
        workload::scenario_brisa_config(s));
    base = brisa.get();
    auto& sys = *brisa;
    adapter.publish = [&sys](net::StreamId stream, std::size_t bytes) {
      return sys.publish(stream, bytes);
    };
    adapter.source_of = [&sys](net::StreamId stream) {
      return sys.source_id(stream);
    };
    adapter.collect = [&sys](const workload::PubSubDriver& driver,
                             std::vector<analysis::StreamRow>& rows) {
      rows = collect_stream_rows(sys, driver);
    };
    adapter.delivery_delays_ms = [&sys, streams] {
      return collect_delays_ms(
          sys.member_ids(), streams,
          [&sys](net::NodeId id, net::StreamId stream) -> const auto& {
            return sys.brisa(id, stream).stats();
          },
          [&sys](net::StreamId stream) { return sys.source_id(stream); });
    };
    adapter.hooks = brisa->churn_hooks();
  } else if (protocol == "tree") {
    tree = std::make_unique<workload::SimpleTreeSystem>(
        workload::scenario_tree_config(s));
    base = tree.get();
    adapter = make_adapter(
        *tree, streams,
        [](workload::SimpleTreeSystem& sys, net::NodeId id,
           net::StreamId stream) -> const auto& {
          return sys.node(id).stats(stream);
        },
        [](workload::SimpleTreeSystem& sys) { return sys.all_ids(); });
    // SimpleTree has no spawn/kill API; stubs keep ChurnDriver's invariant
    // while needs_membership_churn() rejects scripts that would use them.
    adapter.hooks.spawn = [] {};
    adapter.hooks.kill = [](net::NodeId) {};
    adapter.hooks.population = [&sys = *tree] {
      std::vector<net::NodeId> alive;
      for (const net::NodeId id : sys.all_ids()) {
        if (sys.network().alive(id)) alive.push_back(id);
      }
      return alive;
    };
    tree->fill_fault_hooks(adapter.hooks);
  } else if (protocol == "gossip") {
    gossip = std::make_unique<workload::SimpleGossipSystem>(
        workload::scenario_gossip_config(s));
    base = gossip.get();
    adapter = make_adapter(
        *gossip, streams,
        [](workload::SimpleGossipSystem& sys, net::NodeId id,
           net::StreamId stream) -> const auto& {
          return sys.node(id).stats(stream);
        },
        [](workload::SimpleGossipSystem& sys) { return sys.member_ids(); });
    adapter.hooks = gossip->churn_hooks();
  } else if (protocol == "tag") {
    tag = std::make_unique<workload::TagSystem>(
        workload::scenario_tag_config(s));
    base = tag.get();
    adapter = make_adapter(
        *tag, streams,
        [](workload::TagSystem& sys, net::NodeId id, net::StreamId stream)
            -> const auto& { return sys.node(id).stats(stream); },
        [](workload::TagSystem& sys) { return sys.member_ids(); });
    adapter.hooks = tag->churn_hooks();
  } else {
    std::fprintf(stderr, "error: unknown protocol '%s'\n", protocol.c_str());
    return 2;
  }

  if (protocol == "brisa") {
    brisa->bootstrap();
  } else if (protocol == "tree") {
    tree->bootstrap();
  } else if (protocol == "gossip") {
    gossip->bootstrap();
  } else {
    tag->bootstrap();
  }

  std::unique_ptr<workload::ChurnDriver> driver;
  if (!s.churn_dsl.empty()) {
    workload::ChurnScript script = workload::ChurnScript::parse(s.churn_dsl);
    if (protocol == "tree" && needs_membership_churn(script)) {
      std::fprintf(stderr,
                   "error: protocol 'tree' supports fault statements only "
                   "(drop/partition/crash/slow) — it has no join/churn "
                   "membership\n");
      return 2;
    }
    driver = std::make_unique<workload::ChurnDriver>(
        base->simulator(), std::move(script), adapter.hooks);
    driver->arm();
  }

  workload::PubSubDriver::Config pubsub;
  pubsub.streams =
      workload::uniform_streams(streams, messages, rate, payload);
  pubsub.subscription_fraction = fraction;
  if (s.zipf_exponent) pubsub.zipf_exponent = *s.zipf_exponent;
  if (s.flash_messages) {
    pubsub.flash_messages = *s.flash_messages;
    pubsub.flash_at = sim::Duration::milliseconds(
        static_cast<std::int64_t>(s.flash_at_s.value_or(0.0) * 1e3));
    if (s.flash_rate) pubsub.flash_rate_per_s = *s.flash_rate;
  }
  workload::PubSubDriver pubsub_driver(base->simulator(), pubsub,
                                       adapter.publish);
  pubsub_driver.run(grace);

  std::vector<analysis::StreamRow> rows;
  adapter.collect(pubsub_driver, rows);
  const analysis::StreamRow aggregate = analysis::aggregate_streams(rows);

  if (driver != nullptr) {
    const workload::ChurnDriver::Counters& c = driver->counters();
    const net::Network::FaultTotals& f = base->network().fault_totals();
    std::printf(
        "churn/faults: %llu joins, %llu kills, %llu crashes, %llu "
        "recoveries; %llu datagrams dropped, %llu blackholed, %llu "
        "retransmissions\n",
        static_cast<unsigned long long>(c.joins),
        static_cast<unsigned long long>(c.kills),
        static_cast<unsigned long long>(c.crashes),
        static_cast<unsigned long long>(c.recoveries),
        static_cast<unsigned long long>(f.datagrams_dropped),
        static_cast<unsigned long long>(f.datagrams_blackholed),
        static_cast<unsigned long long>(f.retransmissions));
  }
  std::printf("%s", analysis::format_stream_table(rows).c_str());

  if (s.cdf.value_or(false)) {
    print_cdf("delivery delay CDF (ms percent)",
              adapter.delivery_delays_ms());
  }

  if (s.json.value_or(true)) {
    const std::string topology = s.topology_or("cluster");
    const auto tag_line = [&](const analysis::StreamRow& row,
                              const char* scope) {
      std::printf(
          "{\"scenario\":\"%s\",\"protocol\":\"%s\",\"topology\":\"%s\","
          "\"nodes\":%zu,\"streams\":%zu,\"messages\":%zu,\"seed\":%llu,%s\n",
          s.name_or("").c_str(), protocol.c_str(), topology.c_str(), nodes,
          streams, messages, static_cast<unsigned long long>(seed),
          analysis::stream_row_json(row, scope).c_str() + 1);
    };
    for (const analysis::StreamRow& row : rows) tag_line(row, "stream");
    tag_line(aggregate, "all");
  }

  // Optional gate for CI-style use: fail the run when aggregate
  // reliability drops below the scenario's floor.
  const double floor = s.param_double("min-reliability", 0.0);
  if (aggregate.reliability < floor) {
    std::printf("reliability %.4f below scenario floor %.4f\n",
                aggregate.reliability, floor);
    return 1;
  }
  return 0;
}

}  // namespace brisa::reports::impl
