// Multi-stream dissemination sweep: K concurrent BRISA streams (each with
// its own source and emergent tree) multiplexed over one shared HyParView
// substrate, under mild churn (10% loss + a crash burst).
//
// The economy argument under test (§IV "Multiple Trees"): because structure
// emerges from the epidemic substrate, additional streams cost only their
// per-stream state — reliability per stream must not degrade as the forest
// grows, and the shared membership layer is paid once.
//
// Prints a per-stream table per configuration plus one JSON line per
// (config, stream) and per-config aggregate; a recorded run lives in
// BENCH_multi_stream.json at the repo root.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/stream_report.h"
#include "reports/metrics.h"
#include "reports/reports_impl.h"
#include "workload/churn.h"
#include "workload/pubsub.h"

namespace brisa::reports::impl {

namespace {

struct ConfigResult {
  std::size_t streams = 0;
  std::vector<analysis::StreamRow> rows;
  analysis::StreamRow aggregate;
  double min_reliability = 0;
  double wall_seconds = 0;
  std::uint64_t events_fired = 0;
};

ConfigResult run_config(std::uint64_t seed, std::size_t nodes,
                        std::size_t streams, std::size_t messages,
                        double rate, std::size_t payload, double fraction,
                        bool churn) {
  const auto wall_start = std::chrono::steady_clock::now();

  workload::BrisaSystem::Config config;
  config.seed = seed;
  config.num_nodes = nodes;
  config.num_streams = streams;
  config.join_spread = sim::Duration::seconds(20);
  config.stabilization = sim::Duration::seconds(25);
  workload::BrisaSystem system(config);
  system.bootstrap();

  // The same churn for every configuration: uniform loss over the first
  // 20 s of the stream plus a crash burst (recovering nodes re-join every
  // stream's structure at once).
  workload::ChurnDriver driver(
      system.simulator(),
      workload::ChurnScript::parse("from 0 s to 20 s drop 10%\n"
                                   "at 5 s crash 8 for 10 s\n"
                                   "at 60 s stop\n"),
      system.churn_hooks());
  if (churn) driver.arm();

  workload::PubSubDriver::Config pubsub;
  pubsub.streams = workload::uniform_streams(streams, messages, rate, payload);
  pubsub.subscription_fraction = fraction;
  workload::PubSubDriver pubsub_driver(
      system.simulator(), pubsub,
      [&system](net::StreamId stream, std::size_t bytes) {
        return system.publish(stream, bytes);
      });
  pubsub_driver.run(sim::Duration::seconds(30));

  ConfigResult result;
  result.streams = streams;
  result.rows = collect_stream_rows(system, pubsub_driver);
  result.aggregate = analysis::aggregate_streams(result.rows);
  result.min_reliability = 1.0;
  for (const analysis::StreamRow& row : result.rows) {
    result.min_reliability = std::min(result.min_reliability, row.reliability);
  }
  result.events_fired = system.simulator().events_fired();
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return result;
}

void print_json(const ConfigResult& result, std::size_t nodes,
                std::size_t messages, double fraction, std::uint64_t seed) {
  for (const analysis::StreamRow& row : result.rows) {
    std::printf(
        "{\"bench\":\"multi_stream\",\"nodes\":%zu,\"streams\":%zu,"
        "\"messages\":%zu,\"subscription_fraction\":%.3f,\"seed\":%llu,"
        "%s\n",
        nodes, result.streams, messages, fraction,
        static_cast<unsigned long long>(seed),
        analysis::stream_row_json(row, "stream").c_str() + 1);
  }
  std::printf(
      "{\"bench\":\"multi_stream\",\"nodes\":%zu,\"streams\":%zu,"
      "\"messages\":%zu,\"subscription_fraction\":%.3f,\"seed\":%llu,"
      "\"min_reliability\":%.6f,\"events_fired\":%llu,"
      "\"wall_seconds\":%.2f,%s\n",
      nodes, result.streams, messages, fraction,
      static_cast<unsigned long long>(seed), result.min_reliability,
      static_cast<unsigned long long>(result.events_fired),
      result.wall_seconds,
      analysis::stream_row_json(result.aggregate, "all").c_str() + 1);
}

}  // namespace

workload::Scenario multi_stream_defaults() {
  workload::Scenario s;
  // nodes / messages / the stream sweep stay unset: their defaults depend
  // on --quick and are resolved inside multi_stream_run.
  s.set("scenario", "name", "multi_stream")
      .set("scenario", "report", "multi_stream")
      .set("scenario", "seed", "1")
      .set("streams", "rate-per-s", "5")
      .set("streams", "payload", "512")
      .set("streams", "subscription-fraction", "1");
  return s;
}

int multi_stream_run(const workload::Scenario& scenario) {
  const bool quick = scenario.param_bool("quick", false);
  const std::size_t nodes = scenario.nodes_or(quick ? 200 : 1000);
  const std::vector<std::int64_t> stream_counts = scenario.param_int_list(
      "streams", quick ? std::vector<std::int64_t>{1, 8}
                       : std::vector<std::int64_t>{1, 2, 4, 8, 16, 32, 64});
  const std::size_t messages = scenario.messages_or(quick ? 10 : 20);
  const double rate = scenario.rate_or(5.0);
  const std::size_t payload = scenario.payload_or(512);
  const double fraction = scenario.subscription_fraction_or(1.0);
  const std::uint64_t seed = scenario.seed_or(1);
  const bool churn = scenario.param_bool("churn", true);

  std::printf(
      "=== multi-stream sweep: %zu nodes, %zu msgs/stream at %.1f/s, "
      "subscription %.0f%%, churn %s ===\n",
      nodes, messages, rate, fraction * 100.0, churn ? "on" : "off");

  if (stream_counts.empty()) {
    std::fprintf(stderr, "error: --streams list is empty\n");
    return 2;
  }
  std::vector<ConfigResult> results;
  for (const std::int64_t streams : stream_counts) {
    std::fprintf(stderr, "running %lld stream(s)...\n",
                 static_cast<long long>(streams));
    results.push_back(run_config(seed, nodes,
                                 static_cast<std::size_t>(streams), messages,
                                 rate, payload, fraction, churn));
    const ConfigResult& r = results.back();
    std::printf("--- %zu stream(s): min reliability %.2f%%, %.1fs wall, "
                "%.2fM events ---\n%s",
                r.streams, r.min_reliability * 100.0, r.wall_seconds,
                static_cast<double>(r.events_fired) / 1e6,
                analysis::format_stream_table(r.rows).c_str());
  }

  for (const ConfigResult& r : results) {
    print_json(r, nodes, messages, fraction, seed);
  }

  // The economy check: no stream in the widest forest may fall below the
  // single-stream reliability under identical churn. Located by stream
  // count, not list position, so any --streams ordering works; without a
  // 1-stream run in the list there is no baseline and the check is skipped.
  const ConfigResult* single = nullptr;
  const ConfigResult* widest = &results.front();
  for (const ConfigResult& r : results) {
    if (r.streams == 1) single = &r;
    if (r.streams > widest->streams) widest = &r;
  }
  if (single == nullptr || widest->streams == 1) {
    std::printf("paper check: skipped (needs a 1-stream baseline and a "
                "wider forest in --streams)\n");
    return 0;
  }
  const bool ok = widest->min_reliability >= single->min_reliability;
  std::printf(
      "paper check: single-stream reliability %.2f%%; every stream of the "
      "%zu-stream forest >= that: %s (worst %.2f%%)\n",
      single->min_reliability * 100.0, widest->streams, ok ? "yes" : "NO",
      widest->min_reliability * 100.0);
  return ok ? 0 : 1;
}

}  // namespace brisa::reports::impl
