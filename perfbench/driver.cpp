// perfbench_driver: one end-to-end run of a named BRISA workload.
//
// The driver exercises the stack only through its public entry points —
// workload::BrisaSystem (construct, bootstrap(), run_for, run_stream /
// publish), workload::ChurnDriver, workload::PubSubDriver and the analysis
// collectors — times each call, and reads every layer's public counters
// (sim::Simulator::stats(), net::Network::stats()/fault_totals(),
// HyParView::counters(), BrisaStream::stats()). It sets no executor knob, so
// every harness default applies.
//
//   perfbench_driver --workload upkeep_10k --seed 1 [--trace FILE]
//   perfbench_driver --split-check --workload churn_dag_2k --seed 1
//
// A run prints one JSON object on stdout: the end-to-end metrics, the output
// checks, and a digest of the simulated statistics. With --trace FILE it also
// records one span per driver call (construct, join, stabilize, disseminate,
// collect; all children of run) with the per-layer counter deltas over the
// span, writes the spans to FILE at exit, and adds the per-layer metrics.
//
// --split-check runs the workload at reduced size twice — once with the
// settling window inside bootstrap(), once bootstrapping with stabilization
// = 0 and then calling run_for(stabilization), as every measured run does —
// and exits non-zero unless both digests agree.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/stats.h"
#include "analysis/stream_report.h"
#include "workload/brisa_system.h"
#include "workload/churn.h"
#include "workload/pubsub.h"

namespace {

using namespace brisa;  // NOLINT(google-build-using-namespace)
using Clock = std::chrono::steady_clock;

// --- Workloads ---------------------------------------------------------------

struct Workload {
  std::string name;
  std::size_t nodes = 0;
  sim::Duration join_spread = sim::Duration::seconds(20);
  sim::Duration stabilization = sim::Duration::seconds(25);
  std::size_t streams = 1;
  std::size_t messages = 0;
  double rate_per_s = 0;
  std::size_t payload = 0;
  core::StructureMode mode = core::StructureMode::kTree;
  std::size_t parents = 1;
  /// Churn DSL armed when the run phase starts; empty = clean run.
  std::string churn;
  sim::Duration grace = sim::Duration::seconds(10);
  /// Drive stream 0 through BrisaSystem::run_stream (the scale_grid cell's
  /// path) instead of a PubSubDriver.
  bool run_stream = false;
  /// Checks that hold for this workload.
  bool expect_complete = false;
  /// Known HEAD output of the equivalent scale_grid cell at seed 1.
  bool scale_cell = false;
};

/// `reduced` shrinks nodes and messages (never the phase structure) for the
/// split-stabilisation check.
std::optional<Workload> find_workload(const std::string& name, bool reduced) {
  Workload w;
  w.name = name;
  if (name == "upkeep_10k") {
    // The 10k-node faulted BRISA cell of scenarios/scale_grid.scn.
    w.nodes = reduced ? 1000 : 10000;
    w.messages = reduced ? 10 : 20;
    w.rate_per_s = 5;
    w.payload = 256;
    w.churn = "from 0 s to 15 s drop 5%\nat 5 s crash " +
              std::to_string(w.nodes / 100) + " for 10 s\nat 60 s stop\n";
    w.grace = sim::Duration::seconds(20);
    w.run_stream = true;
    w.expect_complete = true;
    w.scale_cell = !reduced;
  } else if (name == "churn_dag_2k") {
    w.nodes = reduced ? 300 : 2000;
    w.streams = 4;
    w.messages = reduced ? 60 : 160;
    w.rate_per_s = 4;
    w.payload = 512;
    w.mode = core::StructureMode::kDag;
    w.parents = 2;
    w.churn = "from 0 s to 40 s const churn 1% each 4 s\n"
              "at 10 s crash " + std::to_string(w.nodes / 20) + " for 8 s\n"
              "from 0 s to 40 s drop 2%\n"
              "at 70 s stop\n";
    w.grace = sim::Duration::seconds(20);
  } else {
    return std::nullopt;
  }
  return w;
}

// --- Layer counters ------------------------------------------------------------

/// Every layer's public counters at one instant, keyed by metric name.
using Counters = std::map<std::string, double>;

constexpr const char* kClassNames[net::kTrafficClassCount] = {
    "membership", "control", "data"};

Counters read_counters(workload::BrisaSystem& system,
                       const workload::ChurnDriver* churn) {
  Counters c;
  const sim::Simulator::Stats sim = system.simulator().stats();
  c["sim.events"] = static_cast<double>(sim.events_fired);
  c["sim.scheduled"] = static_cast<double>(sim.events_scheduled);
  c["sim.cancelled"] = static_cast<double>(sim.events_cancelled);
  c["sim.heap_fallbacks"] = static_cast<double>(sim.callback_heap_fallbacks);
  c["sim.peak_pending"] = static_cast<double>(sim.peak_pending_events);
  c["sim.slab_slots"] = static_cast<double>(sim.event_slab_slots);

  const std::vector<net::NodeId> all = system.all_ids();
  net::Network& network = system.network();
  for (std::size_t k = 0; k < net::kTrafficClassCount; ++k) {
    double msgs = 0;
    double bytes = 0;
    for (const net::NodeId id : all) {
      msgs += static_cast<double>(network.stats(id).up_messages[k]);
      bytes += static_cast<double>(network.stats(id).up_bytes[k]);
    }
    c[std::string("net.msgs.") + kClassNames[k]] = msgs;
    c[std::string("net.bytes.") + kClassNames[k]] = bytes;
  }
  const net::Network::FaultTotals faults = network.fault_totals();
  c["net.retransmissions"] = static_cast<double>(faults.retransmissions);
  c["net.dropped"] =
      static_cast<double>(faults.datagrams_dropped + faults.segments_dropped);
  c["net.blackholed"] = static_cast<double>(faults.datagrams_blackholed +
                                            faults.segments_blackholed);
  c["net.peak_nic_backlog_ms"] = network.peak_nic_backlog().to_milliseconds();
  c["net.peak_cpu_backlog_ms"] = network.peak_cpu_backlog().to_milliseconds();

  membership::HyParView::Counters hpv;
  core::Brisa::Stats core;
  for (const net::NodeId id : all) {
    const membership::HyParView::Counters& h =
        system.hyparview(id).counters();
    hpv.joins_handled += h.joins_handled;
    hpv.shuffles_sent += h.shuffles_sent;
    hpv.failures_detected += h.failures_detected;
    hpv.promotions += h.promotions;
    hpv.neighbor_rejects += h.neighbor_rejects;
    for (std::size_t s = 0; s < system.config().num_streams; ++s) {
      const core::Brisa::Stats& b =
          system.brisa(id, static_cast<net::StreamId>(s)).stats();
      core.delivered += b.delivered;
      core.duplicates += b.duplicates;
      core.orphan_events += b.orphan_events;
      core.soft_repairs += b.soft_repairs;
      core.hard_repairs += b.hard_repairs;
      core.gap_recoveries += b.gap_recoveries;
      core.retransmissions_served += b.retransmissions_served;
      core.starvation_resets += b.starvation_resets;
    }
  }
  c["membership.joins"] = static_cast<double>(hpv.joins_handled);
  c["membership.shuffles"] = static_cast<double>(hpv.shuffles_sent);
  c["membership.failures_detected"] =
      static_cast<double>(hpv.failures_detected);
  c["membership.promotions"] = static_cast<double>(hpv.promotions);
  c["membership.neighbor_rejects"] = static_cast<double>(hpv.neighbor_rejects);
  c["core.delivered"] = static_cast<double>(core.delivered);
  c["core.duplicates"] = static_cast<double>(core.duplicates);
  c["core.orphan_events"] = static_cast<double>(core.orphan_events);
  c["core.soft_repairs"] = static_cast<double>(core.soft_repairs);
  c["core.hard_repairs"] = static_cast<double>(core.hard_repairs);
  c["core.gap_recoveries"] = static_cast<double>(core.gap_recoveries);
  c["core.retransmissions_served"] =
      static_cast<double>(core.retransmissions_served);
  c["core.starvation_resets"] = static_cast<double>(core.starvation_resets);

  if (churn != nullptr) {
    c["workload.churn_joins"] = static_cast<double>(churn->counters().joins);
    c["workload.churn_kills"] = static_cast<double>(churn->counters().kills);
    c["workload.churn_crashes"] =
        static_cast<double>(churn->counters().crashes);
  }
  return c;
}

/// Gauges keep their end value in a delta; everything else is monotone.
bool is_gauge(const std::string& name) {
  return name == "sim.peak_pending" || name == "sim.slab_slots" ||
         name == "net.peak_nic_backlog_ms" || name == "net.peak_cpu_backlog_ms";
}

Counters delta(const Counters& before, const Counters& after) {
  Counters d;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    d[name] = is_gauge(name) || it == before.end() ? value
                                                   : value - it->second;
  }
  return d;
}

// --- Spans -------------------------------------------------------------------

struct Span {
  std::string name;
  int id = 0;
  int parent = -1;
  double start_s = 0;  ///< host seconds since the driver started
  double end_s = 0;
  Counters deltas;
};

/// Records one span per driver call when tracing; otherwise only times the
/// call. Counter reads happen outside the timed interval, so a span's
/// duration is the layer call alone.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Times `call`, which may create the system (construct span), and
  /// returns the span's duration in seconds.
  template <typename Fn>
  double span(const char* name, workload::BrisaSystem* const* system,
              const workload::ChurnDriver* churn, Fn&& call) {
    Counters before;
    if (enabled_ && *system != nullptr) before = read_counters(**system, churn);
    const double start = now();
    call();
    const double end = now();
    if (enabled_) {
      Span s;
      s.name = name;
      s.id = static_cast<int>(spans_.size()) + 1;
      s.parent = 0;
      s.start_s = start;
      s.end_s = end;
      s.deltas = delta(before, read_counters(**system, churn));
      spans_.push_back(std::move(s));
    }
    return end - start;
  }

  /// Adds the root span (id 0) over [start, now); its deltas are the sum
  /// of its children's (for gauges, the last child's value).
  void add_root(const char* name, double start) {
    if (!enabled_) return;
    Span root;
    root.name = name;
    root.start_s = start;
    root.end_s = now();
    for (const Span& s : spans_) {
      for (const auto& [key, value] : s.deltas) {
        root.deltas[key] = is_gauge(key) ? value : root.deltas[key] + value;
      }
    }
    spans_.insert(spans_.begin(), std::move(root));
  }

  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const Span* find(const std::string& name) const {
    for (const Span& s : spans_) {
      if (s.name == name) return &s;
    }
    return nullptr;
  }

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// --- Results -------------------------------------------------------------------

struct Result {
  double construct_s = 0, join_s = 0, stabilize_s = 0, disseminate_s = 0,
         collect_s = 0;
  double setup_s = 0, run_s = 0;
  std::uint64_t expected = 0;  ///< operations: expected deliveries
  std::uint64_t missing = 0;
  std::uint64_t wrong = 0;  ///< exactly-once violations
  std::size_t delay_samples = 0;
  double p50_ms = 0, p99_ms = 0, p999_ms = 0;
  double msgs_per_delivery = 0;
  std::uint64_t events = 0;
  std::uint64_t net_msgs = 0;
  std::vector<std::uint64_t> class_msgs;
  std::vector<analysis::StreamRow> rows;
  double active_view_mean = 0;
  Counters final_counters;
  std::map<std::string, bool> checks;
  std::string digest_text;
  std::string digest;
};

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char ch : text) {
    h ^= ch;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Delivery outcome over every stream: per-stream rows, pooled
/// source-to-subscriber delays, and the expected/missing/wrong operation
/// counts over the bootstrap members that are alive at the end.
void collect(workload::BrisaSystem& system,
             const std::vector<std::uint64_t>& sent,
             const std::set<net::NodeId>& bootstrap_members, Result* r) {
  const std::vector<net::NodeId> members = system.member_ids();
  std::vector<double> delays_ms;
  for (std::size_t s = 0; s < sent.size(); ++s) {
    const auto stream = static_cast<net::StreamId>(s);
    const net::NodeId source = system.source_id(stream);
    const auto& source_times = system.brisa(source, stream).stats().delivery_time;
    analysis::StreamRow row;
    row.stream = stream;
    row.sent = sent[s];
    std::vector<double> stream_delays;
    for (const net::NodeId id : members) {
      if (id == source) continue;
      const core::Brisa::Stats& stats = system.brisa(id, stream).stats();
      ++row.subscribers;
      row.delivered += stats.delivery_time.size();
      row.duplicates += stats.duplicates;
      std::uint64_t published_held = 0;
      for (const auto& [seq, at] : stats.delivery_time) {
        const auto it = source_times.find(seq);
        if (it == source_times.end()) continue;
        ++published_held;
        stream_delays.push_back((at - it->second).to_milliseconds());
      }
      if (stats.delivery_time.size() > sent[s] ||
          published_held != stats.delivery_time.size() ||
          stats.delivered != stats.delivery_time.size()) {
        ++r->wrong;
      }
      if (bootstrap_members.count(id) != 0) {
        r->expected += source_times.size();
        r->missing += source_times.size() - published_held;
      }
    }
    const std::uint64_t expected_row =
        static_cast<std::uint64_t>(row.subscribers) * row.sent;
    row.reliability = expected_row == 0
                          ? 0.0
                          : static_cast<double>(row.delivered) /
                                static_cast<double>(expected_row);
    if (!stream_delays.empty()) {
      row.p50_ms = analysis::percentile(stream_delays, 50);
      row.p99_ms = analysis::percentile(stream_delays, 99);
    }
    delays_ms.insert(delays_ms.end(), stream_delays.begin(),
                     stream_delays.end());
    r->rows.push_back(row);
  }
  r->delay_samples = delays_ms.size();
  if (!delays_ms.empty()) {
    r->p50_ms = analysis::percentile(delays_ms, 50);
    r->p99_ms = analysis::percentile(delays_ms, 99);
    r->p999_ms = analysis::percentile(delays_ms, 99.9);
  }
}

/// One full workload run. `split` bootstraps with stabilization = 0 and then
/// calls run_for(stabilization) — the measured form, which gives the
/// stabilize span; otherwise bootstrap() settles the overlay itself.
Result run_workload(const Workload& w, std::uint64_t seed, bool split,
                    Tracer& tracer) {
  Result r;
  workload::BrisaSystem::Config config;
  config.seed = seed;
  config.num_nodes = w.nodes;
  config.num_streams = w.streams;
  config.join_spread = w.join_spread;
  config.stabilization = split ? sim::Duration::zero() : w.stabilization;
  config.brisa.mode = w.mode;
  config.brisa.num_parents = w.parents;

  std::unique_ptr<workload::BrisaSystem> owner;
  workload::BrisaSystem* system = nullptr;
  std::unique_ptr<workload::ChurnDriver> churn;

  const double run_start = tracer.now();
  r.construct_s = tracer.span("construct", &system, nullptr, [&] {
    owner = std::make_unique<workload::BrisaSystem>(config);
    system = owner.get();
  });
  r.join_s = tracer.span("join", &system, nullptr, [&] { system->bootstrap(); });
  r.stabilize_s = tracer.span("stabilize", &system, nullptr, [&] {
    if (split) system->run_for(w.stabilization);
    // As the scale_grid cell does: release bootstrap's pending-set slack.
    system->simulator().shrink();
  });
  r.setup_s = r.construct_s + r.join_s + r.stabilize_s;

  std::set<net::NodeId> bootstrap_members;
  for (const net::NodeId id : system->all_ids()) bootstrap_members.insert(id);
  const std::uint64_t msgs_before = system->network().messages_sent();

  // Run phase: arm the churn and publish drivers, disseminate, collect.
  const Clock::time_point run_clock = Clock::now();
  if (!w.churn.empty()) {
    churn = std::make_unique<workload::ChurnDriver>(
        system->simulator(), workload::ChurnScript::parse(w.churn),
        system->churn_hooks());
    churn->arm();
  }
  std::vector<std::uint64_t> sent(w.streams, 0);
  std::unique_ptr<workload::PubSubDriver> pubsub;
  if (!w.run_stream) {
    workload::PubSubDriver::Config pc;
    pc.streams =
        workload::uniform_streams(w.streams, w.messages, w.rate_per_s,
                                  w.payload);
    pubsub = std::make_unique<workload::PubSubDriver>(
        system->simulator(), pc,
        [system](net::StreamId stream, std::size_t bytes) {
          return system->publish(stream, bytes);
        });
  }
  r.disseminate_s = tracer.span("disseminate", &system, churn.get(), [&] {
    if (w.run_stream) {
      system->run_stream(w.messages, w.rate_per_s, w.payload, w.grace);
    } else {
      pubsub->run(w.grace);
    }
  });
  for (std::size_t s = 0; s < w.streams; ++s) {
    sent[s] = w.run_stream ? system->messages_sent()
                           : pubsub->sent(static_cast<net::StreamId>(s));
  }
  r.collect_s = tracer.span("collect", &system, churn.get(), [&] {
    collect(*system, sent, bootstrap_members, &r);
  });
  r.run_s = std::chrono::duration<double>(Clock::now() - run_clock).count();

  tracer.add_root("run", run_start);

  // Untimed: the whole-run counters, the output checks and the digest.
  r.final_counters = read_counters(*system, churn.get());
  r.events = system->simulator().events_fired();
  r.net_msgs = system->network().messages_sent();
  for (const char* k : kClassNames) {
    r.class_msgs.push_back(static_cast<std::uint64_t>(
        r.final_counters[std::string("net.msgs.") + k]));
  }
  std::uint64_t delivered = 0;
  for (const analysis::StreamRow& row : r.rows) delivered += row.delivered;
  r.msgs_per_delivery =
      delivered == 0 ? 0.0
                     : static_cast<double>(r.net_msgs - msgs_before) /
                           static_cast<double>(delivered);
  double active = 0;
  const std::vector<net::NodeId> members = system->member_ids();
  for (const net::NodeId id : members) {
    active += static_cast<double>(system->hyparview(id).active_count());
  }
  r.active_view_mean = members.empty() ? 0.0 : active /
                                                   static_cast<double>(
                                                       members.size());

  const double orphans = r.final_counters["core.orphan_events"];
  const double repairs = r.final_counters["core.soft_repairs"] +
                         r.final_counters["core.hard_repairs"];
  r.checks["exactly_once"] = r.wrong == 0;
  r.checks["repair_ratio_le_1"] = repairs <= orphans;
  if (w.expect_complete) r.checks["undelivered_zero"] = r.missing == 0;
  if (w.scale_cell && seed == 1) {
    // HEAD output of the scale_grid 10k faulted BRISA cell at seed 1.
    r.checks["scale_cell_match"] =
        r.events == 13937537 && r.net_msgs == 6609235 &&
        std::fabs(r.p99_ms - 601.935) < 0.0005;
  }

  char buf[256];
  std::snprintf(buf, sizeof buf, "events=%llu;msgs=%llu,%llu,%llu;",
                static_cast<unsigned long long>(r.events),
                static_cast<unsigned long long>(r.class_msgs[0]),
                static_cast<unsigned long long>(r.class_msgs[1]),
                static_cast<unsigned long long>(r.class_msgs[2]));
  r.digest_text = buf;
  r.digest_text += "delivered=";
  for (std::size_t i = 0; i < r.rows.size(); ++i) {
    r.digest_text += (i == 0 ? "" : ",") + std::to_string(r.rows[i].delivered);
  }
  std::snprintf(buf, sizeof buf, ";p50=%.6f;p99=%.6f;p999=%.6f;missing=%llu",
                r.p50_ms, r.p99_ms, r.p999_ms,
                static_cast<unsigned long long>(r.missing));
  r.digest_text += buf;
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv1a(r.digest_text)));
  r.digest = buf;
  return r;
}

// --- Output --------------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string counters_json(const Counters& c) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : c) {
    out += (first ? "\"" : ",\"") + name + "\":" + json_number(value);
    first = false;
  }
  return out + "}";
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// The per-layer metrics of a traced run (names as in BENCHMARK.json).
Counters layer_metrics(const Workload& w, const Result& r,
                       const Tracer& tracer) {
  Counters c = r.final_counters;
  Counters m;
  const auto span_s = [&tracer](const char* name) {
    const Span* s = tracer.find(name);
    return s == nullptr ? 0.0 : s->end_s - s->start_s;
  };
  const auto span_delta = [&tracer](const char* span, const char* key) {
    const Span* s = tracer.find(span);
    if (s == nullptr) return 0.0;
    const auto it = s->deltas.find(key);
    return it == s->deltas.end() ? 0.0 : it->second;
  };
  double simulated_s = 0;
  double peak_slab = 0;
  for (const Span& s : tracer.spans()) {
    if (s.name == "run" || s.name == "collect") continue;
    simulated_s += s.end_s - s.start_s;
    const auto it = s.deltas.find("sim.slab_slots");
    if (it != s.deltas.end()) peak_slab = std::max(peak_slab, it->second);
  }
  m["sim.events"] = c["sim.events"];
  m["sim.ns_per_event"] = ratio(simulated_s * 1e9, c["sim.events"]);
  m["sim.peak_pending"] = c["sim.peak_pending"];
  m["sim.slab_slots"] = peak_slab;
  m["sim.cancel_ratio"] = ratio(c["sim.cancelled"], c["sim.scheduled"]);
  m["sim.heap_fallbacks"] = c["sim.heap_fallbacks"];

  double all_bytes = 0;
  for (const char* k : kClassNames) {
    m[std::string("net.msgs.") + k] = c[std::string("net.msgs.") + k];
    m[std::string("net.bytes.") + k] = c[std::string("net.bytes.") + k];
    all_bytes += c[std::string("net.bytes.") + k];
  }
  for (const char* k : {"net.retransmissions", "net.dropped", "net.blackholed",
                        "net.peak_nic_backlog_ms", "net.peak_cpu_backlog_ms"}) {
    m[k] = c[k];
  }
  m["net.goodput_ratio"] = ratio(c["net.bytes.data"], all_bytes);

  const double node_s =
      static_cast<double>(w.nodes) * w.stabilization.to_seconds();
  m["membership.upkeep_us_per_node_s"] = ratio(span_s("stabilize") * 1e6, node_s);
  m["membership.msgs_per_node_s"] =
      ratio(span_delta("stabilize", "net.msgs.membership"), node_s);
  for (const char* k :
       {"membership.joins", "membership.shuffles",
        "membership.failures_detected", "membership.promotions",
        "membership.neighbor_rejects"}) {
    m[k] = c[k];
  }
  m["membership.active_view_mean"] = r.active_view_mean;

  const double orphans = c["core.orphan_events"];
  for (const char* k :
       {"core.delivered", "core.duplicates", "core.orphan_events",
        "core.soft_repairs", "core.hard_repairs", "core.gap_recoveries",
        "core.retransmissions_served", "core.starvation_resets"}) {
    m[k] = c[k];
  }
  m["core.dup_ratio"] =
      ratio(c["core.duplicates"], c["core.delivered"] + c["core.duplicates"]);
  m["core.us_per_delivery"] = ratio(span_s("disseminate") * 1e6,
                                    span_delta("disseminate", "core.delivered"));
  m["core.repair_ratio"] =
      ratio(c["core.soft_repairs"] + c["core.hard_repairs"], orphans);

  m["workload.construct_s"] = r.construct_s;
  m["workload.join_s"] = r.join_s;
  m["workload.stabilize_s"] = r.stabilize_s;
  m["workload.disseminate_s"] = r.disseminate_s;
  for (const char* k : {"workload.churn_joins", "workload.churn_kills",
                        "workload.churn_crashes"}) {
    m[k] = c.count(k) != 0 ? c[k] : 0.0;
  }
  m["analysis.collect_s"] = r.collect_s;
  return m;
}

bool write_spans(const std::string& path, const Workload& w,
                 std::uint64_t seed, const Tracer& tracer) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"workload\":\"" << w.name << "\",\"seed\":" << seed
      << ",\"spans\":[";
  bool first = true;
  for (const Span& s : tracer.spans()) {
    out << (first ? "" : ",") << "\n {\"name\":\"" << s.name
        << "\",\"id\":" << s.id << ",\"parent\":"
        << (s.parent < 0 ? std::string("null") : std::to_string(s.parent))
        << ",\"start_s\":" << json_number(s.start_s)
        << ",\"end_s\":" << json_number(s.end_s)
        << ",\"deltas\":" << counters_json(s.deltas) << "}";
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void print_result(const Workload& w, std::uint64_t seed, const Result& r,
                  const Tracer& tracer) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double cpu_s =
      static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
      static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
          1e6;
  const double rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  std::string checks = "{";
  bool first = true;
  for (const auto& [name, ok] : r.checks) {
    checks += (first ? "\"" : ",\"") + name + "\":" + (ok ? "true" : "false");
    first = false;
  }
  checks += "}";

  std::printf(
      "{\"workload\":\"%s\",\"seed\":%llu,\"traced\":%s,"
      "\"setup_s\":%s,\"run_s\":%s,\"cpu_s\":%s,\"peak_rss_mb\":%s,"
      "\"expected\":%llu,\"missing\":%llu,\"wrong\":%llu,"
      "\"undelivered_ratio\":%s,\"delay_p50_ms\":%s,\"delay_p99_ms\":%s,"
      "\"delay_p999_ms\":%s,\"delay_samples\":%zu,\"msgs_per_delivery\":%s,"
      "\"events\":%llu,\"network_messages\":%llu,"
      "\"digest\":\"%s\",\"digest_text\":\"%s\",\"checks\":%s",
      w.name.c_str(), static_cast<unsigned long long>(seed),
      tracer.enabled() ? "true" : "false", json_number(r.setup_s).c_str(),
      json_number(r.run_s).c_str(), json_number(cpu_s).c_str(),
      json_number(rss_mb).c_str(),
      static_cast<unsigned long long>(r.expected),
      static_cast<unsigned long long>(r.missing),
      static_cast<unsigned long long>(r.wrong),
      json_number(ratio(static_cast<double>(r.missing),
                        static_cast<double>(r.expected)))
          .c_str(),
      json_number(r.p50_ms).c_str(), json_number(r.p99_ms).c_str(),
      json_number(r.p999_ms).c_str(), r.delay_samples,
      json_number(r.msgs_per_delivery).c_str(),
      static_cast<unsigned long long>(r.events),
      static_cast<unsigned long long>(r.net_msgs), r.digest.c_str(),
      r.digest_text.c_str(), checks.c_str());
  if (tracer.enabled()) {
    std::printf(",\"layers\":%s",
                counters_json(layer_metrics(w, r, tracer)).c_str());
  }
  std::printf("}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seed N "
               "[--trace SPAN_FILE] [--split-check]\n"
               "workloads: upkeep_10k churn_dag_2k\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::string trace_file;
  std::uint64_t seed = 0;
  bool have_seed = false;
  bool split_check = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--split-check") {
      split_check = true;
    } else if (i + 1 < argc && arg == "--workload") {
      name = argv[++i];
    } else if (i + 1 < argc && arg == "--trace") {
      trace_file = argv[++i];
    } else if (i + 1 < argc && arg == "--seed") {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      have_seed = end != argv[i] && *end == '\0';
    } else {
      return usage();
    }
  }
  const std::optional<Workload> w = find_workload(name, split_check);
  if (!w || !have_seed) return usage();

  if (split_check) {
    Tracer single(false);
    Tracer split(false);
    const Result a = run_workload(*w, seed, false, single);
    const Result b = run_workload(*w, seed, true, split);
    const bool same = a.digest_text == b.digest_text;
    std::printf("%s seed %llu reduced: bootstrap() %s | split %s: %s\n",
                w->name.c_str(), static_cast<unsigned long long>(seed),
                a.digest.c_str(), b.digest.c_str(),
                same ? "identical" : "DIFFERENT");
    if (!same) {
      std::printf("  bootstrap(): %s\n  split:       %s\n",
                  a.digest_text.c_str(), b.digest_text.c_str());
    }
    return same ? 0 : 1;
  }

  Tracer tracer(!trace_file.empty());
  const Result r = run_workload(*w, seed, true, tracer);
  if (tracer.enabled() && !write_spans(trace_file, *w, seed, tracer)) {
    std::fprintf(stderr, "cannot write span file %s\n", trace_file.c_str());
    return 1;
  }
  print_result(*w, seed, r, tracer);
  return 0;
}
