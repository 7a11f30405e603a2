// Sample statistics used by every experiment harness: CDFs (the paper's
// favorite presentation) and percentile summaries (the stacked bars of
// Figs 10/11).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/message_pool.h"
#include "sim/simulator.h"

namespace brisa::net {
class Network;
}  // namespace brisa::net

namespace brisa::analysis {

/// One point of an empirical CDF: `percent` % of samples are <= `value`.
struct CdfPoint {
  double value;
  double percent;
};

/// Full empirical CDF (one point per sample, sorted ascending).
[[nodiscard]] std::vector<CdfPoint> make_cdf(std::vector<double> samples);

/// CDF downsampled to the given percent levels (e.g. every 5%), which keeps
/// benchmark output readable while preserving the curve's shape.
[[nodiscard]] std::vector<CdfPoint> cdf_at_percents(
    std::vector<double> samples, const std::vector<double>& percents);

/// Linear-interpolated percentile, p in [0, 100]. Empty input -> NaN.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

/// The five-point summary the paper's stacked bars report.
struct PercentileSummary {
  double p5 = 0;
  double p25 = 0;
  double p50 = 0;
  double p75 = 0;
  double p90 = 0;
};
[[nodiscard]] PercentileSummary summarize(std::vector<double> samples);

[[nodiscard]] double mean(const std::vector<double>& samples);
[[nodiscard]] double sample_min(const std::vector<double>& samples);
[[nodiscard]] double sample_max(const std::vector<double>& samples);

/// Renders a CDF as gnuplot-ready two-column text ("value percent" rows),
/// prefixed by `# <title>`.
[[nodiscard]] std::string format_cdf(const std::string& title,
                                     const std::vector<CdfPoint>& cdf);

// --- Event-core / allocation counters ----------------------------------------
//
// Experiment harnesses report the simulator's event and allocation counters
// next to the protocol metrics, so a perf regression (e.g. closures spilling
// to the heap again) shows up in run reports, not only in microbenchmarks.

/// One labeled counter (label → integral value).
struct CounterRow {
  std::string label;
  std::uint64_t value = 0;
};

/// Builds the standard counter rows from a finished simulator run plus the
/// thread's message-pool statistics. The pool counters are thread-cumulative;
/// pass the value of net::message_pool_stats() captured before the run as
/// `pool_baseline` to report per-run deltas (the default zero baseline is
/// only correct for the first run on the thread).
[[nodiscard]] std::vector<CounterRow> sim_counter_rows(
    const sim::Simulator& simulator,
    const net::MessagePoolStats& pool_baseline = net::MessagePoolStats{});

/// Renders counters as aligned "label value" rows under `# <title>`.
[[nodiscard]] std::string format_counters(const std::string& title,
                                          const std::vector<CounterRow>& rows);

/// Renders counters as a single-line JSON object (machine-readable
/// perf-trajectory records).
[[nodiscard]] std::string counters_json(const std::vector<CounterRow>& rows);

/// Fault-layer counters for a finished run: network-wide totals (datagram
/// and segment drops/blackholes, retransmissions, suppressed receives,
/// suspend/resume events) plus per-traffic-class sums across all hosts.
/// All-zero rows when no fault plan was installed.
[[nodiscard]] std::vector<CounterRow> fault_counter_rows(
    const net::Network& network);

}  // namespace brisa::analysis
