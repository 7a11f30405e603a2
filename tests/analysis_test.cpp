// Analysis toolkit tests: CDF/percentile math, table rendering, DOT export.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "analysis/dot_export.h"
#include "analysis/stats.h"
#include "analysis/table.h"
#include "sim/rng.h"

namespace brisa::analysis {
namespace {

TEST(Stats, MakeCdfSortedAndComplete) {
  const auto cdf = make_cdf({3.0, 1.0, 2.0});
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf[0].value, 1.0);
  EXPECT_NEAR(cdf[0].percent, 100.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(cdf[2].value, 3.0);
  EXPECT_DOUBLE_EQ(cdf[2].percent, 100.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> samples{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(percentile(samples, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(samples, 50), 30.0);
  EXPECT_DOUBLE_EQ(percentile(samples, 100), 50.0);
  EXPECT_DOUBLE_EQ(percentile(samples, 25), 20.0);
  EXPECT_DOUBLE_EQ(percentile(samples, 12.5), 15.0);
}

TEST(Stats, PercentileEdgeCases) {
  EXPECT_TRUE(std::isnan(percentile({}, 50)));
  EXPECT_DOUBLE_EQ(percentile({42.0}, 99), 42.0);
}

/// The full-sort definition percentile() had before it switched to
/// selection; the randomized test below pins the two to the same bits.
double sorted_percentile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  if (samples.size() == 1) return samples.front();
  const double rank = (p / 100.0) * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - std::floor(rank);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(Stats, PercentileMatchesSortReferenceBitForBit) {
  sim::Rng rng(0x9e7c);
  const std::vector<double> fixed_percents{0, 0.1, 1, 5, 12.5, 25, 33.3, 50,
                                           66.7, 75, 90, 99, 99.9, 100};
  for (int round = 0; round < 400; ++round) {
    // n = 1 and 2 come first, then random sizes up to 300.
    const std::size_t n =
        round < 2 ? static_cast<std::size_t>(round + 1)
                  : static_cast<std::size_t>(1 + rng.uniform(300));
    // Every third round draws from a handful of values, so duplicates
    // straddle the interpolated order statistics.
    const bool few_values = round % 3 == 0;
    std::vector<double> samples;
    for (std::size_t i = 0; i < n; ++i) {
      samples.push_back(few_values
                            ? static_cast<double>(rng.uniform(4)) * 1.5
                            : rng.uniform_double() * 1000.0 - 250.0);
    }
    std::vector<double> percents = fixed_percents;
    percents.push_back(rng.uniform_double() * 100.0);
    for (const double p : percents) {
      const double got = percentile(samples, p);
      const double want = sorted_percentile(samples, p);
      EXPECT_TRUE(same_bits(got, want))
          << "n=" << n << " p=" << p << " got " << got << " want " << want;
    }
    // The sorted paths (one sort shared across levels) agree too.
    const PercentileSummary s = summarize(samples);
    EXPECT_TRUE(same_bits(s.p5, sorted_percentile(samples, 5)));
    EXPECT_TRUE(same_bits(s.p90, sorted_percentile(samples, 90)));
    const auto cdf = cdf_at_percents(samples, percents);
    for (std::size_t i = 0; i < percents.size(); ++i) {
      EXPECT_TRUE(
          same_bits(cdf[i].value, sorted_percentile(samples, percents[i])));
    }
  }
}

TEST(Stats, SummaryOrdering) {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(static_cast<double>(i));
  const PercentileSummary s = summarize(samples);
  EXPECT_LT(s.p5, s.p25);
  EXPECT_LT(s.p25, s.p50);
  EXPECT_LT(s.p50, s.p75);
  EXPECT_LT(s.p75, s.p90);
  EXPECT_NEAR(s.p50, 50.5, 0.6);
}

TEST(Stats, MeanMinMax) {
  const std::vector<double> samples{2.0, 4.0, 6.0};
  EXPECT_DOUBLE_EQ(mean(samples), 4.0);
  EXPECT_DOUBLE_EQ(sample_min(samples), 2.0);
  EXPECT_DOUBLE_EQ(sample_max(samples), 6.0);
  EXPECT_TRUE(std::isnan(mean({})));
}

TEST(Stats, CdfAtPercents) {
  std::vector<double> samples;
  for (int i = 0; i < 1000; ++i) samples.push_back(static_cast<double>(i));
  const auto cdf = cdf_at_percents(samples, {25, 50, 75});
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_NEAR(cdf[1].value, 499.5, 1.0);
  EXPECT_DOUBLE_EQ(cdf[1].percent, 50.0);
}

TEST(Stats, FormatCdf) {
  const std::string out = format_cdf("demo", {{1.5, 50.0}, {2.5, 100.0}});
  EXPECT_NE(out.find("# demo"), std::string::npos);
  EXPECT_NE(out.find("1.5 50"), std::string::npos);
  EXPECT_NE(out.find("2.5 100"), std::string::npos);
}

TEST(Table, RendersAligned) {
  Table table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22222"});
  const std::string out = table.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22222"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(Table, RowWidthMismatchAborts) {
  Table table({"a", "b"});
  EXPECT_DEATH(table.add_row({"only-one"}), "row width");
}

TEST(DotExport, EmitsEdgesAndRoot) {
  const std::vector<StructureEdge> edges{{net::NodeId(0), net::NodeId(1)},
                                         {net::NodeId(0), net::NodeId(2)},
                                         {net::NodeId(1), net::NodeId(3)}};
  const std::string dot = to_dot("fig8", net::NodeId(0), edges);
  EXPECT_NE(dot.find("digraph \"fig8\""), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(dot.find("n1 -> n3"), std::string::npos);
  EXPECT_NE(dot.find("peripheries=2"), std::string::npos);
}

TEST(DotExport, DepthHistogram) {
  const std::vector<StructureEdge> edges{{net::NodeId(0), net::NodeId(1)},
                                         {net::NodeId(0), net::NodeId(2)},
                                         {net::NodeId(1), net::NodeId(3)},
                                         {net::NodeId(3), net::NodeId(4)}};
  const auto histogram = depth_histogram(net::NodeId(0), edges);
  ASSERT_EQ(histogram.size(), 4u);
  EXPECT_EQ(histogram[0], 1u);
  EXPECT_EQ(histogram[1], 2u);
  EXPECT_EQ(histogram[2], 1u);
  EXPECT_EQ(histogram[3], 1u);
}

TEST(DotExport, HistogramIgnoresUnreachable) {
  const std::vector<StructureEdge> edges{{net::NodeId(5), net::NodeId(6)}};
  const auto histogram = depth_histogram(net::NodeId(0), edges);
  ASSERT_EQ(histogram.size(), 1u);
  EXPECT_EQ(histogram[0], 1u);  // just the root
}

TEST(Counters, FormatAndJson) {
  const std::vector<CounterRow> rows{{"events_fired", 42},
                                     {"messages_created", 7}};
  EXPECT_EQ(format_counters("run", rows),
            "# run\nevents_fired      42\nmessages_created  7\n");
  EXPECT_EQ(counters_json(rows),
            "{\"events_fired\": 42, \"messages_created\": 7}");
}

TEST(Counters, SimCounterRowsTrackTheRun) {
  sim::Simulator simulator(3);
  simulator.after(sim::Duration::seconds(1), []() {});
  const sim::EventId cancelled =
      simulator.after(sim::Duration::seconds(2), []() {});
  simulator.cancel(cancelled);
  simulator.run();
  const std::vector<CounterRow> rows = sim_counter_rows(simulator);
  const auto value_of = [&rows](const std::string& label) -> std::uint64_t {
    for (const CounterRow& row : rows) {
      if (row.label == label) return row.value;
    }
    ADD_FAILURE() << "missing counter " << label;
    return 0;
  };
  EXPECT_EQ(value_of("events_fired"), 1u);
  EXPECT_EQ(value_of("events_scheduled"), 2u);
  EXPECT_EQ(value_of("events_cancelled"), 1u);
  EXPECT_EQ(value_of("pending_events"), 0u);
}

}  // namespace
}  // namespace brisa::analysis
