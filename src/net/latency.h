// Point-to-point latency models.
//
// Substitutes for the paper's two testbeds (§III): a 1 Gbps switched cluster
// and a PlanetLab slice. Latencies are a deterministic function of the node
// pair (plus per-message jitter drawn from the caller's RNG stream), so the
// same seed always produces the same network.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>

#include "net/node_id.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace brisa::net {

class LatencyModel {
 public:
  virtual ~LatencyModel() = default;

  /// One-way latency for a message from `from` to `to`, including jitter.
  /// Draws jitter from the caller's stream — the *sending host's*
  /// CounterRng, so one host's draws never shift another's.
  [[nodiscard]] virtual sim::Duration sample(NodeId from, NodeId to,
                                             sim::CounterRng& rng) = 0;

  /// The stable (jitter-free) component, used by tests and by the
  /// point-to-point reference series in Fig 9.
  [[nodiscard]] virtual sim::Duration base(NodeId from, NodeId to) const = 0;

  /// A guaranteed lower bound on sample(from, to, ...) over all *distinct*
  /// host pairs: the testbed sets it as the simulator lookahead, and
  /// Network clamps cross-host flight times up to that. Self-delivery may be
  /// faster.
  [[nodiscard]] virtual sim::Duration min_flight() const = 0;

  [[nodiscard]] virtual const char* name() const = 0;
};

/// Switched-LAN model: uniform sub-millisecond base latency plus small
/// exponential jitter. Matches the paper's 15-machine 1 Gbps cluster.
class ClusterLatencyModel final : public LatencyModel {
 public:
  struct Config {
    sim::Duration base_latency = sim::Duration::microseconds(150);
    double jitter_mean_us = 30.0;
  };

  ClusterLatencyModel() : ClusterLatencyModel(Config{}) {}
  explicit ClusterLatencyModel(Config config) : config_(config) {}

  [[nodiscard]] sim::Duration sample(NodeId from, NodeId to,
                                     sim::CounterRng& rng) override;
  [[nodiscard]] sim::Duration base(NodeId from, NodeId to) const override;
  [[nodiscard]] sim::Duration min_flight() const override {
    return config_.base_latency;
  }
  [[nodiscard]] const char* name() const override { return "cluster"; }

 private:
  Config config_;
};

/// Wide-area model: each node gets a position on a 2-D "Internet plane" plus
/// a heavy-tailed per-node access penalty (log-normal). One-way latency =
/// propagation (distance) + both endpoints' access penalties + jitter.
/// Reproduces PlanetLab's key traits: large spread (a few ms to hundreds of
/// ms), consistent per-pair values, and a heavy tail of slow nodes.
class PlanetLabLatencyModel final : public LatencyModel {
 public:
  struct Config {
    /// Plane half-width in "milliseconds of propagation". Kept moderate:
    /// real PlanetLab latency is dominated by per-node access/slivering
    /// penalties rather than geography, which is what makes the delay-aware
    /// strategy effective (it routes around slow *nodes*, not distances).
    double plane_ms = 60.0;
    /// Log-normal parameters of the per-node access penalty (ms).
    double access_mu = 3.0;     // median e^3 ≈ 20 ms
    double access_sigma = 1.0;  // heavy tail: p90 ≈ 72 ms, p99 ≈ 206 ms
    /// Per-message jitter: exponential with this mean (ms).
    double jitter_mean_ms = 2.0;
    /// Seed for the deterministic node-placement stream.
    std::uint64_t placement_seed = 0x91ab5eedULL;
  };

  PlanetLabLatencyModel() : PlanetLabLatencyModel(Config{}) {}
  explicit PlanetLabLatencyModel(Config config) : config_(config) {}

  [[nodiscard]] sim::Duration sample(NodeId from, NodeId to,
                                     sim::CounterRng& rng) override;
  [[nodiscard]] sim::Duration base(NodeId from, NodeId to) const override;
  /// base() keeps a 0.5 ms propagation floor for distinct pairs and access
  /// penalties are strictly positive, so 500 µs is a true lower bound.
  [[nodiscard]] sim::Duration min_flight() const override {
    return sim::Duration::microseconds(500);
  }
  [[nodiscard]] const char* name() const override { return "planetlab"; }

 private:
  struct Placement {
    double x_ms;
    double y_ms;
    double access_ms;
  };
  [[nodiscard]] Placement placement(NodeId node) const;

  Config config_;
};

/// Clustered WAN: nodes are hashed into K clusters (think regional data
/// centers or ISP clusters); intra-cluster links pay a small LAN-class RTT
/// while inter-cluster links pay a per-cluster-pair WAN latency drawn
/// deterministically from [inter_min_ms, inter_max_ms]. Neither paper
/// testbed has this two-tier shape — it opens geo-replication workloads
/// (cf. D'Angelo & Ferretti's parameterized complex-network topologies).
class ClusteredWanLatencyModel final : public LatencyModel {
 public:
  struct Config {
    std::size_t clusters = 8;
    /// One-way latency between two nodes of the same cluster (ms).
    double intra_ms = 1.0;
    /// One-way inter-cluster latency range; each ordered cluster pair gets
    /// a deterministic value in [inter_min_ms, inter_max_ms] (symmetric).
    double inter_min_ms = 20.0;
    double inter_max_ms = 160.0;
    /// Per-message exponential jitter mean (ms).
    double jitter_mean_ms = 1.0;
    /// Seed of the deterministic cluster-assignment / pair-latency stream.
    std::uint64_t placement_seed = 0xc105ceedULL;
  };

  ClusteredWanLatencyModel() : ClusteredWanLatencyModel(Config{}) {}
  explicit ClusteredWanLatencyModel(Config config) : config_(config) {}

  [[nodiscard]] sim::Duration sample(NodeId from, NodeId to,
                                     sim::CounterRng& rng) override;
  [[nodiscard]] sim::Duration base(NodeId from, NodeId to) const override;
  [[nodiscard]] sim::Duration min_flight() const override {
    const double ms = std::min(config_.intra_ms, config_.inter_min_ms);
    return sim::Duration::microseconds(static_cast<std::int64_t>(ms * 1e3));
  }
  [[nodiscard]] const char* name() const override { return "clustered-wan"; }

  /// Deterministic cluster of a node (tests, analysis grouping).
  [[nodiscard]] std::size_t cluster_of(NodeId node) const;

 private:
  Config config_;
};

/// Datacenter fat-tree approximation: hosts fill racks, racks fill pods.
/// Latency is a function of the hop tier alone — same rack (one ToR hop),
/// same pod (through aggregation), or cross-pod (through the core) — which
/// is the uniform three-level distance structure of a folded-Clos fabric.
/// Oversubscription is not modeled; the NIC serialization in net::Network
/// remains the bandwidth bottleneck.
class FatTreeLatencyModel final : public LatencyModel {
 public:
  struct Config {
    std::size_t hosts_per_rack = 40;
    std::size_t racks_per_pod = 16;
    /// One-way latency per tier (µs).
    double intra_rack_us = 30.0;
    double intra_pod_us = 120.0;
    double inter_pod_us = 300.0;
    /// Per-message exponential jitter mean (µs).
    double jitter_mean_us = 10.0;
  };

  FatTreeLatencyModel() : FatTreeLatencyModel(Config{}) {}
  explicit FatTreeLatencyModel(Config config) : config_(config) {}

  [[nodiscard]] sim::Duration sample(NodeId from, NodeId to,
                                     sim::CounterRng& rng) override;
  [[nodiscard]] sim::Duration base(NodeId from, NodeId to) const override;
  [[nodiscard]] sim::Duration min_flight() const override {
    const double us = std::min({config_.intra_rack_us, config_.intra_pod_us,
                                config_.inter_pod_us});
    return sim::Duration::microseconds(static_cast<std::int64_t>(us));
  }
  [[nodiscard]] const char* name() const override { return "fat-tree"; }

 private:
  Config config_;
};

/// Factory helpers used by scenario configuration.
std::unique_ptr<LatencyModel> make_cluster_latency();
std::unique_ptr<LatencyModel> make_planetlab_latency();
std::unique_ptr<LatencyModel> make_clustered_wan_latency(
    ClusteredWanLatencyModel::Config config = {});
std::unique_ptr<LatencyModel> make_fat_tree_latency(
    FatTreeLatencyModel::Config config = {});

}  // namespace brisa::net
