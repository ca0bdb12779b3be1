#pragma once
// Analytic steady-state throughput model for a mapped pipeline, the
// objective function every mapper optimizes and the quantity the
// adaptation policy compares against observed throughput.
//
// Model (documented in DESIGN.md §3):
//  * A node serializes its co-mapped stage-replicas, so its per-item busy
//    time is Σ_i w_i / (r_i · speed_n) over replicas it hosts; the node
//    caps pipeline throughput at 1 / busy.
//  * Edge i (stage i-1 → stage i; edge 0 = source, edge Ns = sink) moves
//    z_i bytes. A directed link is a serial resource (matching the
//    simulator's serialized links): with round-robin dispatch each (a,b)
//    node pair carries 1/(r_a·r_b) of the items, so link (a,b)
//    accumulates Σ_edges T(a,b,z_e)/(r_a·r_b) busy-seconds per item and
//    caps throughput at the reciprocal. A link reused by several stage
//    boundaries is charged for all of them.
//  * Optionally a single shared "network" resource serializes all
//    inter-node transfers (the PEPA-style assumption): extra cap
//    1 / Σ_edges T_edge.
// Throughput = min of all caps.

#include <vector>

#include "grid/grid.hpp"
#include "monitor/registry.hpp"
#include "sched/mapping.hpp"

namespace gridpipe::sched {

/// Static description of the application: per-stage work and message
/// sizes. Work is in the same units as node speeds (time = work / speed).
struct PipelineProfile {
  std::vector<double> stage_work;   ///< size Ns, work units per item
  std::vector<double> msg_bytes;    ///< size Ns+1; [0]=input, [Ns]=output
  std::vector<double> state_bytes;  ///< size Ns; migratable state per stage

  grid::NodeId source_node = 0;  ///< where inputs originate
  grid::NodeId sink_node = 0;    ///< where outputs are collected
  /// Whether the source→stage0 and last-stage→sink transfers constrain
  /// throughput (the calibration table assumes they do not).
  bool count_io_edges = false;

  std::size_t num_stages() const noexcept { return stage_work.size(); }

  /// Uniform profile helper: Ns stages of equal `work`, all messages
  /// `bytes`, all state `state`.
  static PipelineProfile uniform(std::size_t num_stages, double work,
                                 double bytes, double state = 0.0);

  /// Throws std::invalid_argument if the vectors are inconsistent.
  void validate() const;
};

/// A snapshot of believed resource performance — either ground truth
/// sampled from the Grid (oracle) or forecasts from the monitor
/// (adaptive).
struct ResourceEstimate {
  std::size_t num_nodes = 0;
  std::vector<double> node_speed;      ///< effective work units / s
  std::vector<double> link_latency;    ///< dense n×n, seconds
  std::vector<double> link_bandwidth;  ///< dense n×n, bytes/s

  double latency(grid::NodeId a, grid::NodeId b) const {
    return link_latency[a * num_nodes + b];
  }
  double bandwidth(grid::NodeId a, grid::NodeId b) const {
    return link_bandwidth[a * num_nodes + b];
  }
  /// Modeled time to move `bytes` from a to b.
  double transfer_time(grid::NodeId a, grid::NodeId b, double bytes) const {
    return latency(a, b) + bytes / bandwidth(a, b);
  }

  /// Ground truth at virtual time t (used by the oracle driver and by
  /// model-vs-simulation validation).
  static ResourceEstimate from_grid(const grid::Grid& grid, double t);

  /// Forecast-based estimate: node speeds from kNodeSpeed sensors, links
  /// from kLinkInflation sensors applied to the catalog (time-0 dedicated)
  /// values of `catalog`. Missing sensors fall back to the catalog.
  static ResourceEstimate from_monitor(const monitor::MonitoringRegistry& reg,
                                       const grid::Grid& catalog);
};

/// Per-mapping model diagnostics.
struct ThroughputBreakdown {
  std::vector<double> node_busy;   ///< per node, seconds of work per item
  std::vector<double> edge_time;   ///< per edge (Ns+1), max pair-time or 0
  std::vector<double> link_busy;   ///< per directed link, seconds per item
  double node_cap = 0.0;           ///< min over used nodes of 1/busy
  double edge_cap = 0.0;           ///< min over used links of 1/busy
  double network_cap = 0.0;        ///< 1/Σ edge times (if serialized)
  double throughput = 0.0;         ///< min of the applicable caps
  double total_comm_time = 0.0;    ///< Σ inter-node edge times (tie-break)
};

struct PerfModelOptions {
  /// Model a single shared network component that serializes all
  /// inter-node transfers (matches the PEPA calibration model).
  bool network_serialization = false;
};

class PerfModel {
 public:
  explicit PerfModel(PerfModelOptions options = {}) : options_(options) {}

  /// Steady-state items/second for `mapping`; 0 for an infeasible input.
  double throughput(const PipelineProfile& profile,
                    const ResourceEstimate& est, const Mapping& mapping) const;

  ThroughputBreakdown breakdown(const PipelineProfile& profile,
                                const ResourceEstimate& est,
                                const Mapping& mapping) const;
  /// breakdown() into `bd`, reusing the storage of its vectors: for
  /// search loops that score many candidates.
  void breakdown_into(const PipelineProfile& profile,
                      const ResourceEstimate& est, const Mapping& mapping,
                      ThroughputBreakdown& bd) const;

  /// Mean end-to-end item latency under open arrivals at `arrival_rate`
  /// items/s: per-stage service plus an M/D/1 queueing delay at each
  /// node (utilization = rate × node busy time), plus the transfer times
  /// along the primary replica path. Returns +inf when any resource's
  /// utilization reaches 1 (unstable).
  double latency_estimate(const PipelineProfile& profile,
                          const ResourceEstimate& est, const Mapping& mapping,
                          double arrival_rate) const;

  /// True if `a` is strictly better than `b` under the lexicographic
  /// objective (throughput desc, total comm time asc, nodes used asc) with
  /// relative throughput tolerance `tie_eps`.
  bool better(const ThroughputBreakdown& a, std::size_t a_nodes,
              const ThroughputBreakdown& b, std::size_t b_nodes,
              double tie_eps = 1e-9) const;

  const PerfModelOptions& options() const noexcept { return options_; }

 private:
  PerfModelOptions options_;
};

/// Modeled wall-clock pause for switching `from`→`to`: restart latency
/// plus the slowest stage-state migration (migrations proceed in
/// parallel). Stages whose replica set is unchanged cost nothing.
double migration_cost(const PipelineProfile& profile,
                      const ResourceEstimate& est, const Mapping& from,
                      const Mapping& to, double restart_latency);

}  // namespace gridpipe::sched
