#include "sched/perf_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>

namespace gridpipe::sched {

PipelineProfile PipelineProfile::uniform(std::size_t num_stages, double work,
                                         double bytes, double state) {
  PipelineProfile p;
  p.stage_work.assign(num_stages, work);
  p.msg_bytes.assign(num_stages + 1, bytes);
  p.state_bytes.assign(num_stages, state);
  return p;
}

void PipelineProfile::validate() const {
  if (stage_work.empty()) {
    throw std::invalid_argument("PipelineProfile: no stages");
  }
  if (msg_bytes.size() != stage_work.size() + 1) {
    throw std::invalid_argument("PipelineProfile: msg_bytes must be Ns+1");
  }
  if (state_bytes.size() != stage_work.size()) {
    throw std::invalid_argument("PipelineProfile: state_bytes must be Ns");
  }
  for (const double w : stage_work) {
    if (w <= 0.0) throw std::invalid_argument("PipelineProfile: work <= 0");
  }
  for (const double z : msg_bytes) {
    if (z < 0.0) throw std::invalid_argument("PipelineProfile: bytes < 0");
  }
}

ResourceEstimate ResourceEstimate::from_grid(const grid::Grid& g, double t) {
  ResourceEstimate est;
  est.num_nodes = g.num_nodes();
  est.node_speed.resize(est.num_nodes);
  est.link_latency.resize(est.num_nodes * est.num_nodes);
  est.link_bandwidth.resize(est.num_nodes * est.num_nodes);
  for (grid::NodeId n = 0; n < est.num_nodes; ++n) {
    est.node_speed[n] = g.effective_speed(n, t);
  }
  for (grid::NodeId a = 0; a < est.num_nodes; ++a) {
    for (grid::NodeId b = 0; b < est.num_nodes; ++b) {
      const grid::Link& link = g.link(a, b);
      const double c = link.congestion_at(t);
      est.link_latency[a * est.num_nodes + b] = link.latency() * (1.0 + c);
      est.link_bandwidth[a * est.num_nodes + b] = link.bandwidth() / (1.0 + c);
    }
  }
  return est;
}

ResourceEstimate ResourceEstimate::from_monitor(
    const monitor::MonitoringRegistry& reg, const grid::Grid& catalog) {
  // Catalog values: the dedicated (t-independent) performance the
  // application benchmarked at deployment time.
  ResourceEstimate est;
  est.num_nodes = catalog.num_nodes();
  est.node_speed.resize(est.num_nodes);
  est.link_latency.resize(est.num_nodes * est.num_nodes);
  est.link_bandwidth.resize(est.num_nodes * est.num_nodes);
  for (grid::NodeId n = 0; n < est.num_nodes; ++n) {
    const double base = catalog.node(n).base_speed();
    est.node_speed[n] = reg.forecast(
        {monitor::SensorKind::kNodeSpeed, n, 0}, base);
    if (est.node_speed[n] <= 0.0) est.node_speed[n] = base;
  }
  for (grid::NodeId a = 0; a < est.num_nodes; ++a) {
    for (grid::NodeId b = 0; b < est.num_nodes; ++b) {
      const grid::Link& link = catalog.link(a, b);
      double inflation = reg.forecast(
          {monitor::SensorKind::kLinkInflation, a, b}, 1.0);
      if (inflation < 1e-6) inflation = 1.0;
      est.link_latency[a * est.num_nodes + b] = link.latency() * inflation;
      est.link_bandwidth[a * est.num_nodes + b] = link.bandwidth() / inflation;
    }
  }
  return est;
}

ThroughputBreakdown PerfModel::breakdown(const PipelineProfile& profile,
                                         const ResourceEstimate& est,
                                         const Mapping& mapping) const {
  ThroughputBreakdown bd;
  breakdown_into(profile, est, mapping, bd);
  return bd;
}

void PerfModel::breakdown_into(const PipelineProfile& profile,
                               const ResourceEstimate& est,
                               const Mapping& mapping,
                               ThroughputBreakdown& bd) const {
  profile.validate();
  mapping.validate(est.num_nodes);
  if (mapping.num_stages() != profile.num_stages()) {
    throw std::invalid_argument("PerfModel: mapping/profile stage mismatch");
  }

  const std::size_t ns = profile.num_stages();
  bd.node_busy.assign(est.num_nodes, 0.0);
  bd.edge_time.assign(ns + 1, 0.0);

  // Per-node busy time per item.
  for (std::size_t i = 0; i < ns; ++i) {
    const auto& reps = mapping.replicas(i);
    const double share = profile.stage_work[i] / static_cast<double>(reps.size());
    for (const grid::NodeId n : reps) {
      bd.node_busy[n] += share / est.node_speed[n];
    }
  }
  bd.node_cap = std::numeric_limits<double>::infinity();
  for (grid::NodeId n = 0; n < est.num_nodes; ++n) {
    if (bd.node_busy[n] > 0.0) {
      bd.node_cap = std::min(bd.node_cap, 1.0 / bd.node_busy[n]);
    }
  }

  // Per-link busy time. Edge e connects "from" replicas to "to" replicas;
  // each (a,b) pair carries 1/(|from|·|to|) of the items and occupies the
  // serial link (a,b) for its transfer time.
  bd.link_busy.assign(est.num_nodes * est.num_nodes, 0.0);
  double serialized_comm = 0.0;
  using Nodes = std::span<const grid::NodeId>;
  for (std::size_t e = 0; e <= ns; ++e) {
    const bool io_edge = (e == 0 || e == ns);
    if (io_edge && !profile.count_io_edges) continue;
    // Views, not copies: the mappers call this once per candidate.
    const Nodes from = e == 0 ? Nodes(&profile.source_node, 1)
                              : Nodes(mapping.replicas(e - 1));
    const Nodes to = e == ns ? Nodes(&profile.sink_node, 1)
                             : Nodes(mapping.replicas(e));
    const double pairs = static_cast<double>(from.size() * to.size());
    double worst_pair = 0.0;
    double mean_inter_node = 0.0;
    for (const grid::NodeId a : from) {
      for (const grid::NodeId b : to) {
        const double t = est.transfer_time(a, b, profile.msg_bytes[e]);
        worst_pair = std::max(worst_pair, t);
        bd.link_busy[a * est.num_nodes + b] += t / pairs;
        if (a != b) mean_inter_node += t;
      }
    }
    bd.edge_time[e] = worst_pair;
    // The shared-network term charges the average per-item transfer time
    // actually crossing node boundaries.
    serialized_comm += mean_inter_node / pairs;
  }
  bd.edge_cap = std::numeric_limits<double>::infinity();
  for (const double busy : bd.link_busy) {
    if (busy > 0.0) bd.edge_cap = std::min(bd.edge_cap, 1.0 / busy);
  }
  bd.total_comm_time = serialized_comm;
  bd.network_cap = serialized_comm > 0.0
                       ? 1.0 / serialized_comm
                       : std::numeric_limits<double>::infinity();

  double cap = std::min(bd.node_cap, bd.edge_cap);
  if (options_.network_serialization) cap = std::min(cap, bd.network_cap);
  bd.throughput = std::isinf(cap) ? 0.0 : cap;
}

double PerfModel::latency_estimate(const PipelineProfile& profile,
                                   const ResourceEstimate& est,
                                   const Mapping& mapping,
                                   double arrival_rate) const {
  if (arrival_rate <= 0.0) {
    throw std::invalid_argument("latency_estimate: rate <= 0");
  }
  const ThroughputBreakdown bd = breakdown(profile, est, mapping);
  if (arrival_rate >= bd.throughput) {
    return std::numeric_limits<double>::infinity();
  }
  const std::size_t ns = profile.num_stages();
  double latency = 0.0;

  // Queueing at each node: M/D/1 waiting time W = ρ·b / (2(1−ρ)) where b
  // is the node's deterministic per-item busy time. Each stage hosted on
  // the node contributes its share of b as service; the wait is charged
  // once per visit (≈ once per stage on that node).
  for (std::size_t i = 0; i < ns; ++i) {
    const auto& reps = mapping.replicas(i);
    const grid::NodeId n = reps.front();  // primary replica path
    const double busy = bd.node_busy[n];
    const double rho = arrival_rate * busy;
    const double wait = rho >= 1.0
                            ? std::numeric_limits<double>::infinity()
                            : rho * busy / (2.0 * (1.0 - rho));
    const double service = profile.stage_work[i] /
                           (static_cast<double>(reps.size()) * est.node_speed[n]);
    latency += service + wait;
  }
  // Transfers along the primary replica chain (plus I/O edges if they
  // count), with M/D/1 waits on serialized links.
  auto edge_latency = [&](grid::NodeId a, grid::NodeId b, double bytes) {
    const double t = est.transfer_time(a, b, bytes);
    const double busy = bd.link_busy[a * est.num_nodes + b];
    const double rho = arrival_rate * busy;
    const double wait = rho >= 1.0
                            ? std::numeric_limits<double>::infinity()
                            : rho * busy / (2.0 * (1.0 - rho));
    return t + wait;
  };
  if (profile.count_io_edges) {
    latency += edge_latency(profile.source_node, mapping.node_of(0),
                            profile.msg_bytes[0]);
    latency += edge_latency(mapping.node_of(ns - 1), profile.sink_node,
                            profile.msg_bytes[ns]);
  }
  for (std::size_t e = 1; e < ns; ++e) {
    latency += edge_latency(mapping.node_of(e - 1), mapping.node_of(e),
                            profile.msg_bytes[e]);
  }
  return latency;
}

double PerfModel::throughput(const PipelineProfile& profile,
                             const ResourceEstimate& est,
                             const Mapping& mapping) const {
  return breakdown(profile, est, mapping).throughput;
}

bool PerfModel::better(const ThroughputBreakdown& a, std::size_t a_nodes,
                       const ThroughputBreakdown& b, std::size_t b_nodes,
                       double tie_eps) const {
  const double scale = std::max({a.throughput, b.throughput, 1e-300});
  if (a.throughput - b.throughput > tie_eps * scale) return true;
  if (b.throughput - a.throughput > tie_eps * scale) return false;
  // Throughput tie: prefer less communication, then fewer nodes.
  if (a.total_comm_time < b.total_comm_time - 1e-12) return true;
  if (b.total_comm_time < a.total_comm_time - 1e-12) return false;
  return a_nodes < b_nodes;
}

double migration_cost(const PipelineProfile& profile,
                      const ResourceEstimate& est, const Mapping& from,
                      const Mapping& to, double restart_latency) {
  const auto moved = Mapping::moved_stages(from, to);
  if (moved.empty()) return 0.0;
  double slowest = 0.0;
  for (const std::size_t stage : moved) {
    if (stage >= profile.num_stages()) continue;
    const double state = profile.state_bytes[stage];
    // Worst (old replica → new replica) pair: migrations are parallel
    // across stages but each stage must reach all of its new homes.
    double stage_cost = 0.0;
    const auto& old_reps = stage < from.num_stages()
                               ? from.replicas(stage)
                               : std::vector<grid::NodeId>{};
    for (const grid::NodeId dst : to.replicas(stage)) {
      double best_src = std::numeric_limits<double>::infinity();
      if (old_reps.empty()) {
        best_src = est.transfer_time(profile.source_node, dst, state);
      } else {
        for (const grid::NodeId src : old_reps) {
          best_src = std::min(best_src, est.transfer_time(src, dst, state));
        }
      }
      stage_cost = std::max(stage_cost, best_src);
    }
    slowest = std::max(slowest, stage_cost);
  }
  return restart_latency + slowest;
}

}  // namespace gridpipe::sched
