#include "sched/exhaustive.hpp"

#include <algorithm>
#include <cmath>

namespace gridpipe::sched {

namespace {

/// Distinct nodes of a one-replica-per-stage assignment; what
/// Mapping::nodes_used().size() gives, without allocating.
std::size_t distinct_nodes(const std::vector<grid::NodeId>& assign) {
  std::size_t n = 0;
  for (auto it = assign.begin(); it != assign.end(); ++it) {
    if (std::find(assign.begin(), it, *it) == it) ++n;
  }
  return n;
}

}  // namespace

std::optional<MapperResult> ExhaustiveMapper::best(
    const PipelineProfile& profile, const ResourceEstimate& est) const {
  profile.validate();
  const std::size_t ns = profile.num_stages();
  const std::size_t np = est.num_nodes;
  if (np == 0) return std::nullopt;

  const std::size_t free_stages = options_.pin_first_stage ? ns - 1 : ns;
  const double space = std::pow(static_cast<double>(np),
                                static_cast<double>(free_stages));
  if (space > static_cast<double>(options_.max_candidates)) {
    return std::nullopt;
  }

  std::vector<grid::NodeId> assign(ns, 0);
  if (options_.pin_first_stage) assign[0] = profile.source_node;

  MapperResult best_result;
  std::size_t best_nodes = 0;
  bool have_best = false;
  std::size_t evaluated = 0;

  // Odometer enumeration over the free stages. One candidate and one
  // breakdown are rewritten in place, so only an improvement copies.
  const std::size_t first_free = options_.pin_first_stage ? 1 : 0;
  Mapping candidate{assign};
  ThroughputBreakdown bd;
  for (;;) {
    for (std::size_t i = first_free; i < ns; ++i) {
      candidate.reassign(i, assign[i]);
    }
    model_.breakdown_into(profile, est, candidate, bd);
    ++evaluated;
    const std::size_t nodes_used = distinct_nodes(assign);
    if (!have_best || model_.better(bd, nodes_used, best_result.breakdown,
                                    best_nodes)) {
      best_result.mapping = candidate;
      best_result.breakdown = bd;
      best_nodes = nodes_used;
      have_best = true;
    }
    // Increment the odometer.
    std::size_t digit = ns;
    while (digit > first_free) {
      --digit;
      if (static_cast<std::size_t>(++assign[digit]) < np) break;
      assign[digit] = 0;
      if (digit == first_free) {
        best_result.candidates_evaluated = evaluated;
        return best_result;
      }
    }
    if (ns == first_free) {  // degenerate: everything pinned
      best_result.candidates_evaluated = evaluated;
      return best_result;
    }
  }
}

MapperResult improve_with_replication(const PerfModel& model,
                                      const PipelineProfile& profile,
                                      const ResourceEstimate& est,
                                      const Mapping& base,
                                      std::size_t max_total_replicas) {
  MapperResult result;
  result.mapping = base;
  result.breakdown = model.breakdown(profile, est, base);

  auto total_replicas = [](const Mapping& m) {
    std::size_t total = 0;
    for (std::size_t i = 0; i < m.num_stages(); ++i) {
      total += m.replica_count(i);
    }
    return total;
  };

  while (total_replicas(result.mapping) < max_total_replicas) {
    MapperResult best_step = result;
    bool improved = false;
    for (std::size_t stage = 0; stage < result.mapping.num_stages(); ++stage) {
      for (grid::NodeId n = 0; n < est.num_nodes; ++n) {
        const auto& reps = result.mapping.replicas(stage);
        if (std::find(reps.begin(), reps.end(), n) != reps.end()) continue;
        Mapping candidate = result.mapping;
        candidate.add_replica(stage, n);
        const ThroughputBreakdown bd = model.breakdown(profile, est, candidate);
        ++result.candidates_evaluated;
        if (bd.throughput > best_step.breakdown.throughput * (1.0 + 1e-9)) {
          best_step.mapping = std::move(candidate);
          best_step.breakdown = bd;
          improved = true;
        }
      }
    }
    if (!improved) break;
    best_step.candidates_evaluated = result.candidates_evaluated;
    result = std::move(best_step);
  }
  return result;
}

}  // namespace gridpipe::sched
