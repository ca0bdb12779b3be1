// Tests for the mapping search algorithms: exhaustive, DP-contiguous,
// greedy, local search, replication improvement — including the
// calibration-table regimes (DESIGN.md EXP-T1) and cross-mapper
// optimality properties on random instances.

#include <optional>

#include <gtest/gtest.h>

#include "grid/builders.hpp"
#include "sched/adaptation_policy.hpp"
#include "sched/dp_contiguous.hpp"
#include "sched/exhaustive.hpp"
#include "sched/greedy.hpp"
#include "sched/local_search.hpp"
#include "sched/replica_router.hpp"

namespace gridpipe::sched {
namespace {

using grid::Grid;
using grid::NodeId;

// Builds the calibration setup: 3 stages of unit work, processor i
// completes a stage in t[i] seconds (speed = 1/t[i]), link latencies
// l12/l23/l13, negligible message sizes.
struct Calibration {
  Grid g;
  PipelineProfile p;
  ResourceEstimate est;

  Calibration(double l12, double l23, double l13, double t1, double t2,
              double t3) {
    g = grid::heterogeneous_cluster({1.0 / t1, 1.0 / t2, 1.0 / t3}, 1e-4,
                                    1e12);
    g.set_symmetric_link(0, 1, grid::Link(l12, 1e12));
    g.set_symmetric_link(1, 2, grid::Link(l23, 1e12));
    g.set_symmetric_link(0, 2, grid::Link(l13, 1e12));
    p = PipelineProfile::uniform(3, 1.0, 1.0);
    p.source_node = 0;
    est = ResourceEstimate::from_grid(g, 0.0);
  }
};

MapperResult exhaustive_best(const Calibration& c, const PerfModel& model) {
  ExhaustiveOptions opts;
  opts.pin_first_stage = true;  // the paper pins stage 1 on processor 1
  const ExhaustiveMapper mapper(model, opts);
  auto result = mapper.best(c.p, c.est);
  EXPECT_TRUE(result.has_value());
  return std::move(*result);
}

// Row 1-2 of the calibration table: identical processors, fast links →
// one stage per processor; doubling stage time halves throughput.
TEST(CalibrationTable, FastLinksSpreadStages) {
  const PerfModel model;
  Calibration fast(1e-4, 1e-4, 1e-4, 0.1, 0.1, 0.1);
  const auto best = exhaustive_best(fast, model);
  EXPECT_EQ(best.mapping.to_string(), "(1,2,3)");
  EXPECT_NEAR(best.breakdown.throughput, 10.0, 1e-6);

  Calibration slower(1e-4, 1e-4, 1e-4, 0.2, 0.2, 0.2);
  const auto best2 = exhaustive_best(slower, model);
  EXPECT_EQ(best2.mapping.to_string(), "(1,2,3)");
  EXPECT_NEAR(best2.breakdown.throughput, 5.0, 1e-6);
}

// Row 3: processor 3 became busy (t3 = 1): avoid it. The paper reports
// (1,2,1); our model scores (1,2,1) and (1,2,2) identically on
// throughput, so accept the equivalence class.
TEST(CalibrationTable, BusyProcessorAvoided) {
  const PerfModel model;
  Calibration c(1e-4, 1e-4, 1e-4, 0.1, 0.1, 1.0);
  const auto best = exhaustive_best(c, model);
  EXPECT_NEAR(best.breakdown.throughput, 5.0, 1e-6);
  const double paper_winner =
      model.throughput(c.p, c.est, Mapping(std::vector<NodeId>{0, 1, 0}));
  EXPECT_NEAR(best.breakdown.throughput, paper_winner, 1e-9);
  // Processor 3 must not be used.
  for (const NodeId n : best.mapping.nodes_used()) EXPECT_NE(n, 2u);
}

// Row 4: slow links (0.1 s) and busy processor 3 → fold consecutive
// stages, (1,2,2)-class.
TEST(CalibrationTable, SlowLinksFoldConsecutiveStages) {
  const PerfModel model;
  Calibration c(0.1, 0.1, 0.1, 0.1, 0.1, 1.0);
  const auto best = exhaustive_best(c, model);
  EXPECT_NEAR(best.breakdown.throughput, 5.0, 1e-6);
  const double paper_winner =
      model.throughput(c.p, c.est, Mapping(std::vector<NodeId>{0, 1, 1}));
  EXPECT_NEAR(best.breakdown.throughput, paper_winner, 1e-9);
}

// Row 5: very slow links (1 s) → everything on processor 1.
TEST(CalibrationTable, VerySlowLinksCollapseToOneNode) {
  const PerfModel model;
  Calibration c(1.0, 1.0, 1.0, 0.1, 0.1, 1.0);
  const auto best = exhaustive_best(c, model);
  EXPECT_EQ(best.mapping.to_string(), "(1,1,1)");
  EXPECT_NEAR(best.breakdown.throughput, 10.0 / 3.0, 1e-6);
}

// Row 6: only the 1-2 link is healthy → use processors 1 and 2.
TEST(CalibrationTable, OnlyHealthyLinkUsed) {
  const PerfModel model;
  Calibration c(0.1, 1.0, 1.0, 0.1, 0.1, 0.1);
  const auto best = exhaustive_best(c, model);
  EXPECT_NEAR(best.breakdown.throughput, 5.0, 1e-6);
  const double paper_winner =
      model.throughput(c.p, c.est, Mapping(std::vector<NodeId>{0, 1, 1}));
  EXPECT_NEAR(best.breakdown.throughput, paper_winner, 1e-9);
  for (const NodeId n : best.mapping.nodes_used()) EXPECT_NE(n, 2u);
}

// Row 7: processor 3 is 100x faster — worth the slow link: (1,3,3).
TEST(CalibrationTable, MuchFasterProcessorWorthSlowLink) {
  const PerfModel model;
  Calibration c(0.1, 1.0, 1.0, 1.0, 1.0, 0.01);
  const auto best = exhaustive_best(c, model);
  EXPECT_EQ(best.mapping.to_string(), "(1,3,3)");
  EXPECT_NEAR(best.breakdown.throughput, 1.0, 1e-6);
}

// ------------------------------------------------------------ mappers

TEST(ExhaustiveMapper, RefusesHugeSpaces) {
  const PerfModel model;
  const Grid g = grid::uniform_cluster(10, 1.0, 1e-4, 1e9);
  const auto p = PipelineProfile::uniform(12, 1.0, 1.0);
  const auto est = ResourceEstimate::from_grid(g, 0.0);
  ExhaustiveOptions opts;
  opts.max_candidates = 1000;
  const ExhaustiveMapper mapper(model, opts);
  EXPECT_FALSE(mapper.best(p, est).has_value());
}

TEST(ExhaustiveMapper, CountsCandidates) {
  const PerfModel model;
  Calibration c(1e-4, 1e-4, 1e-4, 0.1, 0.1, 0.1);
  const ExhaustiveMapper mapper(model);
  const auto result = mapper.best(c.p, c.est);
  ASSERT_TRUE(result);
  EXPECT_EQ(result->candidates_evaluated, 27u);  // 3^3
}

TEST(ExhaustiveMapper, MatchesFreshScoringOfEveryCandidate) {
  // Links cost next to nothing, so comm times tie. With stage 1 pinned on
  // node 0 (the bottleneck), (1,2,3) is the first mapping to reach the
  // best throughput and (1,3,3) the later one that wins on nodes used.
  const PerfModel model;
  const Grid g = grid::heterogeneous_cluster({1.0, 1.5, 3.0}, 1e-15, 1e30);
  const auto p = PipelineProfile::uniform(3, 1.0, 1.0);
  const auto est = ResourceEstimate::from_grid(g, 0.0);
  for (const bool pin : {false, true}) {
    std::optional<Mapping> best;
    ThroughputBreakdown best_bd;
    for (NodeId a = 0; a < 3; ++a) {
      for (NodeId b = 0; b < 3; ++b) {
        for (NodeId c = 0; c < 3; ++c) {
          if (pin && a != p.source_node) continue;
          const Mapping m(std::vector<NodeId>{a, b, c});
          const ThroughputBreakdown bd = model.breakdown(p, est, m);
          if (!best || model.better(bd, m.nodes_used().size(), best_bd,
                                    best->nodes_used().size())) {
            best = m;
            best_bd = bd;
          }
        }
      }
    }
    ExhaustiveOptions opts;
    opts.pin_first_stage = pin;
    const auto result = ExhaustiveMapper(model, opts).best(p, est);
    ASSERT_TRUE(result);
    EXPECT_EQ(result->mapping, *best) << "pin_first_stage=" << pin;
    EXPECT_EQ(result->breakdown.throughput, best_bd.throughput);
    EXPECT_EQ(result->breakdown.link_busy, best_bd.link_busy);
    if (pin) {
      EXPECT_EQ(result->mapping.to_string(), "(1,3,3)");
    }
  }
}

TEST(DpContiguousMapper, MatchesExhaustiveOnContiguousOptimum) {
  const PerfModel model;
  // Balanced work, fast links: the optimum (one stage per node) is
  // contiguous, so DP must find the same throughput as exhaustive.
  const Grid g = grid::heterogeneous_cluster({1.0, 2.0, 1.0}, 1e-3, 1e9);
  auto p = PipelineProfile::uniform(4, 1.0, 100.0);
  const auto est = ResourceEstimate::from_grid(g, 0.0);
  const auto dp = DpContiguousMapper(model).best(p, est);
  const auto ex = ExhaustiveMapper(model).best(p, est);
  ASSERT_TRUE(dp && ex);
  EXPECT_NEAR(dp->breakdown.throughput, ex->breakdown.throughput, 1e-9);
}

TEST(DpContiguousMapper, RefusesTooManyNodes) {
  const PerfModel model;
  const Grid g = grid::uniform_cluster(14, 1.0, 1e-4, 1e9);
  const auto p = PipelineProfile::uniform(3, 1.0, 1.0);
  const auto est = ResourceEstimate::from_grid(g, 0.0);
  EXPECT_FALSE(DpContiguousMapper(model).best(p, est).has_value());
}

TEST(DpContiguousMapper, ProducesContiguousIntervals) {
  const PerfModel model;
  const Grid g = grid::heterogeneous_cluster({2.0, 1.0, 3.0, 1.0}, 1e-3, 1e8);
  const auto p = PipelineProfile::uniform(8, 1.0, 1e4);
  const auto est = ResourceEstimate::from_grid(g, 0.0);
  const auto dp = DpContiguousMapper(model).best(p, est);
  ASSERT_TRUE(dp);
  // Contiguity: once a node is left it never reappears.
  std::vector<NodeId> order;
  for (std::size_t i = 0; i < dp->mapping.num_stages(); ++i) {
    const NodeId n = dp->mapping.node_of(i);
    if (order.empty() || order.back() != n) order.push_back(n);
  }
  std::sort(order.begin(), order.end());
  EXPECT_TRUE(std::adjacent_find(order.begin(), order.end()) == order.end());
}

// The documented case where contiguity is suboptimal: fast links, slow
// third processor — exhaustive finds the non-contiguous (1,2,1).
TEST(DpContiguousMapper, NonContiguousOptimumCanBeatDp) {
  const PerfModel model;
  Calibration c(1e-4, 1e-4, 1e-4, 0.1, 0.1, 1.0);
  const auto dp = DpContiguousMapper(model).best(c.p, c.est);
  const auto ex = ExhaustiveMapper(model).best(c.p, c.est);
  ASSERT_TRUE(dp && ex);
  // (1,2,2) is contiguous and also achieves 5.0 here, so DP ties; the
  // invariant under test is DP <= exhaustive.
  EXPECT_LE(dp->breakdown.throughput, ex->breakdown.throughput + 1e-9);
}

TEST(GreedyMapper, ReasonableOnHeterogeneousCluster) {
  const PerfModel model;
  const Grid g = grid::heterogeneous_cluster({4.0, 1.0, 1.0}, 1e-4, 1e9);
  const auto p = PipelineProfile::uniform(3, 1.0, 1.0);
  const auto est = ResourceEstimate::from_grid(g, 0.0);
  const auto result = GreedyMapper(model).best(p, est);
  EXPECT_GT(result.breakdown.throughput, 0.0);
  // Greedy must put at least one stage on the 4x node.
  EXPECT_GE(result.mapping.stages_on(0), 1u);
}

TEST(LocalSearchMapper, NeverWorseThanGreedy) {
  const PerfModel model;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    grid::RandomGridParams params;
    params.nodes = 4;
    const Grid g = grid::random_grid(seed, params);
    const auto p = PipelineProfile::uniform(6, 1.0, 1e4);
    const auto est = ResourceEstimate::from_grid(g, 0.0);
    const auto greedy = GreedyMapper(model).best(p, est);
    const auto local = LocalSearchMapper(model).best(p, est);
    EXPECT_GE(local.breakdown.throughput,
              greedy.breakdown.throughput - 1e-9)
        << "seed " << seed;
  }
}

// Property sweep: on random instances every heuristic is bounded by the
// exhaustive optimum, and local search gets within 25% of it.
class MapperOptimality : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MapperOptimality, HeuristicsBoundedByExhaustive) {
  const PerfModel model;
  grid::RandomGridParams params;
  params.nodes = 3;
  const Grid g = grid::random_grid(GetParam(), params);
  util::Xoshiro256 rng(GetParam() ^ 0xABCD);
  PipelineProfile p;
  for (int i = 0; i < 5; ++i) {
    p.stage_work.push_back(util::uniform(rng, 0.5, 4.0));
  }
  p.msg_bytes.assign(6, util::uniform(rng, 1e3, 1e6));
  p.state_bytes.assign(5, 0.0);
  const auto est = ResourceEstimate::from_grid(g, 0.0);

  const auto ex = ExhaustiveMapper(model).best(p, est);
  ASSERT_TRUE(ex);
  const double optimum = ex->breakdown.throughput;

  const auto dp = DpContiguousMapper(model).best(p, est);
  ASSERT_TRUE(dp);
  EXPECT_LE(dp->breakdown.throughput, optimum + 1e-9);

  const auto greedy = GreedyMapper(model).best(p, est);
  EXPECT_LE(greedy.breakdown.throughput, optimum + 1e-9);

  const auto local = LocalSearchMapper(model).best(p, est);
  EXPECT_LE(local.breakdown.throughput, optimum + 1e-9);
  EXPECT_GE(local.breakdown.throughput, 0.75 * optimum);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MapperOptimality,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---------------------------------------------------------- replication

TEST(ImproveWithReplication, LiftsHotStage) {
  const PerfModel model;
  const Grid g = grid::uniform_cluster(4, 1.0, 1e-4, 1e10);
  PipelineProfile p;
  p.stage_work = {0.1, 0.8, 0.1};
  p.msg_bytes.assign(4, 1.0);
  p.state_bytes.assign(3, 0.0);
  const auto est = ResourceEstimate::from_grid(g, 0.0);
  const Mapping base(std::vector<NodeId>{0, 1, 2});

  const auto improved =
      improve_with_replication(model, p, est, base, /*max_total=*/5);
  EXPECT_GT(improved.breakdown.throughput,
            model.throughput(p, est, base) * 1.5);
  EXPECT_GE(improved.mapping.replica_count(1), 2u);
}

TEST(ImproveWithReplication, NoGainNoChange) {
  const PerfModel model;
  const Grid g = grid::uniform_cluster(3, 1.0, 1e-4, 1e10);
  const auto p = PipelineProfile::uniform(3, 1.0, 1.0);
  const auto est = ResourceEstimate::from_grid(g, 0.0);
  const Mapping base(std::vector<NodeId>{0, 1, 2});
  // Equal stages on equal nodes: no replica can help (no idle node).
  const auto improved =
      improve_with_replication(model, p, est, base, /*max_total=*/3);
  EXPECT_EQ(improved.mapping, base);
}

// ---------------------------------------------------- adaptation policy

struct PolicyFixture {
  Grid g = grid::heterogeneous_cluster({1.0, 1.0, 4.0}, 1e-4, 1e9);
  PipelineProfile p = PipelineProfile::uniform(3, 1.0, 1.0, /*state=*/0.0);
  ResourceEstimate est = ResourceEstimate::from_grid(g, 0.0);
  PerfModel model;
  Mapping slow{std::vector<NodeId>{0, 0, 1}};
  Mapping fast{std::vector<NodeId>{0, 1, 2}};
};

TEST(AdaptationPolicy, ApprovesClearWinAfterHysteresis) {
  PolicyFixture f;
  AdaptationOptions opts;
  opts.hysteresis_epochs = 2;
  AdaptationPolicy policy(f.model, opts);
  const auto first = policy.decide(f.p, f.est, f.slow, f.fast);
  EXPECT_FALSE(first.remap);  // streak 1/2
  const auto second = policy.decide(f.p, f.est, f.slow, f.fast);
  EXPECT_TRUE(second.remap);
  EXPECT_GT(second.candidate_throughput, second.current_throughput);
}

TEST(AdaptationPolicy, HysteresisDisabledActsImmediately) {
  PolicyFixture f;
  AdaptationOptions opts;
  opts.enable_hysteresis = false;
  AdaptationPolicy policy(f.model, opts);
  EXPECT_TRUE(policy.decide(f.p, f.est, f.slow, f.fast).remap);
}

TEST(AdaptationPolicy, RejectsSmallGain) {
  PolicyFixture f;
  AdaptationOptions opts;
  opts.min_gain_ratio = 0.5;  // demand 50%
  opts.enable_hysteresis = false;
  AdaptationPolicy policy(f.model, opts);
  // slow: node0 busy 2s -> 0.5/s; fast: 1.0/s → gain 100% > 50%: remap.
  EXPECT_TRUE(policy.decide(f.p, f.est, f.slow, f.fast).remap);
  opts.min_gain_ratio = 1.5;  // demand 150%: 100% gain refused
  AdaptationPolicy strict(f.model, opts);
  const auto d = strict.decide(f.p, f.est, f.slow, f.fast);
  EXPECT_FALSE(d.remap);
  EXPECT_EQ(d.reason, "gain below min_gain_ratio");
}

TEST(AdaptationPolicy, CostGateBlocksExpensiveMigration) {
  PolicyFixture f;
  f.p.state_bytes.assign(3, 1e12);  // enormous state
  f.est = ResourceEstimate::from_grid(f.g, 0.0);
  AdaptationOptions opts;
  opts.enable_hysteresis = false;
  opts.amortization_horizon = 10.0;
  AdaptationPolicy policy(f.model, opts);
  const auto d = policy.decide(f.p, f.est, f.slow, f.fast);
  EXPECT_FALSE(d.remap);
  EXPECT_EQ(d.reason, "migration cost exceeds horizon gain");

  opts.enable_cost_gate = false;
  AdaptationPolicy reckless(f.model, opts);
  EXPECT_TRUE(reckless.decide(f.p, f.est, f.slow, f.fast).remap);
}

TEST(AdaptationPolicy, IdenticalMappingNeverRemaps) {
  PolicyFixture f;
  AdaptationOptions opts;
  opts.enable_hysteresis = false;
  AdaptationPolicy policy(f.model, opts);
  EXPECT_FALSE(policy.decide(f.p, f.est, f.fast, f.fast).remap);
}

TEST(AdaptationPolicy, StreakResetsOnFailedGate) {
  PolicyFixture f;
  AdaptationOptions opts;
  opts.hysteresis_epochs = 2;
  AdaptationPolicy policy(f.model, opts);
  EXPECT_FALSE(policy.decide(f.p, f.est, f.slow, f.fast).remap);  // streak 1
  EXPECT_FALSE(policy.decide(f.p, f.est, f.slow, f.slow).remap);  // reset
  EXPECT_FALSE(policy.decide(f.p, f.est, f.slow, f.fast).remap);  // streak 1
  EXPECT_TRUE(policy.decide(f.p, f.est, f.slow, f.fast).remap);   // streak 2
}

// ------------------------------------------------------- replica router

TEST(ReplicaRouter, RoundRobinsAcrossReplicas) {
  Mapping m(std::vector<NodeId>{0, 1});
  m.add_replica(1, 2);
  ReplicaRouter router(2);
  EXPECT_EQ(router.pick(m, 0), 0u);
  EXPECT_EQ(router.pick(m, 1), 1u);
  EXPECT_EQ(router.pick(m, 1), 2u);
  EXPECT_EQ(router.pick(m, 1), 1u);  // wraps
  router.reset(2);
  EXPECT_EQ(router.pick(m, 1), 1u);  // rotation restarts after a remap
}

}  // namespace
}  // namespace gridpipe::sched
