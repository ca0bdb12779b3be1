// Tests for sched::Mapping, PipelineProfile, ResourceEstimate and the
// analytic PerfModel — including the closed-form cases the model must get
// exactly right.

#include <gtest/gtest.h>

#include "grid/builders.hpp"
#include "sched/perf_model.hpp"

namespace gridpipe::sched {
namespace {

using grid::Grid;
using grid::NodeId;

// ------------------------------------------------------------- mapping

TEST(Mapping, BuildersAndAccessors) {
  const Mapping rr = Mapping::round_robin(5, 2);
  EXPECT_EQ(rr.node_of(0), 0u);
  EXPECT_EQ(rr.node_of(1), 1u);
  EXPECT_EQ(rr.node_of(4), 0u);
  EXPECT_EQ(rr.stages_on(0), 3u);

  const Mapping blk = Mapping::block(6, 3);
  EXPECT_EQ(blk.node_of(0), 0u);
  EXPECT_EQ(blk.node_of(1), 0u);
  EXPECT_EQ(blk.node_of(2), 1u);
  EXPECT_EQ(blk.node_of(5), 2u);

  const Mapping one = Mapping::all_on(4, 2);
  EXPECT_EQ(one.nodes_used(), std::vector<NodeId>{2});
}

TEST(Mapping, BlockWithMoreNodesThanStages) {
  const Mapping blk = Mapping::block(2, 8);
  EXPECT_EQ(blk.node_of(0), 0u);
  EXPECT_EQ(blk.node_of(1), 1u);
}

TEST(Mapping, ReplicationAccounting) {
  Mapping m(std::vector<NodeId>{0, 1, 1});
  EXPECT_FALSE(m.has_replication());
  m.add_replica(1, 2);
  m.add_replica(1, 2);  // duplicate ignored
  EXPECT_TRUE(m.has_replication());
  EXPECT_EQ(m.replica_count(1), 2u);
  EXPECT_EQ(m.stages_on(2), 1u);
  m.reassign(1, 0);
  EXPECT_EQ(m.replica_count(1), 1u);
  EXPECT_EQ(m.node_of(1), 0u);
}

TEST(Mapping, MovedStages) {
  const Mapping a(std::vector<NodeId>{0, 1, 2});
  Mapping b = a;
  EXPECT_TRUE(Mapping::moved_stages(a, b).empty());
  b.reassign(1, 2);
  EXPECT_EQ(Mapping::moved_stages(a, b), std::vector<std::size_t>{1});
}

TEST(Mapping, ValidateCatchesErrors) {
  const Mapping ok(std::vector<NodeId>{0, 1});
  EXPECT_NO_THROW(ok.validate(2));
  EXPECT_THROW(ok.validate(1), std::invalid_argument);  // node 1 missing
  EXPECT_THROW(Mapping{}.validate(2), std::invalid_argument);
  const Mapping dup(std::vector<std::vector<NodeId>>{{0, 0}});
  EXPECT_THROW(dup.validate(2), std::invalid_argument);
}

TEST(Mapping, PaperStyleToString) {
  const Mapping m(std::vector<NodeId>{0, 1, 1});
  EXPECT_EQ(m.to_string(), "(1,2,2)");
  Mapping r = m;
  r.add_replica(2, 2);
  EXPECT_EQ(r.to_string(), "(1,2,[2|3])");
}

// ------------------------------------------------------------- profile

TEST(PipelineProfile, UniformAndValidate) {
  const auto p = PipelineProfile::uniform(3, 2.0, 100.0, 50.0);
  EXPECT_EQ(p.num_stages(), 3u);
  EXPECT_EQ(p.msg_bytes.size(), 4u);
  EXPECT_NO_THROW(p.validate());

  PipelineProfile bad = p;
  bad.msg_bytes.pop_back();
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = p;
  bad.stage_work[1] = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

// ------------------------------------------------------------ estimate

TEST(ResourceEstimate, FromGridReflectsLoadAndCongestion) {
  Grid g = grid::uniform_cluster(2, 4.0, 0.01, 1e6);
  grid::set_node_load(g, 1, std::make_shared<grid::ConstantLoad>(1.0));
  grid::Link congested(0.01, 1e6,
                       std::make_shared<grid::ConstantLoad>(1.0));
  g.set_link(0, 1, std::move(congested));

  const auto est = ResourceEstimate::from_grid(g, 0.0);
  EXPECT_DOUBLE_EQ(est.node_speed[0], 4.0);
  EXPECT_DOUBLE_EQ(est.node_speed[1], 2.0);
  EXPECT_DOUBLE_EQ(est.latency(0, 1), 0.02);
  EXPECT_DOUBLE_EQ(est.bandwidth(0, 1), 5e5);
  EXPECT_DOUBLE_EQ(est.latency(1, 0), 0.01);  // reverse link untouched
}

TEST(ResourceEstimate, FromMonitorFallsBackToCatalog) {
  const Grid g = grid::uniform_cluster(2, 3.0, 0.01, 1e6);
  monitor::MonitoringRegistry reg;
  // Only node 0 has observations.
  for (int i = 0; i < 10; ++i) {
    reg.record({monitor::SensorKind::kNodeSpeed, 0, 0}, i, 1.5);
  }
  const auto est = ResourceEstimate::from_monitor(reg, g);
  EXPECT_NEAR(est.node_speed[0], 1.5, 1e-9);
  EXPECT_DOUBLE_EQ(est.node_speed[1], 3.0);  // catalog fallback
  EXPECT_DOUBLE_EQ(est.latency(0, 1), 0.01);
}

TEST(ResourceEstimate, FromMonitorAppliesLinkInflation) {
  const Grid g = grid::uniform_cluster(2, 3.0, 0.01, 1e6);
  monitor::MonitoringRegistry reg;
  for (int i = 0; i < 10; ++i) {
    reg.record({monitor::SensorKind::kLinkInflation, 0, 1}, i, 2.0);
  }
  const auto est = ResourceEstimate::from_monitor(reg, g);
  EXPECT_NEAR(est.latency(0, 1), 0.02, 1e-9);
  EXPECT_NEAR(est.bandwidth(0, 1), 5e5, 1e-3);
}

// ----------------------------------------------------------- perfmodel

// Three unit-speed nodes, negligible network, three 0.1-work stages.
struct ModelFixture {
  Grid g = grid::uniform_cluster(3, 1.0, 1e-4, 1e12);
  PipelineProfile p = PipelineProfile::uniform(3, 0.1, 1.0);
  ResourceEstimate est = ResourceEstimate::from_grid(g, 0.0);
  PerfModel model;
};

TEST(PerfModel, OneStagePerNodeIsWorkBound) {
  ModelFixture f;
  const Mapping m(std::vector<NodeId>{0, 1, 2});
  EXPECT_NEAR(f.model.throughput(f.p, f.est, m), 10.0, 1e-6);
}

TEST(PerfModel, ColocatedStagesSerialize) {
  ModelFixture f;
  EXPECT_NEAR(f.model.throughput(f.p, f.est,
                                 Mapping(std::vector<NodeId>{0, 0, 1})),
              5.0, 1e-6);
  EXPECT_NEAR(f.model.throughput(f.p, f.est, Mapping::all_on(3, 0)),
              10.0 / 3.0, 1e-6);
}

TEST(PerfModel, SlowLinkCapsThroughput) {
  ModelFixture f;
  f.g.set_link(1, 2, grid::Link(0.5, 1e12));
  f.est = ResourceEstimate::from_grid(f.g, 0.0);
  const Mapping m(std::vector<NodeId>{0, 1, 2});
  EXPECT_NEAR(f.model.throughput(f.p, f.est, m), 2.0, 1e-6);
}

TEST(PerfModel, ReplicationLiftsHotStage) {
  // Stage 1 is 4x hotter; replicating it on two nodes doubles its cap.
  Grid g = grid::uniform_cluster(4, 1.0, 1e-4, 1e12);
  PipelineProfile p;
  p.stage_work = {0.1, 0.4, 0.1};
  p.msg_bytes.assign(4, 1.0);
  p.state_bytes.assign(3, 0.0);
  const auto est = ResourceEstimate::from_grid(g, 0.0);
  const PerfModel model;

  Mapping base(std::vector<NodeId>{0, 1, 2});
  const double thr_base = model.throughput(p, est, base);
  EXPECT_NEAR(thr_base, 2.5, 1e-6);

  Mapping replicated = base;
  replicated.add_replica(1, 3);
  const double thr_rep = model.throughput(p, est, replicated);
  EXPECT_NEAR(thr_rep, 5.0, 1e-6);
}

TEST(PerfModel, NetworkSerializationAddsGlobalCap) {
  Grid g = grid::uniform_cluster(3, 1.0, 0.2, 1e12);
  const auto p = PipelineProfile::uniform(3, 0.1, 1.0);
  const auto est = ResourceEstimate::from_grid(g, 0.0);
  const Mapping m(std::vector<NodeId>{0, 1, 2});

  const PerfModel parallel_net;  // two 0.2s edges, parallel: cap 5
  EXPECT_NEAR(parallel_net.throughput(p, est, m), 5.0, 1e-6);

  PerfModelOptions opts;
  opts.network_serialization = true;  // shared network: 1/(0.2+0.2)
  const PerfModel serial_net(opts);
  EXPECT_NEAR(serial_net.throughput(p, est, m), 2.5, 1e-6);
}

TEST(PerfModel, IoEdgesOnlyWhenEnabled) {
  Grid g = grid::uniform_cluster(2, 1.0, 1e-4, 1e12);
  auto p = PipelineProfile::uniform(2, 0.1, 1.0);
  p.source_node = 0;
  p.sink_node = 0;
  auto est = ResourceEstimate::from_grid(g, 0.0);
  // Make the source->stage0 path catastrophically slow via a huge input.
  p.msg_bytes[0] = 1e12;  // 1 second at 1e12 B/s
  const Mapping m(std::vector<NodeId>{1, 0});
  const PerfModel model;
  EXPECT_NEAR(model.throughput(p, est, m), 10.0, 1e-6);
  p.count_io_edges = true;
  EXPECT_LT(model.throughput(p, est, m), 1.01);
}

TEST(PerfModel, BreakdownIsConsistent) {
  ModelFixture f;
  const Mapping m(std::vector<NodeId>{0, 0, 1});
  const auto bd = f.model.breakdown(f.p, f.est, m);
  EXPECT_NEAR(bd.node_busy[0], 0.2, 1e-9);
  EXPECT_NEAR(bd.node_busy[1], 0.1, 1e-9);
  EXPECT_DOUBLE_EQ(bd.node_busy[2], 0.0);
  EXPECT_NEAR(bd.node_cap, 5.0, 1e-6);
  EXPECT_DOUBLE_EQ(bd.throughput,
                   f.model.throughput(f.p, f.est, m));
}

TEST(PerfModel, BreakdownIntoMatchesBreakdownWhenReused) {
  // One breakdown rewritten for a replicated mapping, then a plain one on
  // fewer nodes: nothing of the first may leak into the second.
  ModelFixture f;
  f.p.count_io_edges = true;
  Mapping replicated(std::vector<NodeId>{0, 1, 2});
  replicated.add_replica(1, 0);
  const Mapping folded(std::vector<NodeId>{1, 1, 1});
  ThroughputBreakdown reused;
  for (const Mapping& m : {replicated, folded}) {
    f.model.breakdown_into(f.p, f.est, m, reused);
    const ThroughputBreakdown fresh = f.model.breakdown(f.p, f.est, m);
    EXPECT_EQ(reused.node_busy, fresh.node_busy);
    EXPECT_EQ(reused.edge_time, fresh.edge_time);
    EXPECT_EQ(reused.link_busy, fresh.link_busy);
    EXPECT_EQ(reused.node_cap, fresh.node_cap);
    EXPECT_EQ(reused.edge_cap, fresh.edge_cap);
    EXPECT_EQ(reused.network_cap, fresh.network_cap);
    EXPECT_EQ(reused.throughput, fresh.throughput);
    EXPECT_EQ(reused.total_comm_time, fresh.total_comm_time);
  }
}

TEST(PerfModel, MismatchedStagesThrow) {
  ModelFixture f;
  EXPECT_THROW(f.model.throughput(f.p, f.est,
                                  Mapping(std::vector<NodeId>{0, 1})),
               std::invalid_argument);
}

TEST(PerfModel, BetterPrefersThroughputThenCommThenNodes) {
  ModelFixture f;
  const PerfModel& model = f.model;
  ThroughputBreakdown hi, lo;
  hi.throughput = 2.0;
  lo.throughput = 1.0;
  EXPECT_TRUE(model.better(hi, 3, lo, 1));
  EXPECT_FALSE(model.better(lo, 1, hi, 3));
  // Tie on throughput: fewer comm seconds wins.
  ThroughputBreakdown a = hi, b = hi;
  a.total_comm_time = 0.1;
  b.total_comm_time = 0.2;
  EXPECT_TRUE(model.better(a, 3, b, 1));
  // Tie on both: fewer nodes wins.
  b.total_comm_time = 0.1;
  EXPECT_TRUE(model.better(a, 1, b, 2));
  EXPECT_FALSE(model.better(a, 2, b, 2));
}

// ------------------------------------------------------- migration cost

TEST(MigrationCost, ZeroWhenUnchanged) {
  ModelFixture f;
  const Mapping m(std::vector<NodeId>{0, 1, 2});
  EXPECT_DOUBLE_EQ(migration_cost(f.p, f.est, m, m, 0.5), 0.0);
}

TEST(MigrationCost, ChargesSlowestMovedStage) {
  Grid g = grid::uniform_cluster(3, 1.0, 0.0, 1e6);  // 1 MB/s, no latency
  PipelineProfile p = PipelineProfile::uniform(3, 0.1, 1.0, /*state=*/2e6);
  const auto est = ResourceEstimate::from_grid(g, 0.0);
  const Mapping from(std::vector<NodeId>{0, 1, 2});
  Mapping to = from;
  to.reassign(1, 2);  // move 2 MB across a 1 MB/s link → 2 s
  EXPECT_NEAR(migration_cost(p, est, from, to, 0.5), 2.5, 1e-6);
}

TEST(MigrationCost, ParallelStageMigrationsTakeMax) {
  Grid g = grid::uniform_cluster(4, 1.0, 0.0, 1e6);
  PipelineProfile p = PipelineProfile::uniform(3, 0.1, 1.0, 1e6);
  p.state_bytes = {1e6, 3e6, 1e6};
  const auto est = ResourceEstimate::from_grid(g, 0.0);
  const Mapping from(std::vector<NodeId>{0, 1, 2});
  const Mapping to(std::vector<NodeId>{1, 2, 3});  // all three move
  // Slowest stage state is 3 MB → 3 s, plus 0.5 restart.
  EXPECT_NEAR(migration_cost(p, est, from, to, 0.5), 3.5, 1e-6);
}

}  // namespace
}  // namespace gridpipe::sched
