// Tests for the message-passing DistributedExecutor: wire formats,
// end-to-end correctness over the communicator, heterogeneity emulation,
// controller-driven adaptation and the controller's wake-up on a stage
// failure.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <thread>

#include "core/dist_executor.hpp"
#include "grid/builders.hpp"

namespace gridpipe::core {
namespace {

using grid::NodeId;

Bytes bytes_of_int(int v) {
  Bytes out(sizeof(int));
  std::memcpy(out.data(), &v, sizeof(int));
  return out;
}
int int_of_bytes(ByteSpan b) {
  int v = 0;
  std::memcpy(&v, b.data(), sizeof(int));
  return v;
}
void append_int(Bytes& out, int v) {
  const std::size_t off = out.size();
  out.resize(off + sizeof(int));
  std::memcpy(out.data() + off, &v, sizeof(int));
}

std::vector<DistStage> arithmetic_stages() {
  std::vector<DistStage> stages;
  stages.push_back({"inc",
                    [](ByteSpan in, Bytes& out) {
                      append_int(out, int_of_bytes(in) + 1);
                    },
                    0.02, 16});
  stages.push_back({"triple",
                    [](ByteSpan in, Bytes& out) {
                      append_int(out, int_of_bytes(in) * 3);
                    },
                    0.02, 16});
  stages.push_back({"dec",
                    [](ByteSpan in, Bytes& out) {
                      append_int(out, int_of_bytes(in) - 1);
                    },
                    0.02, 16});
  return stages;
}

// ------------------------------------------------------------ encoding

TEST(DistWire, TaskRoundTrip) {
  const Bytes payload = bytes_of_int(1234);
  const Bytes wire = DistributedExecutor::encode_task(77, 2, payload);
  std::uint64_t item;
  std::uint32_t stage;
  Bytes out;
  DistributedExecutor::decode_task(wire, item, stage, out);
  EXPECT_EQ(item, 77u);
  EXPECT_EQ(stage, 2u);
  EXPECT_EQ(out, payload);
}

TEST(DistWire, ShortTaskThrows) {
  std::uint64_t item;
  std::uint32_t stage;
  Bytes out;
  EXPECT_THROW(
      DistributedExecutor::decode_task(Bytes(4), item, stage, out),
      std::invalid_argument);
}

TEST(DistWire, MappingRoundTrip) {
  sched::Mapping mapping(std::vector<NodeId>{2, 0, 1});
  mapping.add_replica(1, 2);
  const Bytes wire = DistributedExecutor::encode_mapping(mapping);
  EXPECT_EQ(DistributedExecutor::decode_mapping(wire), mapping);
}

// ---------------------------------------------------------- end to end

DistExecutorConfig fast_dist_config() {
  DistExecutorConfig config;
  config.time_scale = 0.002;
  return config;
}

TEST(DistributedExecutor, OrderedCorrectOutputs) {
  const auto g = grid::uniform_cluster(3, 1.0, 1e-3, 1e8);
  DistributedExecutor executor(g, arithmetic_stages(),
                               sched::Mapping(std::vector<NodeId>{0, 1, 2}),
                               fast_dist_config());
  std::vector<Bytes> inputs;
  for (int i = 0; i < 60; ++i) inputs.push_back(bytes_of_int(i));
  const auto report = executor.run(std::move(inputs));
  ASSERT_EQ(report.items, 60u);
  for (int i = 0; i < 60; ++i) {
    const auto& out =
        std::any_cast<const Bytes&>(report.outputs[static_cast<std::size_t>(i)]);
    EXPECT_EQ(int_of_bytes(out), (i + 1) * 3 - 1) << "item " << i;
  }
  EXPECT_EQ(report.remap_count, 0u);
  EXPECT_GT(report.throughput, 0.0);
}

TEST(DistributedExecutor, EmptyInput) {
  const auto g = grid::uniform_cluster(2, 1.0, 1e-3, 1e8);
  DistributedExecutor executor(g, arithmetic_stages(),
                               sched::Mapping(std::vector<NodeId>{0, 1, 0}),
                               fast_dist_config());
  EXPECT_EQ(executor.run({}).items, 0u);
}

TEST(DistributedExecutor, ColocatedMappingWorks) {
  const auto g = grid::uniform_cluster(2, 1.0, 1e-3, 1e8);
  DistributedExecutor executor(g, arithmetic_stages(),
                               sched::Mapping::all_on(3, 1),
                               fast_dist_config());
  std::vector<Bytes> inputs;
  for (int i = 0; i < 20; ++i) inputs.push_back(bytes_of_int(i));
  const auto report = executor.run(std::move(inputs));
  EXPECT_EQ(report.items, 20u);
  EXPECT_EQ(report.final_mapping, "(2,2,2)");
}

TEST(DistributedExecutor, HeterogeneityChangesThroughput) {
  auto run_with = [&](double speed) {
    const auto g = grid::uniform_cluster(2, speed, 1e-3, 1e8);
    DistExecutorConfig config;
    config.time_scale = 0.01;
    DistributedExecutor executor(g, arithmetic_stages(),
                                 sched::Mapping(std::vector<NodeId>{0, 1, 0}),
                                 config);
    std::vector<Bytes> inputs;
    for (int i = 0; i < 30; ++i) inputs.push_back(bytes_of_int(i));
    return executor.run(std::move(inputs)).throughput;
  };
  // Ideal ratio is 4x; loose band tolerates fixed per-item overheads
  // compressing the fast run on loaded machines (~1x means broken).
  EXPECT_GT(run_with(4.0), 1.5 * run_with(1.0));
}

TEST(DistributedExecutor, AdaptsAwayFromLoadedNode) {
  auto g = grid::uniform_cluster(3, 1.0, 1e-3, 1e8);
  grid::set_node_load(g, 1, std::make_shared<grid::ConstantLoad>(9.0));

  DistExecutorConfig config;
  config.time_scale = 0.002;
  config.adapt.epoch = 4.0;
  config.adapt.policy.hysteresis_epochs = 1;
  config.adapt.policy.min_gain_ratio = 0.2;
  config.adapt.policy.restart_latency = 0.1;

  DistributedExecutor executor(g, arithmetic_stages(),
                               sched::Mapping(std::vector<NodeId>{0, 1, 2}),
                               config);
  std::vector<Bytes> inputs;
  for (int i = 0; i < 400; ++i) inputs.push_back(bytes_of_int(i));
  const auto report = executor.run(std::move(inputs));

  EXPECT_EQ(report.items, 400u);
  EXPECT_GE(report.remap_count, 1u);
  EXPECT_EQ(report.final_mapping.find('2'), std::string::npos)
      << "still on loaded node: " << report.final_mapping;
  // Spot-check results survived the live remap.
  for (int i : {0, 123, 399}) {
    const auto& out =
        std::any_cast<const Bytes&>(report.outputs[static_cast<std::size_t>(i)]);
    EXPECT_EQ(int_of_bytes(out), (i + 1) * 3 - 1);
  }
}

TEST(DistributedExecutor, OnChangeTriggerSkipsQuietEpochs) {
  // Same contract as the threaded runtime: on a stable grid the change
  // gate swallows the mapping search after the first decision.
  const auto g = grid::uniform_cluster(3, 1.0, 1e-3, 1e8);
  DistExecutorConfig config;
  config.time_scale = 0.01;
  config.adapt.epoch = 2.0;
  config.adapt.trigger = control::AdaptationTrigger::kOnChange;
  config.adapt.change_threshold = 0.75;
  config.adapt.max_staleness = 1e9;
  DistributedExecutor executor(g, arithmetic_stages(),
                               sched::Mapping(std::vector<NodeId>{0, 1, 2}),
                               config);
  std::vector<Bytes> inputs;
  for (int i = 0; i < 400; ++i) inputs.push_back(bytes_of_int(i));
  const auto report = executor.run(std::move(inputs));

  EXPECT_EQ(report.items, 400u);
  ASSERT_GE(report.epochs.size(), 2u);
  EXPECT_TRUE(report.epochs.front().decided);
  std::size_t decisions = 0;
  for (const auto& e : report.epochs) decisions += e.decided;
  EXPECT_LT(decisions, report.epochs.size());
  EXPECT_EQ(report.remap_count, 0u);
}

TEST(DistributedExecutor, OnChangeTriggerReactsToLoadStep) {
  auto g = grid::uniform_cluster(3, 1.0, 1e-3, 1e8);
  grid::set_node_load(g, 1, std::make_shared<grid::StepLoad>(
                                std::vector<grid::StepLoad::Step>{
                                    {4.0, 9.0}}));

  DistExecutorConfig config;
  config.time_scale = 0.01;
  config.adapt.epoch = 2.0;
  config.adapt.trigger = control::AdaptationTrigger::kOnChange;
  config.adapt.change_threshold = 0.4;
  config.adapt.max_staleness = 1e9;
  config.adapt.policy.hysteresis_epochs = 1;
  config.adapt.policy.min_gain_ratio = 0.2;
  config.adapt.policy.restart_latency = 0.1;
  DistributedExecutor executor(g, arithmetic_stages(),
                               sched::Mapping(std::vector<NodeId>{0, 1, 2}),
                               config);
  std::vector<Bytes> inputs;
  for (int i = 0; i < 400; ++i) inputs.push_back(bytes_of_int(i));
  const auto report = executor.run(std::move(inputs));

  EXPECT_EQ(report.items, 400u);
  EXPECT_GE(report.remap_count, 1u);
  EXPECT_EQ(report.final_mapping.find('2'), std::string::npos)
      << "still on loaded node: " << report.final_mapping;
  std::size_t remapped_epochs = 0;
  for (const auto& e : report.epochs) remapped_epochs += e.remapped;
  EXPECT_EQ(remapped_epochs, report.remap_count);
  // Results survived the mid-stream remap.
  for (int i : {0, 123, 399}) {
    const auto& out =
        std::any_cast<const Bytes&>(report.outputs[static_cast<std::size_t>(i)]);
    EXPECT_EQ(int_of_bytes(out), (i + 1) * 3 - 1);
  }
}

TEST(DistributedExecutor, StageFailureWakesParkedController) {
  // With adaptation off the controller parks with no timeout. Here the
  // stream is closed while item 3 is still inside a stage that is about
  // to throw, and nothing more is pushed: the worker's captured error is
  // the only event left that can end the stream, so a missing wake shows
  // up as a hang (reported by the watchdog) instead of an exception.
  const auto g = grid::uniform_cluster(2, 1.0, 1e-3, 1e8);
  auto stages = arithmetic_stages();
  stages[1].fn = [](ByteSpan in, Bytes& out) {
    if (int_of_bytes(in) == 4) {  // item 3 after the +1 stage
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      throw std::runtime_error("stage triple rejects item 3");
    }
    append_int(out, int_of_bytes(in) * 3);
  };
  DistributedExecutor executor(g, std::move(stages),
                               sched::Mapping(std::vector<NodeId>{0, 1, 0}),
                               fast_dist_config());
  auto finish = std::async(std::launch::async, [&executor] {
    executor.stream_begin();
    for (int i = 0; i < 6; ++i) executor.stream_push(bytes_of_int(i));
    executor.stream_close();
    try {
      executor.stream_finish();
    } catch (const std::runtime_error& error) {
      return std::string(error.what());
    }
    return std::string("stream_finish returned without the stage error");
  });
  if (finish.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    ADD_FAILURE()
        << "stream_finish hung: the stage error never woke the controller";
    // The hung future would block its destructor forever; end the run
    // so the failure is reported instead of a ctest timeout.
    std::fflush(stdout);
    std::_Exit(1);
  }
  EXPECT_EQ(finish.get(), "stage triple rejects item 3");
}

TEST(DistributedExecutor, RejectsBadConstruction) {
  const auto g = grid::uniform_cluster(2, 1.0, 1e-3, 1e8);
  EXPECT_THROW(DistributedExecutor(g, {}, sched::Mapping{}, {}),
               std::invalid_argument);
  EXPECT_THROW(DistributedExecutor(
                   g, arithmetic_stages(),
                   sched::Mapping(std::vector<NodeId>{0, 1}),  // 2 != 3
                   fast_dist_config()),
               std::invalid_argument);
  DistExecutorConfig bad;
  bad.time_scale = 0.0;
  EXPECT_THROW(DistributedExecutor(g, arithmetic_stages(),
                                   sched::Mapping::all_on(3, 0), bad),
               std::invalid_argument);
}

TEST(DistributedExecutor, ProfileMatchesStages) {
  const auto g = grid::uniform_cluster(2, 1.0, 1e-3, 1e8);
  DistributedExecutor executor(g, arithmetic_stages(),
                               sched::Mapping::all_on(3, 0),
                               fast_dist_config());
  const auto p = executor.profile();
  EXPECT_EQ(p.num_stages(), 3u);
  EXPECT_DOUBLE_EQ(p.stage_work[1], 0.02);
  EXPECT_NO_THROW(p.validate());
}

}  // namespace
}  // namespace gridpipe::core
