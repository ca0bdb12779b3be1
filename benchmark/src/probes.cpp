#include "probes.hpp"

#include <stdexcept>

#include "comm/wire.hpp"
#include "control/adaptation_controller.hpp"
#include "monitor/registry.hpp"
#include "obs/flight.hpp"
#include "proc/shm_ring.hpp"
#include "proc/transport.hpp"
#include "sched/perf_model.hpp"

namespace gridpipe::benchmark {

namespace {

namespace wire = comm::wire;

/// Keeps probe results observable so the timed work is not elided.
volatile std::uint64_t g_sink = 0;

struct ProbeSizes {
  std::size_t batches;    ///< batched probes: samples of kBatch calls
  std::size_t calls;      ///< single-call probes: timed calls
  double budget_s;        ///< single-call probes stop early after this
};

constexpr std::size_t kBatch = 64;
constexpr std::size_t kWarmup = 100;

/// Median per-call nanoseconds of `fn`, timed in batches of kBatch calls
/// (a single call is too short for the clock) after a warm-up.
template <class Fn>
double batched_ns(const ProbeSizes& sizes, Fn&& fn) {
  for (std::size_t i = 0; i < kWarmup; ++i) fn();
  std::vector<double> per_call;
  per_call.reserve(sizes.batches);
  for (std::size_t s = 0; s < sizes.batches; ++s) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kBatch; ++i) fn();
    per_call.push_back(seconds_between(t0, Clock::now()) * 1e9 /
                       static_cast<double>(kBatch));
  }
  return median(std::move(per_call));
}

/// Median seconds of one `fn` call: `sizes.calls` calls, or fewer (at
/// least 20) once `sizes.budget_s` is spent.
template <class Fn>
double single_call_s(const ProbeSizes& sizes, Fn&& fn) {
  for (std::size_t i = 0; i < 10; ++i) fn();
  std::vector<double> samples;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < sizes.calls; ++i) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    samples.push_back(seconds_between(t0, t1));
    if (samples.size() >= 20 && seconds_between(start, t1) > sizes.budget_s) {
      break;
    }
  }
  return median(std::move(samples));
}

/// One task frame as the serialized runtimes put it on the wire:
/// [frame header][task header][item encoded with the first stage's codec].
wire::Bytes task_frame(const core::ItemCodec& codec, const std::any& item) {
  wire::Bytes frame;
  const std::size_t off = wire::begin_frame(frame, wire::FrameKind::kTask, 1);
  wire::encode_task_header_into(frame, 7, 0);
  codec.encode_into(item, frame);
  wire::end_frame(frame, off);
  return frame;
}

}  // namespace

std::vector<Measured> run_probes(const Workload& w, const Inputs& inputs,
                                 bool quick) {
  const ProbeSizes sizes = quick ? ProbeSizes{50, 50, 0.1}
                                 : ProbeSizes{1000, 1000, 1.0};
  std::vector<Measured> out;
  const core::ItemCodec& in_codec = w.spec.stages().front().in_codec;
  const core::ItemCodec& out_codec = w.spec.stages().back().out_codec;
  const std::any item = inputs.make(7);
  const wire::Bytes frame = task_frame(in_codec, item);

  {
    const sched::PerfModel model(w.options.adapt.model);
    const sched::PipelineProfile profile = w.spec.to_profile();
    const auto est = sched::ResourceEstimate::from_grid(w.grid, 0.0);
    out.push_back({"sched.choose_mapping_ms",
                   single_call_s(sizes,
                                 [&] {
                                   const auto r = control::choose_mapping(
                                       model, profile, est,
                                       control::MapperKind::kAuto, false, 0);
                                   g_sink = g_sink + r.candidates_evaluated;
                                 }) *
                       1e3,
                   "ms"});
  }
  {
    monitor::MonitoringRegistry registry;
    double t = 0.0;
    out.push_back({"monitor.record_ns", batched_ns(sizes, [&] {
                     t += 1.0;
                     registry.record({monitor::SensorKind::kNodeSpeed, 0, 0}, t,
                                     1.0 + 0.01 * static_cast<double>(
                                                      static_cast<int>(t) % 7));
                   }),
                   "ns"});
  }
  {
    wire::BufferPool pool;
    out.push_back({"comm.encode_ns", batched_ns(sizes, [&] {
                     wire::Bytes buf = pool.acquire();
                     const std::size_t off =
                         wire::begin_frame(buf, wire::FrameKind::kTask, 1);
                     wire::encode_task_header_into(buf, 7, 0);
                     in_codec.encode_into(item, buf);
                     wire::end_frame(buf, off);
                     g_sink = g_sink + buf.size();
                     pool.release(std::move(buf));
                   }),
                   "ns"});
  }
  {
    wire::FrameReader reader;
    out.push_back({"comm.decode_ns", batched_ns(sizes, [&] {
                     reader.feed(frame.data(), frame.size());
                     const auto view = reader.next_view();
                     if (!view) {
                       throw std::runtime_error("decode probe: no frame");
                     }
                     const wire::TaskView task = wire::decode_task(view->payload);
                     const std::any decoded = out_codec.decode(task.payload);
                     g_sink = g_sink + task.item + decoded.has_value();
                   }),
                   "ns"});
  }
  const std::size_t ring_bytes = rt::RuntimeOptions{}.shm_ring_bytes;
  {
    proc::ShmRingMesh mesh(1, ring_bytes);
    proc::ShmRing ring = mesh.ring(0, 0);
    wire::Bytes sink(frame.size());
    out.push_back({"proc.ring_push_pop_ns", batched_ns(sizes, [&] {
                     if (!ring.push(frame)) {
                       throw std::runtime_error("ring probe: push failed");
                     }
                     std::size_t got = 0;
                     while (got < sink.size()) {
                       got += ring.pop(sink.data() + got, sink.size() - got);
                     }
                     g_sink = g_sink + got;
                   }),
                   "ns"});
  }
  {
    proc::ShmRingMesh mesh(1, ring_bytes);
    proc::ShmRing ring = mesh.ring(0, 0);
    std::size_t fit = 0;
    while (ring.push(frame)) ++fit;
    out.push_back({"proc.ring_frames_fit", static_cast<double>(fit), "count"});
  }
  {
    auto [tx, rx] = proc::FrameSocket::make_pair();
    out.push_back({"proc.socket_rtt_us", single_call_s(sizes, [&] {
                     if (!tx.send_buffer(frame)) {
                       throw std::runtime_error("socket probe: peer gone");
                     }
                     const auto got = rx.recv_frame();
                     g_sink = g_sink + (got ? got->payload.size() : 0);
                   }) * 1e6,
                   "us"});
  }
  {
    obs::FlightRecorder recorder(1, obs::kDefaultFlightEvents);
    obs::FlightRing ring = recorder.ring(0);
    std::uint64_t i = 0;
    out.push_back({"obs.flight_record_ns", batched_ns(sizes, [&] {
                     ++i;
                     ring.record(obs::FlightKind::kTaskDone,
                                 static_cast<double>(i), 1, i, 0);
                   }),
                   "ns"});
  }
  return out;
}

}  // namespace gridpipe::benchmark
