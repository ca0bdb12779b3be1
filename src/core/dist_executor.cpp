#include "core/dist_executor.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "comm/wire.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace gridpipe::core {

namespace {

std::vector<grid::NodeId> rank_map(const grid::Grid& grid) {
  // Worker rank n lives on node n; the controller (last rank) sits on
  // node 0, standing in for the submission host.
  std::vector<grid::NodeId> map;
  for (grid::NodeId n = 0; n < grid.num_nodes(); ++n) map.push_back(n);
  map.push_back(0);
  return map;
}

}  // namespace

DistributedExecutor::DistributedExecutor(const grid::Grid& grid,
                                         std::vector<DistStage> stages,
                                         sched::Mapping initial_mapping,
                                         DistExecutorConfig config)
    : grid_(grid),
      stages_(std::move(stages)),
      initial_mapping_(std::move(initial_mapping)),
      config_(config),
      delays_(grid, rank_map(grid), config.time_scale),
      comm_(static_cast<int>(grid.num_nodes()) + 1, &delays_,
            [this] { return virtual_now(); }) {
  if (stages_.empty()) {
    throw std::invalid_argument("DistributedExecutor: no stages");
  }
  initial_mapping_.validate(grid_.num_nodes());
  if (initial_mapping_.num_stages() != stages_.size()) {
    throw std::invalid_argument("DistributedExecutor: mapping mismatch");
  }
  if (config_.time_scale <= 0.0) {
    throw std::invalid_argument("DistributedExecutor: time_scale <= 0");
  }
  if (config_.window == 0) {
    config_.window = std::max<std::size_t>(4, 2 * stages_.size());
  }
  if (config_.drain_batch == 0) config_.drain_batch = 1;
  start_ = std::chrono::steady_clock::now();
  profile_ = profile();
  obs_metrics_.bind(config_.obs.metrics);
  controller_ = make_controller();
  try {
    flight_ = obs::FlightRecorder(grid_.num_nodes() + 1,
                                  config_.flight_events);
  } catch (const std::runtime_error&) {
    // mmap failure: run without the forensic ring (every handle inert).
  }
  ctl_flight_ = flight_.ring(0);
}

DistributedExecutor::~DistributedExecutor() {
  if (stream_active_) {
    try {
      stream_close();
      stream_finish();
    } catch (...) {
      // Destructor best-effort teardown.
    }
  }
}

std::unique_ptr<control::AdaptationController>
DistributedExecutor::make_controller() {
  return std::make_unique<control::AdaptationController>(
      grid_, profile_, config_.adapt,
      static_cast<control::AdaptationHost&>(*this),
      control::AdaptationController::Mode::kPolicy, config_.obs);
}

BytesStageFn bytes_stage_fn(std::function<Bytes(Bytes)> fn) {
  return [fn = std::move(fn)](ByteSpan in, Bytes& out) {
    const Bytes result = fn(Bytes(in.begin(), in.end()));
    const std::size_t off = out.size();
    out.resize(off + result.size());
    if (!result.empty()) {
      std::memcpy(out.data() + off, result.data(), result.size());
    }
  };
}

sched::PipelineProfile profile_from_stages(
    const std::vector<DistStage>& stages) {
  sched::PipelineProfile p;
  p.msg_bytes.push_back(stages.front().out_bytes);  // input ≈ first msg
  for (const DistStage& s : stages) {
    p.stage_work.push_back(s.work);
    p.msg_bytes.push_back(s.out_bytes);
    p.state_bytes.push_back(s.state_bytes);
  }
  return p;
}

sched::PipelineProfile DistributedExecutor::profile() const {
  return profile_from_stages(stages_);
}

double DistributedExecutor::virtual_now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
             .count() /
         config_.time_scale;
}

Bytes DistributedExecutor::encode_task(std::uint64_t item,
                                       std::uint32_t stage,
                                       const Bytes& payload) {
  return comm::wire::encode_task(item, stage, payload);
}

void DistributedExecutor::decode_task(const Bytes& wire, std::uint64_t& item,
                                      std::uint32_t& stage, Bytes& payload) {
  comm::wire::decode_task(wire, item, stage, payload);
}

Bytes DistributedExecutor::encode_mapping(const sched::Mapping& mapping) {
  return comm::wire::encode_mapping(mapping);
}

sched::Mapping DistributedExecutor::decode_mapping(const Bytes& wire) {
  return comm::wire::decode_mapping(wire);
}

void DistributedExecutor::worker_loop(int rank) {
  try {
    worker_loop_impl(rank);
  } catch (...) {
    // A throwing stage function (or a malformed payload) ends the
    // stream: capture the first error and wake the controller, which
    // shuts the fleet down; stream_finish() rethrows it to the caller.
    bool wake = false;
    {
      util::MutexLock lock(stream_mutex_);
      if (!stream_error_) stream_error_ = std::current_exception();
      wake = claim_wake_locked();
    }
    if (wake) send_wake();
  }
}

bool DistributedExecutor::claim_wake_locked() {
  return std::exchange(parked_, false);
}

void DistributedExecutor::send_wake() {
  comm_.send(controller_rank(), controller_rank(), kWake, {});
}

void DistributedExecutor::worker_loop_impl(int rank) {
  RoutingTable routing{initial_mapping_,
                       sched::ReplicaRouter(stages_.size())};
  const auto node = static_cast<grid::NodeId>(rank);
  // Single writer for this lane: this thread is rank `rank`'s only one.
  obs::FlightRing flight = flight_.ring(1 + static_cast<std::size_t>(rank));

  // Worker-side telemetry is buffered locally and shipped to the
  // controller rank as kTelemetry messages after each drained batch —
  // the sinks themselves live on the controller side, so one trace file
  // covers every rank on the shared virtual clock.
  const bool telemetry = config_.obs.any();
  obs::TelemetryBatch spans;
  std::uint64_t executed = 0;
  const auto flush_telemetry = [&] {
    if (!telemetry) return;
    if (executed) spans.counters.push_back({"stage_executions", executed});
    executed = 0;
    if (spans.empty()) return;
    comm_.send(rank, controller_rank(), kTelemetry,
               obs::encode_telemetry(spans));
    spans = obs::TelemetryBatch{};
  };

  for (;;) {
    // Drain the rank's queue in batches: one lock acquisition per train of
    // delivered messages instead of one per message.
    auto batch = comm_.recv_n(rank, config_.drain_batch);
    if (batch.empty()) {
      flush_telemetry();
      return;  // queue closed and drained
    }

    // Control messages jump the task queue: apply the newest kRemap in
    // the batch before executing anything (routing is eventually
    // consistent, so applying it a few tasks early is strictly fresher),
    // and honor a kShutdown immediately — the controller only sends it
    // once every result is in, so no task in this batch still matters.
    const comm::Message* last_remap = nullptr;
    bool shutdown = false;
    for (const comm::Message& message : batch) {
      if (message.tag == kShutdown) shutdown = true;
      if (message.tag == kRemap) last_remap = &message;
    }
    if (shutdown) {
      flush_telemetry();
      return;
    }
    // Each remap fully overwrites the previous one, so only the newest in
    // the batch needs decoding.
    if (last_remap) {
      routing.mapping = decode_mapping(last_remap->payload);
      routing.router.reset(stages_.size());
    }

    for (comm::Message& message : batch) {
      if (message.tag != kTask) continue;  // handled or unknown above

      const comm::wire::TaskView task =
          comm::wire::decode_task(comm::wire::ByteSpan(message.payload));
      const std::uint64_t item = task.item;
      const std::uint32_t stage = task.stage;

      const auto t0 = std::chrono::steady_clock::now();
      const double v0 = virtual_now();
      flight.record(obs::FlightKind::kTaskStart, v0, stage, item);
      // Compose the next hop in one pooled buffer: the task header goes
      // first, then the stage function appends its output right after —
      // no fresh vector anywhere on the path.
      Bytes out = pool_.acquire();
      comm::wire::encode_task_header_into(out, item, stage + 1);
      stages_[stage].fn(task.payload, out);
      if (config_.emulate_compute) {
        const double service =
            stages_[stage].work / grid_.effective_speed(node, v0);
        std::this_thread::sleep_until(
            t0 +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(service * config_.time_scale)));
      }
      const double duration =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count() /
          config_.time_scale;
      flight.record(obs::FlightKind::kTaskDone, v0 + duration, stage, item,
                    std::bit_cast<std::uint64_t>(duration));

      // Report the observed speed to the controller's monitor.
      if (duration > 0.0) {
        Bytes obs = pool_.acquire();
        comm::wire::encode_f64_into(obs, stages_[stage].work / duration);
        comm_.send(rank, controller_rank(), kSpeedObs, std::move(obs));
      }

      if (telemetry) {
        ++executed;
        obs::TraceEvent span;
        span.name = stages_[stage].name;
        span.kind = obs::SpanKind::kStage;
        span.start = v0;
        span.duration = duration;
        span.tid = static_cast<std::uint32_t>(1 + node);
        span.item = item;
        span.stage = stage;
        spans.events.push_back(std::move(span));
      }

      if (stage + 1 == stages_.size()) {
        comm_.send(rank, controller_rank(), kResult, std::move(out));
      } else {
        const grid::NodeId dst = routing.pick(stage + 1);
        if (telemetry) {
          const double v_send = virtual_now();
          obs::TraceEvent hop;
          hop.name = "hop";
          hop.kind = obs::SpanKind::kWire;
          hop.start = v_send;
          hop.duration = grid_.transfer_time(node, dst,
                                             stages_[stage].out_bytes, v_send);
          hop.tid = static_cast<std::uint32_t>(1 + dst);
          hop.item = item;
          hop.stage = stage + 1;
          spans.events.push_back(std::move(hop));
        }
        comm_.send(rank, static_cast<int>(dst), kTask, std::move(out));
      }
      // The input payload is fully consumed (the view died with the fn
      // call); recycle its buffer.
      pool_.release(std::move(message.payload));
    }
    flush_telemetry();
  }
}

sched::Mapping DistributedExecutor::deployed_mapping() const {
  return controller_mapping_;
}

void DistributedExecutor::record_probes(double) {
  // Observations arrive as kSpeedObs messages; nothing to probe here.
}

void DistributedExecutor::apply_remap(const sched::Mapping& to,
                                      double pause_virtual) {
  ctl_flight_.record(obs::FlightKind::kRemap, virtual_now());
  metrics_.on_remap(virtual_now(), pause_virtual,
                    controller_mapping_.to_string(), to.to_string());
  controller_mapping_ = to;
  controller_router_.reset(stages_.size());
  {
    util::MutexLock lock(stream_mutex_);
    status_mapping_ = controller_mapping_.to_string();
  }
  const Bytes wire = encode_mapping(controller_mapping_);
  for (int rank = 0; rank < controller_rank(); ++rank) {
    comm_.send(controller_rank(), rank, kRemap, wire);
  }
}

void DistributedExecutor::controller_loop() {
  const int me = controller_rank();
  // Pushed-but-not-admitted items, in input order (local to the
  // controller thread; stream_push only touches incoming_).
  std::deque<std::pair<std::uint64_t, Bytes>> pending;
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;

  auto admit = [&](std::uint64_t index, Bytes payload) {
    const grid::NodeId dst = controller_router_.pick(controller_mapping_, 0);
    Bytes wire = pool_.acquire();
    comm::wire::encode_task_into(wire, index, 0, payload);
    comm_.send(me, static_cast<int>(dst), kTask, std::move(wire));
    pool_.release(std::move(payload));
    const double vnow = virtual_now();
    admit_time_[index] = vnow;
    ctl_flight_.record(obs::FlightKind::kAdmit, vnow, 0, index);
    obs::record_span(config_.obs.tracer, obs::SpanKind::kAdmit, "admit", vnow,
                     0.0, 0, index);
    ++admitted;
    if (admitted - completed >= config_.window) {
      // The credit window just filled: the next push will queue.
      ctl_flight_.record(obs::FlightKind::kCredit, vnow, 0,
                         admitted - completed, config_.window);
    }
  };

  const double epoch = config_.adapt.epoch;
  double next_epoch = epoch;

  auto handle = [&](comm::Message& message) {
    if (message.tag == kResult) {
      const comm::wire::TaskView task =
          comm::wire::decode_task(comm::wire::ByteSpan(message.payload));
      const std::uint64_t item = task.item;
      double created_at = 0.0;
      if (auto it = admit_time_.find(item); it != admit_time_.end()) {
        created_at = it->second;
        admit_time_.erase(it);
      }
      const double vnow = virtual_now();
      metrics_.on_item_completed(item, vnow, created_at);
      obs::record_span(config_.obs.tracer, obs::SpanKind::kItem, "item",
                       created_at, vnow - created_at, 0, item);
      if (obs_metrics_.items_completed) {
        obs_metrics_.items_completed->add(1);
        obs_metrics_.item_latency->record(vnow - created_at);
      }
      ++completed;
      ctl_flight_.record(obs::FlightKind::kComplete, vnow, 0, item);
      // The output crosses the API boundary, so it must own its bytes:
      // one copy out of the wire buffer, then the buffer recycles.
      Bytes payload(task.payload.begin(), task.payload.end());
      {
        util::MutexLock lock(stream_mutex_);
        out_buffer_.emplace(item, std::move(payload));
        if (config_.obs.tracer) completed_at_.emplace(item, vnow);
        ++completed_count_;
      }
      pool_.release(std::move(message.payload));
    } else if (message.tag == kSpeedObs) {
      controller_->record_observation(
          {monitor::SensorKind::kNodeSpeed,
           static_cast<std::uint32_t>(message.source), 0},
          comm::wire::decode_f64(comm::wire::ByteSpan(message.payload)));
      pool_.release(std::move(message.payload));
    } else if (message.tag == kTelemetry) {
      obs::apply_telemetry(obs::decode_telemetry(message.payload),
                           config_.obs);
      pool_.release(std::move(message.payload));
    }
    // kWake carries nothing: receiving it was the whole point.
  };

  for (;;) {
    // Take ownership of freshly pushed items, then admit under the
    // credit window.
    bool done = false;
    {
      util::MutexLock lock(stream_mutex_);
      parked_ = false;
      while (!incoming_.empty()) {
        pending.push_back(std::move(incoming_.front()));
        incoming_.pop_front();
      }
      done = (closed_ && completed == pushed_) || stream_error_ != nullptr;
      status_admitted_ = admitted;
    }
    while (!pending.empty() && admitted - completed < config_.window) {
      auto entry = std::move(pending.front());
      pending.pop_front();
      admit(entry.first, std::move(entry.second));
    }
    if (done) break;

    // Park until the next adaptation point (1 ms floor), or with no
    // timeout when adaptation is off. The window state is taken here,
    // after admission, so a push only wakes the loop when it could
    // actually be admitted; anything that raced in since the top of the
    // loop turns the park into a non-blocking receive instead.
    bool ready = false;
    {
      util::MutexLock lock(stream_mutex_);
      const bool room = admitted - completed < config_.window;
      ready = (room && !incoming_.empty()) ||
              (closed_ && completed == pushed_) || stream_error_ != nullptr;
      if (!ready) {
        parked_ = true;
        window_open_ = room;
      }
    }
    std::optional<comm::Message> message;
    if (ready) {
      message = comm_.try_recv(me);
    } else if (epoch > 0.0) {
      const double wait_real = std::max(
          (next_epoch - virtual_now()) * config_.time_scale, 1e-3);
      message = comm_.recv_for(me, std::chrono::duration<double>(wait_real));
    } else {
      message = comm_.recv(me);
    }
    if (message) {
      handle(*message);
      // Results tend to arrive in bursts; drain whatever else is already
      // delivered under a single lock acquisition.
      for (comm::Message& m : comm_.try_recv_n(me, config_.drain_batch)) {
        handle(m);
      }
    }
    if (epoch > 0.0 && virtual_now() >= next_epoch) {
      const control::EpochRecord record = controller_->run_epoch();
      ctl_flight_.record(
          obs::FlightKind::kEpoch, record.time,
          (record.decided ? 1u : 0u) | (record.remapped ? 2u : 0u));
      next_epoch += epoch;
    }
  }

  ctl_flight_.record(obs::FlightKind::kClose, virtual_now());
  for (int rank = 0; rank < me; ++rank) {
    comm_.send(me, rank, kShutdown, {});
  }
}

void DistributedExecutor::stream_begin() {
  if (stream_active_) {
    throw std::logic_error("DistributedExecutor: a stream is already active");
  }
  // Fresh controller per stream: the virtual clock restarts at 0, so gate
  // snapshots, hysteresis streaks and registry timestamps from a
  // previous stream would all be stale.
  controller_ = make_controller();

  {
    util::MutexLock lock(stream_mutex_);
    incoming_.clear();
    out_buffer_.clear();
    completed_at_.clear();
    next_out_ = 0;
    pushed_ = 0;
    completed_count_ = 0;
    closed_ = false;
    stream_error_ = nullptr;
    parked_ = false;
    window_open_ = false;
    status_mapping_ = initial_mapping_.to_string();
    status_admitted_ = 0;
  }
  admit_time_.clear();
  controller_mapping_ = initial_mapping_;
  controller_router_.reset(stages_.size());
  metrics_ = sim::SimMetrics{};  // time series restart with the clock
  start_ = std::chrono::steady_clock::now();
  initial_mapping_str_ = initial_mapping_.to_string();
  stream_active_ = true;

  for (int rank = 0; rank < controller_rank(); ++rank) {
    worker_threads_.emplace_back([this, rank] { worker_loop(rank); });
  }
  controller_thread_ = std::thread([this] { controller_loop(); });
}

void DistributedExecutor::stream_push(Bytes item) {
  bool wake = false;
  {
    util::MutexLock lock(stream_mutex_);
    if (!stream_active_ || closed_) {
      throw std::logic_error("DistributedExecutor: push on a closed stream");
    }
    incoming_.emplace_back(pushed_++, std::move(item));
    if (obs_metrics_.items_pushed) obs_metrics_.items_pushed->add(1);
    wake = window_open_ && claim_wake_locked();
  }
  if (wake) send_wake();
}

std::optional<Bytes> DistributedExecutor::stream_try_pop() {
  util::MutexLock lock(stream_mutex_);
  auto it = out_buffer_.find(next_out_);
  if (it == out_buffer_.end()) return std::nullopt;
  Bytes out = std::move(it->second);
  out_buffer_.erase(it);
  if (config_.obs.tracer) {
    if (auto done = completed_at_.find(next_out_);
        done != completed_at_.end()) {
      obs::record_span(config_.obs.tracer, obs::SpanKind::kWait, "wait",
                       done->second, virtual_now() - done->second, 0,
                       next_out_);
      completed_at_.erase(done);
    }
  }
  ++next_out_;
  return out;
}

void DistributedExecutor::stream_close() {
  bool wake = false;
  {
    util::MutexLock lock(stream_mutex_);
    closed_ = true;
    wake = claim_wake_locked();
  }
  if (wake) send_wake();
}

RunReport DistributedExecutor::stream_finish() {
  if (!stream_active_) {
    throw std::logic_error("DistributedExecutor: no active stream to finish");
  }
  {
    util::MutexLock lock(stream_mutex_);
    if (!closed_) {
      throw std::logic_error(
          "DistributedExecutor: stream_close() before stream_finish()");
    }
  }
  controller_thread_.join();
  for (auto& t : worker_threads_) t.join();
  worker_threads_.clear();
  if (config_.obs.any()) {
    // Workers flush their final telemetry on kShutdown, after the
    // controller loop has stopped receiving; collect the stragglers now
    // that every rank is joined so the trace covers the whole stream.
    for (comm::Message& m :
         comm_.try_recv_n(controller_rank(), std::size_t(-1))) {
      if (m.tag == kTelemetry) {
        obs::apply_telemetry(obs::decode_telemetry(m.payload), config_.obs);
      }
    }
  }
  stream_active_ = false;
  {
    util::MutexLock lock(stream_mutex_);
    if (stream_error_) std::rethrow_exception(stream_error_);
  }

  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  std::uint64_t items = 0;
  {
    util::MutexLock lock(stream_mutex_);
    items = completed_count_;
  }
  RunReport report;
  // The controller thread is joined; move the O(items) metric series.
  finalize_stream_report(report, items, wall, config_.time_scale,
                         std::move(metrics_), controller_->take_epochs(),
                         std::move(initial_mapping_str_),
                         controller_mapping_.to_string());
  return report;
}

util::Json DistributedExecutor::status() const {
  util::Json doc = util::Json::object();
  doc["substrate"] = "dist";
  doc["virtual_time"] = virtual_now();
  doc["window"] = static_cast<std::uint64_t>(config_.window);
  util::MutexLock lock(stream_mutex_);
  doc["mapping"] = status_mapping_;
  doc["pushed"] = pushed_;
  doc["admitted"] = status_admitted_;
  doc["completed"] = completed_count_;
  doc["in_flight"] =
      status_admitted_ - std::min(completed_count_, status_admitted_);
  doc["buffered_out"] = static_cast<std::uint64_t>(out_buffer_.size());
  doc["next_out"] = next_out_;
  doc["closed"] = closed_;
  return doc;
}

RunReport DistributedExecutor::run(std::vector<Bytes> inputs) {
  return run_stream_batch(*this, std::move(inputs));
}

}  // namespace gridpipe::core
