#include "proc/process_executor.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <system_error>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/eventfd.h>
#include <sys/wait.h>
#include <unistd.h>

#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "proc/child.hpp"
#include "util/logging.hpp"

namespace gridpipe::proc {

namespace {

using comm::wire::FrameKind;
using comm::wire::FrameView;

std::string describe_wait_status(int status) {
  if (WIFEXITED(status)) {
    return "exit code " + std::to_string(WEXITSTATUS(status));
  }
  if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    std::string out = "signal " + std::to_string(sig);
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 32)
    // sigdescr_np is the thread-safe strsignal (no shared static buffer).
    if (const char* name = ::sigdescr_np(sig)) {
      out += std::string(" (") + name + ")";
    }
#endif
    return out;
  }
  return "status " + std::to_string(status);
}

/// strerror without the shared-static-buffer thread hazard.
std::string describe_errno(int err) {
  return std::generic_category().message(err);
}

}  // namespace

ProcessExecutor::ProcessExecutor(const grid::Grid& grid,
                                 std::vector<core::DistStage> stages,
                                 sched::Mapping initial_mapping,
                                 ProcExecutorConfig config)
    : grid_(grid),
      stages_(std::move(stages)),
      initial_mapping_(std::move(initial_mapping)),
      config_(config) {
  if (stages_.empty()) {
    throw std::invalid_argument("ProcessExecutor: no stages");
  }
  initial_mapping_.validate(grid_.num_nodes());
  if (initial_mapping_.num_stages() != stages_.size()) {
    throw std::invalid_argument("ProcessExecutor: mapping mismatch");
  }
  if (config_.time_scale <= 0.0) {
    throw std::invalid_argument("ProcessExecutor: time_scale <= 0");
  }
  if (config_.window == 0) {
    config_.window = std::max<std::size_t>(4, 2 * stages_.size());
  }
  start_ = std::chrono::steady_clock::now();
  profile_ = profile();
  obs_metrics_.bind(config_.obs.metrics);
  // The forensic rings must exist before any fork (stream_begin), so the
  // children's lanes land in pages the parent keeps. mmap failure means
  // running without a flight recorder, never failing the run.
  try {
    flight_ = obs::FlightRecorder(grid_.num_nodes() + 1,
                                  config_.flight_events);
  } catch (const std::runtime_error&) {
    flight_ = obs::FlightRecorder{};
  }
  ctl_flight_ = flight_.ring(0);
  controller_ = make_controller();
}

ProcessExecutor::~ProcessExecutor() {
  if (stream_active_) {
    try {
      stream_close();
      stream_finish();
    } catch (...) {
      // Destructor best-effort teardown; kill_fleet below reaps anything
      // the failed finish left behind.
    }
  }
  kill_fleet();
}

std::unique_ptr<control::AdaptationController>
ProcessExecutor::make_controller() {
  return std::make_unique<control::AdaptationController>(
      grid_, profile_, config_.adapt,
      static_cast<control::AdaptationHost&>(*this),
      control::AdaptationController::Mode::kPolicy, config_.obs);
}

sched::PipelineProfile ProcessExecutor::profile() const {
  return core::profile_from_stages(stages_);
}

double ProcessExecutor::virtual_now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
             .count() /
         config_.time_scale;
}

sched::Mapping ProcessExecutor::deployed_mapping() const {
  return controller_mapping_;
}

void ProcessExecutor::record_probes(double) {
  // Observations arrive as kSpeedObs frames; nothing to probe here.
}

void ProcessExecutor::apply_remap(const sched::Mapping& to,
                                  double pause_virtual) {
  const double vnow = virtual_now();
  metrics_.on_remap(vnow, pause_virtual, controller_mapping_.to_string(),
                    to.to_string());
  ctl_flight_.record(obs::FlightKind::kRemap, vnow);
  {
    util::MutexLock lock(status_mutex_);
    status_mapping_ = to.to_string();
  }
  controller_mapping_ = to;
  controller_router_.reset(stages_.size());
  const Bytes wire = comm::wire::encode_mapping(controller_mapping_);
  for (std::size_t node = 0; node < workers_.size(); ++node) {
    if (!workers_[node].sock.valid()) continue;  // down; respawn re-syncs it
    workers_[node].sock.queue_frame(
        {FrameKind::kRemap, static_cast<std::uint32_t>(node), wire});
    if (!workers_[node].sock.flush_some()) on_worker_lost(node);
  }
}

void ProcessExecutor::spawn_worker(std::size_t node,
                                   std::uint32_t incarnation) {
  auto [parent_end, child_end] = FrameSocket::make_pair();
  const int pid = ::fork();
  if (pid < 0) {
    const int err = errno;
    throw std::runtime_error(std::string("ProcessExecutor: fork: ") +
                             describe_errno(err));
  }
  if (pid == 0) {
    // Child: drop every parent-side fd inherited from the fork (earlier
    // spawns' sockets plus our own pair's parent end), then run the
    // worker loop. The stages and the grid are address-space copies —
    // free via fork, never serialized; the ring mesh is MAP_SHARED, so
    // it is the same physical memory in every process. (Closing a
    // sibling's parent-side socket recycles its queued buffers into the
    // child's *copy* of the pool — harmless, and the pool's mutex is
    // only ever taken by the forking thread, so it cannot be
    // mid-operation here.)
    for (Worker& w : workers_) w.sock.close();
    parent_end.close();
    // The controller's wake eventfd is parent-only. (Read unlocked on
    // purpose: this is the fork's copy, and the calling thread is the
    // only one that ever writes the descriptor mid-stream.)
    if (wake_fd_ >= 0) ::close(wake_fd_);
    // Keep our own doorbell read end plus every write end; siblings'
    // read ends are theirs alone.
    for (std::size_t i = 0; i < bells_.size(); ++i) {
      if (i != node && bells_[i][0] >= 0) ::close(bells_[i][0]);
    }
    ChildContext ctx;
    ctx.node = node;
    ctx.grid = &grid_;
    ctx.stages = &stages_;
    // A respawned worker boots with the routing table as deployed *now*;
    // at initial spawn controller_mapping_ == initial_mapping_.
    ctx.initial_mapping = controller_mapping_;
    ctx.time_scale = config_.time_scale;
    ctx.emulate_compute = config_.emulate_compute;
    ctx.telemetry = config_.obs.any();
    ctx.start = start_;
    ctx.flight = flight_.ring(1 + node);
    ctx.health_interval = config_.health_interval;
    if (config_.recovery.faults.any()) ctx.faults = &config_.recovery.faults;
    ctx.incarnation = incarnation;
    if (rings_.valid()) {
      ctx.rings = &rings_;
      ctx.doorbell_rd = bells_[node][0];
      ctx.doorbell_wr = &bell_wr_;
    }
    run_child_loop(std::move(child_end), ctx);  // never returns
  }
  child_end.close();
  parent_end.set_nonblocking(true);
  parent_end.set_pool(&pool_);
  if (node < workers_.size()) {
    workers_[node].pid = pid;
    workers_[node].sock = std::move(parent_end);
  } else {
    workers_.push_back({pid, std::move(parent_end)});
  }
}

void ProcessExecutor::close_parent_bells() noexcept {
  for (auto& bell : bells_) {
    if (bell[0] >= 0) ::close(bell[0]);
    if (bell[1] >= 0) ::close(bell[1]);
  }
  bells_.clear();
  bell_wr_.clear();
}

void ProcessExecutor::spawn_fleet() {
  const std::size_t num_nodes = grid_.num_nodes();

  // Shared-memory fast path: map the ring mesh and create the doorbell
  // pipes *before* any fork, so every child inherits the same pages and
  // fds. Setup failure (mmap or pipe exhaustion) just disables the fast
  // path — the socket relay carries everything.
  if (config_.shm_ring) {
    try {
      rings_ = ShmRingMesh(num_nodes, config_.shm_ring_bytes);
    } catch (const std::runtime_error&) {
      rings_ = ShmRingMesh{};
    }
  }
  if (rings_.valid()) {
    bells_.assign(num_nodes, {-1, -1});
    bool ok = true;
    for (std::size_t i = 0; i < num_nodes && ok; ++i) {
      ok = ::pipe2(bells_[i].data(), O_NONBLOCK) == 0;
    }
    if (ok) {
      bell_wr_.reserve(num_nodes);
      for (auto& bell : bells_) bell_wr_.push_back(bell[1]);
    } else {
      close_parent_bells();
      rings_ = ShmRingMesh{};
    }
  }

  workers_.reserve(num_nodes);
  for (grid::NodeId node = 0; node < num_nodes; ++node) {
    try {
      spawn_worker(node, 0);
    } catch (...) {
      close_parent_bells();
      kill_fleet();
      throw;
    }
  }
  // Without recovery the doorbells belong entirely to the children now;
  // with it the parent keeps them so a respawned child can inherit its
  // read end and every sibling's write end (closed at stream teardown).
  if (!recovery_on()) close_parent_bells();

  {
    util::MutexLock lock(status_mutex_);
    worker_pids_.clear();
    for (const Worker& w : workers_) worker_pids_.push_back(w.pid);
    health_.reset(num_nodes, virtual_now());
  }
}

void ProcessExecutor::admit(grid::NodeId dst, std::uint64_t index,
                            Bytes payload) {
  const double vnow = virtual_now();
  // Journal before the bytes can leave: if the first hop dies with the
  // frame queued, the entry is what brings the item back.
  if (recovery_on()) {
    journal_.admit(index, payload, vnow);
    journal_live_.store(journal_.live(), std::memory_order_relaxed);
  }
  // Compose [frame header][task header][payload] into one pooled buffer.
  Bytes wire = pool_.acquire();
  const std::size_t off = comm::wire::begin_frame(
      wire, FrameKind::kTask, static_cast<std::uint32_t>(dst));
  comm::wire::encode_task_header_into(wire, index, 0);
  const std::size_t at = wire.size();
  wire.resize(at + payload.size());
  if (!payload.empty()) {
    std::memcpy(wire.data() + at, payload.data(), payload.size());
  }
  comm::wire::end_frame(wire, off);
  workers_[dst].sock.queue_buffer(std::move(wire));
  pool_.release(std::move(payload));
  admit_time_[index] = vnow;
  obs::record_span(config_.obs.tracer, obs::SpanKind::kAdmit, "admit", vnow,
                   0.0, 0, index);
  ++admitted_;
  ctl_flight_.record(obs::FlightKind::kAdmit, vnow, 0, index);
  const std::uint64_t in_flight = admitted_ - completed_;
  if (in_flight >= config_.window) {
    // The informative credit edge: the window just filled (back-pressure
    // starts here), not every in-flight delta.
    ctl_flight_.record(obs::FlightKind::kCredit, vnow, 0, in_flight,
                       config_.window);
  }
  if (!workers_[dst].sock.flush_some()) on_worker_lost(dst);
}

void ProcessExecutor::handle_frame(std::size_t source,
                                   const FrameView& frame) {
  ctl_flight_.record(obs::FlightKind::kFrameRecv, virtual_now(),
                     static_cast<std::uint32_t>(frame.kind),
                     frame.payload.size());
  {
    util::MutexLock lock(status_mutex_);
    health_.on_frame(source, virtual_now());
  }
  switch (frame.kind) {
    case FrameKind::kTask: {
      // Next-hop relay: the worker picked the destination, the parent
      // only moves the bytes (re-framed into a pooled buffer; the view
      // dies with the next socket read).
      std::size_t dst = frame.node;
      if (dst >= workers_.size()) {
        kill_fleet();
        throw std::runtime_error(
            "ProcessExecutor: relay to nonexistent node " +
            std::to_string(dst));
      }
      if (!workers_[dst].sock.valid()) {
        // The sender routed through a stale table into a down node.
        // Re-route to a live replica of the task's stage under the
        // current mapping; when every replica is down (recovery still
        // pending) drop the frame — the journal replays the item once
        // the node's fate is settled, so nothing is lost, and without
        // the drop a dead hop would wedge the relay path.
        const comm::wire::TaskView task =
            comm::wire::decode_task(frame.payload);
        std::optional<std::size_t> alt;
        if (task.stage < controller_mapping_.num_stages()) {
          for (const grid::NodeId r :
               controller_mapping_.replicas(task.stage)) {
            if (worker_up(r)) {
              alt = r;
              break;
            }
          }
        }
        if (!alt) break;
        dst = *alt;
      }
      Bytes relay = pool_.acquire();
      const std::size_t off = comm::wire::begin_frame(
          relay, frame.kind, static_cast<std::uint32_t>(dst));
      const std::size_t at = relay.size();
      relay.resize(at + frame.payload.size());
      if (!frame.payload.empty()) {
        std::memcpy(relay.data() + at, frame.payload.data(),
                    frame.payload.size());
      }
      comm::wire::end_frame(relay, off);
      workers_[dst].sock.queue_buffer(std::move(relay));
      if (!workers_[dst].sock.flush_some()) on_worker_lost(dst);
      break;
    }
    case FrameKind::kResult: {
      const comm::wire::TaskView task = comm::wire::decode_task(frame.payload);
      const std::uint64_t item = task.item;
      const double vnow = virtual_now();
      if (recovery_on()) {
        if (!journal_.retire(item)) {
          // Already delivered once: a replay raced the original past the
          // crash. Exactly-once delivery = drop the duplicate here.
          ctl_flight_.record(obs::FlightKind::kDedup, vnow, 0, item);
          dedups_.fetch_add(1, std::memory_order_relaxed);
          if (obs_metrics_.items_deduped) obs_metrics_.items_deduped->add(1);
          break;
        }
        journal_live_.store(journal_.live(), std::memory_order_relaxed);
        note_retired(item, vnow);
      }
      // The output crosses the API boundary, so it owns its bytes.
      Bytes payload(task.payload.begin(), task.payload.end());
      double created_at = 0.0;
      if (auto it = admit_time_.find(item); it != admit_time_.end()) {
        created_at = it->second;
        admit_time_.erase(it);
      }
      metrics_.on_item_completed(item, vnow, created_at);
      ctl_flight_.record(obs::FlightKind::kComplete, vnow, 0, item);
      obs::record_span(config_.obs.tracer, obs::SpanKind::kItem, "item",
                       created_at, vnow - created_at, 0, item);
      if (obs_metrics_.items_completed) {
        obs_metrics_.items_completed->add(1);
        obs_metrics_.item_latency->record(vnow - created_at);
      }
      ++completed_;
      {
        util::MutexLock lock(stream_mutex_);
        out_.insert(item, std::move(payload));
        if (config_.obs.tracer) completed_at_.emplace(item, vnow);
      }
      break;
    }
    case FrameKind::kSpeedObs:
      controller_->record_observation(
          {monitor::SensorKind::kNodeSpeed,
           static_cast<std::uint32_t>(source), 0},
          comm::wire::decode_f64(frame.payload));
      break;
    case FrameKind::kTelemetry:
      // Worker-batched spans land on the parent's sinks; the shared
      // steady_clock start means no time-base translation is needed.
      obs::apply_telemetry(obs::decode_telemetry(frame.payload), config_.obs);
      break;
    case FrameKind::kHealth: {
      const obs::HealthRecord record = obs::decode_health(frame.payload);
      if (obs_metrics_.heartbeats) obs_metrics_.heartbeats->add(1);
      util::MutexLock lock(status_mutex_);
      health_.on_health(record, virtual_now());
      break;
    }
    case FrameKind::kRemap:
    case FrameKind::kShutdown:
      break;  // worker-bound kinds; ignore if misdelivered
  }
}

int ProcessExecutor::poll_timeout_ms(double next_epoch) const {
  // Every candidate is a real deadline; with none pending the loop
  // sleeps until a worker socket or the wake eventfd fires.
  double wait_real = std::numeric_limits<double>::infinity();
  if (config_.adapt.epoch > 0.0) {
    wait_real = std::max((next_epoch - virtual_now()) * config_.time_scale,
                         1e-3);
  }
  if (config_.stall_after > 0.0) {
    // A stall is flagged at most a quarter-threshold late.
    wait_real = std::min(
        wait_real, std::max(config_.stall_after * 0.25 * config_.time_scale,
                            1e-3));
  }
  const auto now = std::chrono::steady_clock::now();
  for (const auto& at : respawn_at_) {
    if (!at) continue;
    wait_real = std::min(
        wait_real,
        std::max(std::chrono::duration<double>(*at - now).count(), 0.0));
  }
  if (std::isinf(wait_real)) return -1;
  return static_cast<int>(std::min(
      std::ceil(wait_real * 1e3),
      static_cast<double>(std::numeric_limits<int>::max())));
}

void ProcessExecutor::wake_locked() {
  if (!parked_) return;
  parked_ = false;
  const std::uint64_t one = 1;
  // Nonblocking, and the loop reads the counter empty after every poll,
  // so the write cannot fail for want of room.
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void ProcessExecutor::close_wake_fd() noexcept {
  util::MutexLock lock(stream_mutex_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  wake_fd_ = -1;
  parked_ = false;
}

void ProcessExecutor::event_loop() {
  const double epoch = config_.adapt.epoch;
  double next_epoch = epoch;

  // One slot per worker socket, plus the wake eventfd last.
  std::vector<pollfd> fds(workers_.size() + 1);
  pollfd& wake = fds.back();
  wake = {wake_fd_, POLLIN, 0};
  for (;;) {
    // Recovery housekeeping first: supervisor decisions for fresh
    // deaths, respawns whose backoff expired, requested arrivals. All
    // three may replan the mapping and re-admit journaled items.
    if (recovery_on()) {
      process_dead_nodes();
      process_respawns();
      process_arrivals();
    }
    // Take ownership of freshly pushed items, then admit under the
    // credit window; check end-of-stream under the same lock.
    bool done = false;
    {
      util::MutexLock lock(stream_mutex_);
      parked_ = false;
      while (!incoming_.empty()) {
        pending_.push_back(std::move(incoming_.front()));
        incoming_.pop_front();
      }
      done = closed_ && completed_ == pushed_;
    }
    while (!pending_.empty() && admitted_ - completed_ < config_.window) {
      // Pick the stage-0 destination before dequeueing: when recovery
      // has the picked replica down (respawn pending), hold the item in
      // pending_ instead of queueing bytes to a dead socket. Retry the
      // pick once per live replica so one down replica cannot stall a
      // replicated stage 0.
      grid::NodeId dst = controller_router_.pick(controller_mapping_, 0);
      if (!worker_up(dst)) {
        bool found = false;
        for (std::size_t i = 1; i < controller_mapping_.replica_count(0);
             ++i) {
          dst = controller_router_.pick(controller_mapping_, 0);
          if (worker_up(dst)) {
            found = true;
            break;
          }
        }
        if (!found) break;
      }
      auto entry = std::move(pending_.front());
      pending_.pop_front();
      admit(dst, entry.first, std::move(entry.second));
    }
    if (done) {
      ctl_flight_.record(obs::FlightKind::kClose, virtual_now());
      return;
    }

    // Park until the nearest deadline. The window state is taken here,
    // after admission, so a push only wakes the loop when it could
    // actually be admitted. Anything that raced in since the top of the
    // loop (a push with room, a close that drains the stream, an
    // arrival) turns the park into a non-blocking poll instead. So does
    // a death queued after this pass's supervisor step (a failed admit
    // or replay flush, a failed respawn fork): its socket is already
    // closed, so no fd in the poll set would ever report it.
    int timeout_ms = poll_timeout_ms(next_epoch);
    {
      util::MutexLock lock(stream_mutex_);
      const bool room = admitted_ - completed_ < config_.window;
      if (!dead_nodes_.empty() || (room && !incoming_.empty()) ||
          (closed_ && completed_ == pushed_) || !arrivals_.empty()) {
        timeout_ms = 0;
      } else {
        parked_ = true;
        window_open_ = room;
      }
    }
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      fds[i].fd = workers_[i].sock.fd();
      fds[i].events = POLLIN;
      if (workers_[i].sock.pending_out() > 0) fds[i].events |= POLLOUT;
      fds[i].revents = 0;
    }
    wake.revents = 0;
    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0 && errno != EINTR) {
      const int err = errno;  // kill_fleet's close/waitpid clobber errno
      kill_fleet();
      throw std::runtime_error(std::string("ProcessExecutor: poll: ") +
                               describe_errno(err));
    }
    if (ready > 0 && (wake.revents & POLLIN) != 0) {
      std::uint64_t wakes = 0;  // one read empties the counter
      [[maybe_unused]] const ssize_t n =
          ::read(wake.fd, &wakes, sizeof(wakes));
    }

    for (std::size_t i = 0; i < workers_.size() && ready > 0; ++i) {
      if (!workers_[i].sock.valid()) continue;  // detached this tick
      if (fds[i].revents & POLLOUT) {
        if (!workers_[i].sock.flush_some()) {
          on_worker_lost(i);
          continue;
        }
      }
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        const bool alive = workers_[i].sock.pump_reads();
        // Drain complete frames first: the final bytes before an EOF may
        // still carry results.
        while (auto frame = workers_[i].sock.next_frame_view()) {
          handle_frame(i, *frame);
        }
        if (!alive) {
          bool still_running = false;
          {
            util::MutexLock lock(stream_mutex_);
            still_running = !(closed_ && completed_ == pushed_);
          }
          if (still_running) on_worker_lost(i);
        }
      }
    }

    // Stall detection: edge-triggered, so a wedged worker logs once when
    // it trips and once when it recovers, not every poll tick.
    if (config_.stall_after > 0.0) {
      const double vnow = virtual_now();
      std::vector<obs::HealthTracker::Transition> edges;
      {
        util::MutexLock lock(status_mutex_);
        edges = health_.check(vnow, config_.stall_after);
      }
      for (const auto& edge : edges) {
        if (edge.stalled) {
          ctl_flight_.record(obs::FlightKind::kStall, vnow, edge.node, 0,
                             std::bit_cast<std::uint64_t>(edge.silent_for));
          if (obs_metrics_.worker_stalls) obs_metrics_.worker_stalls->add(1);
          util::log_warn("gridpipe: worker ", edge.node,
                         edge.no_progress
                             ? " reports a backlog but no progress for "
                             : " silent for ",
                         edge.silent_for, " virtual s");
        } else {
          util::log_info("gridpipe: worker ", edge.node, " recovered");
        }
      }
    }

    if (epoch > 0.0 && virtual_now() >= next_epoch) {
      const control::EpochRecord record = controller_->run_epoch();
      std::uint32_t bits = 0;
      if (record.decided) bits |= 1u;
      if (record.remapped) bits |= 2u;
      ctl_flight_.record(obs::FlightKind::kEpoch, virtual_now(), bits);
      next_epoch += epoch;
    }
  }
}

void ProcessExecutor::controller_main() {
  try {
    event_loop();
    shutdown_fleet();
  } catch (...) {
    {
      util::MutexLock lock(stream_mutex_);
      stream_error_ = std::current_exception();
    }
    kill_fleet();
  }
}

void ProcessExecutor::shutdown_fleet() {
  using namespace std::chrono;
  // A healthy worker exits promptly on kShutdown; the deadline only
  // guards against a wedged one (then: SIGKILL, still reaped).
  const auto deadline = steady_clock::now() + seconds(10);
  for (std::size_t node = 0; node < workers_.size(); ++node) {
    Worker& w = workers_[node];
    if (!w.sock.valid()) continue;  // detached (dead/degraded) under recovery
    w.sock.queue_frame(
        {FrameKind::kShutdown, static_cast<std::uint32_t>(node), {}});
    // Flush the farewell, then drain to EOF so a worker mid-write can
    // finish and exit; everything stays nonblocking + poll'd.
    bool peer_up = true;
    while (peer_up && w.sock.pending_out() > 0) {
      const auto left =
          duration_cast<milliseconds>(deadline - steady_clock::now()).count();
      if (left <= 0) break;
      pollfd pfd{w.sock.fd(), POLLOUT, 0};
      if (::poll(&pfd, 1, static_cast<int>(left)) <= 0) break;
      peer_up = w.sock.flush_some();
    }
    while (peer_up) {
      const auto left =
          duration_cast<milliseconds>(deadline - steady_clock::now()).count();
      if (left <= 0) break;
      pollfd pfd{w.sock.fd(), POLLIN, 0};
      if (::poll(&pfd, 1, static_cast<int>(left)) <= 0) break;
      peer_up = w.sock.pump_reads();
      while (auto frame = w.sock.next_frame()) {
        // Workers flush their final telemetry batch on kShutdown, after
        // the event loop stopped handling frames — apply it here; other
        // stragglers (stray speed observations) are discarded.
        if (frame->kind == FrameKind::kTelemetry && config_.obs.any()) {
          obs::apply_telemetry(obs::decode_telemetry(frame->payload),
                               config_.obs);
        }
      }
    }
    if (peer_up) ::kill(w.pid, SIGKILL);  // deadline hit: wedge insurance
    w.sock.close();
    int status = 0;
    ::waitpid(w.pid, &status, 0);
    w.pid = -1;
  }
  workers_.clear();
  close_parent_bells();
  rings_ = ShmRingMesh{};  // every child unmapped its own view on exit
}

void ProcessExecutor::kill_fleet() noexcept {
  for (Worker& w : workers_) {
    w.sock.close();
    if (w.pid > 0) {
      ::kill(w.pid, SIGKILL);
      int status = 0;
      ::waitpid(w.pid, &status, 0);
      w.pid = -1;
    }
  }
  workers_.clear();
  close_parent_bells();
  close_wake_fd();
  rings_ = ShmRingMesh{};
}

void ProcessExecutor::fail_run(std::size_t node) {
  int status = 0;
  ::waitpid(workers_[node].pid, &status, 0);
  workers_[node].pid = -1;
  kill_fleet();
  std::string message = "ProcessExecutor: worker for node " +
                        std::to_string(node) + " exited mid-run (" +
                        describe_wait_status(status) + ")";
  // The victim's flight-recorder lane lives in the parent's MAP_SHARED
  // mapping, so its last events survive the death: attach the decoded
  // tail so the crash explains what the worker was doing.
  const std::string tail = flight_.format_tail(1 + node, 32);
  if (!tail.empty()) {
    message += "; last flight events:\n" + tail;
  }
  throw std::runtime_error(message);
}

void ProcessExecutor::fail_lost(std::size_t node, const std::string& why) {
  kill_fleet();
  std::string message = "ProcessExecutor: worker for node " +
                        std::to_string(node) + " lost and not recoverable (" +
                        why + ")";
  const std::string tail = flight_.format_tail(1 + node, 32);
  if (!tail.empty()) {
    message += "; last flight events:\n" + tail;
  }
  throw std::runtime_error(message);
}

// ------------------------------------------------------------- recovery

void ProcessExecutor::on_worker_lost(std::size_t node) {
  if (recovery_on()) {
    mark_worker_dead(node);
  } else {
    fail_run(node);
  }
}

void ProcessExecutor::mark_worker_dead(std::size_t node) {
  Worker& w = workers_[node];
  if (w.pid <= 0 && !w.sock.valid()) return;  // already detached
  const double vnow = virtual_now();
  std::string how = "socket gone";
  if (w.pid > 0) {
    int status = 0;
    ::waitpid(w.pid, &status, 0);
    how = describe_wait_status(status);
    w.pid = -1;
  }
  // Scoped teardown: only this worker's resources. close() recycles its
  // queued outbound buffers into the pool; the fd drops out of the poll
  // set via fd() == -1. The rest of the fleet keeps streaming.
  w.sock.close();
  node_losses_.fetch_add(1, std::memory_order_relaxed);
  if (obs_metrics_.node_losses) obs_metrics_.node_losses->add(1);
  ctl_flight_.record(obs::FlightKind::kDeath, vnow,
                     static_cast<std::uint32_t>(node));
  {
    util::MutexLock lock(status_mutex_);
    if (node < worker_pids_.size()) worker_pids_[node] = -1;
    health_.set_down(node, true);
  }
  const std::string tail = flight_.format_tail(1 + node, 16);
  util::log_warn("gridpipe: worker ", node, " died mid-run (", how,
                 "); recovering",
                 tail.empty() ? "" : "; last flight events:\n" + tail);
  // Open (or extend) the recovery window: everything in flight right now
  // is suspect until delivered, and the clock runs until the last of
  // them lands.
  if (recovering_.empty() && !journal_.empty()) recovery_started_v_ = vnow;
  for (const std::uint64_t seq : journal_.live_seqs()) {
    recovering_.insert(seq);
  }
  dead_nodes_.push_back(node);
}

void ProcessExecutor::process_dead_nodes() {
  while (!dead_nodes_.empty()) {
    const std::size_t node = dead_nodes_.front();
    dead_nodes_.pop_front();
    if (worker_up(node) || node_degraded_[node]) continue;  // stale entry
    const recover::Supervisor::Action action = supervisor_.on_death(node);
    switch (action.kind) {
      case recover::Supervisor::ActionKind::kRespawn: {
        const auto delay = std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(action.delay_ms));
        respawn_at_[node] = std::chrono::steady_clock::now() + delay;
        util::log_info("gridpipe: respawning worker ", node, " in ",
                       action.delay_ms, " ms (attempt ",
                       supervisor_.respawns(node), ")");
        break;
      }
      case recover::Supervisor::ActionKind::kDegrade:
        util::log_warn("gridpipe: respawn budget for worker ", node,
                       " exhausted; degrading to the surviving grid");
        degrade_node(node);
        break;
      case recover::Supervisor::ActionKind::kFail:
        fail_lost(node, "respawn budget exhausted, degrade disabled");
    }
  }
}

void ProcessExecutor::process_respawns() {
  const auto now = std::chrono::steady_clock::now();
  for (std::size_t node = 0; node < respawn_at_.size(); ++node) {
    if (!respawn_at_[node] || *respawn_at_[node] > now) continue;
    respawn_at_[node].reset();
    if (respawn_worker(node) && !recovering_.empty()) {
      replay_recovering_items();
    }
  }
}

void ProcessExecutor::process_arrivals() {
  std::vector<std::size_t> requests;
  {
    util::MutexLock lock(stream_mutex_);
    requests.swap(arrivals_);
  }
  for (const std::size_t node : requests) {
    if (node >= workers_.size() || worker_up(node)) continue;
    const bool was_recovering = respawn_at_[node].has_value();
    respawn_at_[node].reset();
    node_degraded_[node] = 0;
    supervisor_.on_arrival(node);
    controller_->on_node_arrival(node);
    if (!respawn_worker(node)) continue;
    run_churn_remap(control::AdaptationTrigger::kNodeArrival,
                    "node " + std::to_string(node) + " joined");
    // An arrival that doubled as the pending respawn still owes the
    // replay; a node growing back after a clean degrade does not (its
    // lost items were already replayed onto the survivors).
    if (was_recovering && !recovering_.empty()) replay_recovering_items();
  }
}

bool ProcessExecutor::respawn_worker(std::size_t node) {
  // Drain residual bytes out of the dead consumer's incoming rings so
  // the replacement's frame readers start frame-aligned: pushes are
  // atomic whole frames, so an *empty* ring is a frame boundary, while
  // whatever the dead incarnation had half-consumed is not.
  if (rings_.valid()) {
    for (std::size_t src = 0; src < grid_.num_nodes(); ++src) {
      ShmRing ring = rings_.ring(src, node);
      if (!ring.valid()) continue;
      std::byte chunk[4096];
      while (ring.pop(chunk, sizeof(chunk)) > 0) {
      }
    }
  }
  const std::uint32_t incarnation = ++incarnation_[node];
  const double vnow = virtual_now();
  // Single-writer handoff on the worker's own flight lane: the old
  // incarnation is dead, the new one not yet forked, so this instant the
  // parent may stamp the lane — the respawn marker then sits between the
  // two lives in the forensic record.
  flight_.ring(1 + node).record(obs::FlightKind::kRespawn, vnow,
                                static_cast<std::uint32_t>(node),
                                incarnation);
  ctl_flight_.record(obs::FlightKind::kRespawn, vnow,
                     static_cast<std::uint32_t>(node), incarnation);
  try {
    spawn_worker(node, incarnation);
  } catch (const std::runtime_error& error) {
    util::log_warn("gridpipe: respawn of worker ", node,
                   " failed: ", error.what());
    dead_nodes_.push_back(node);  // back to the supervisor (budget ticks)
    return false;
  }
  respawns_.fetch_add(1, std::memory_order_relaxed);
  if (obs_metrics_.respawns) obs_metrics_.respawns->add(1);
  {
    util::MutexLock lock(status_mutex_);
    if (node < worker_pids_.size()) worker_pids_[node] = workers_[node].pid;
    health_.on_respawn(node, virtual_now());
  }
  util::log_info("gridpipe: worker ", node, " respawned (incarnation ",
                 incarnation, ", pid ", workers_[node].pid, ")");
  return true;
}

void ProcessExecutor::degrade_node(std::size_t node) {
  node_degraded_[node] = 1;
  respawn_at_[node].reset();
  controller_->on_node_loss(node);
  if (controller_->nodes_available() == 0) {
    fail_lost(node, "no surviving nodes to degrade onto");
  }
  // Close the consumer side of every ring into the dead node so a
  // straggling producer fails fast to the socket path (where the parent
  // re-routes) instead of filling pages nobody will drain.
  if (rings_.valid()) {
    for (std::size_t src = 0; src < grid_.num_nodes(); ++src) {
      ShmRing ring = rings_.ring(src, node);
      if (ring.valid()) ring.close_consumer();
    }
  }
  run_churn_remap(control::AdaptationTrigger::kNodeLoss,
                  "node " + std::to_string(node) + " lost");
  if (!recovering_.empty()) replay_recovering_items();
}

void ProcessExecutor::run_churn_remap(control::AdaptationTrigger why,
                                      std::string event) {
  const control::EpochRecord record =
      controller_->run_churn_epoch(why, std::move(event));
  std::uint32_t bits = 1u;  // churn epochs always decide
  if (record.remapped) bits |= 2u;
  ctl_flight_.record(obs::FlightKind::kEpoch, virtual_now(), bits);
  // Executor-side hard guard, independent of mapper behavior: if the
  // deployed mapping still touches a degraded node (a mapper is free to
  // ignore zeroed speeds), force a block layout over the survivors.
  bool touches_degraded = false;
  for (std::size_t s = 0;
       s < controller_mapping_.num_stages() && !touches_degraded; ++s) {
    for (const grid::NodeId r : controller_mapping_.replicas(s)) {
      if (node_degraded_[r] != 0) {
        touches_degraded = true;
        break;
      }
    }
  }
  if (touches_degraded) {
    std::vector<grid::NodeId> survivors;
    for (grid::NodeId n = 0; n < grid_.num_nodes(); ++n) {
      if (node_degraded_[n] == 0) survivors.push_back(n);
    }
    std::vector<grid::NodeId> stage_to_node(stages_.size());
    for (std::size_t s = 0; s < stages_.size(); ++s) {
      stage_to_node[s] =
          survivors[s * survivors.size() / stages_.size()];
    }
    apply_remap(sched::Mapping(std::move(stage_to_node)), 0.0);
  }
}

void ProcessExecutor::replay_recovering_items() {
  // Re-admit, in seq order, every item that was in flight at a death and
  // is still journaled. At-least-once: an item that actually survived on
  // a live worker will come back twice and the dedup retire drops the
  // loser. Replays bypass the credit window on purpose — these items
  // already held credits when they were lost.
  std::vector<std::uint64_t> seqs(recovering_.begin(), recovering_.end());
  for (const std::uint64_t seq : seqs) {
    const recover::ReplayJournal::Entry* entry = journal_.find(seq);
    if (entry == nullptr) continue;  // delivered while we were deciding
    grid::NodeId dst = controller_router_.pick(controller_mapping_, 0);
    if (!worker_up(dst)) {
      bool found = false;
      for (std::size_t i = 1; i < controller_mapping_.replica_count(0);
           ++i) {
        dst = controller_router_.pick(controller_mapping_, 0);
        if (worker_up(dst)) {
          found = true;
          break;
        }
      }
      // Another node is down with its own recovery pending; that
      // recovery ends in a replay too, so deferring is safe.
      if (!found) return;
    }
    Bytes wire = pool_.acquire();
    const std::size_t off = comm::wire::begin_frame(
        wire, FrameKind::kTask, static_cast<std::uint32_t>(dst));
    comm::wire::encode_task_header_into(wire, seq, 0);
    const std::size_t at = wire.size();
    wire.resize(at + entry->payload.size());
    if (!entry->payload.empty()) {
      std::memcpy(wire.data() + at, entry->payload.data(),
                  entry->payload.size());
    }
    comm::wire::end_frame(wire, off);
    journal_.note_replay(seq);
    replays_.fetch_add(1, std::memory_order_relaxed);
    if (obs_metrics_.items_replayed) obs_metrics_.items_replayed->add(1);
    ctl_flight_.record(obs::FlightKind::kReplay, virtual_now(), 0, seq);
    workers_[dst].sock.queue_buffer(std::move(wire));
    if (!workers_[dst].sock.flush_some()) {
      on_worker_lost(dst);
      return;  // the new death's recovery will finish the replay
    }
  }
}

void ProcessExecutor::note_retired(std::uint64_t item, double vnow) {
  if (recovering_.empty()) return;
  recovering_.erase(item);
  if (!recovering_.empty()) return;
  const double took = vnow - recovery_started_v_;
  recovery_times_.push_back(took);
  if (obs_metrics_.recovery_time) obs_metrics_.recovery_time->record(took);
  util::log_info("gridpipe: recovery window closed after ", took,
                 " virtual s");
}

void ProcessExecutor::request_arrival(std::size_t node) {
  if (!recovery_on()) {
    throw std::logic_error(
        "ProcessExecutor: request_arrival needs recovery enabled");
  }
  if (node >= grid_.num_nodes()) {
    throw std::invalid_argument("ProcessExecutor: arrival for unknown node");
  }
  util::MutexLock lock(stream_mutex_);
  arrivals_.push_back(node);
  wake_locked();
}

std::string ProcessExecutor::flight_tail(std::size_t lane,
                                         std::size_t max_events) const {
  return flight_.format_tail(lane, max_events);
}

void ProcessExecutor::stream_begin() {
  if (stream_active_) {
    throw std::logic_error("ProcessExecutor: a stream is already active");
  }
  if (!workers_.empty()) {
    throw std::logic_error("ProcessExecutor: previous fleet still live");
  }

  // Fresh controller per stream: the virtual clock restarts at 0, so gate
  // snapshots, hysteresis streaks and registry timestamps from a
  // previous stream would all be stale.
  controller_ = make_controller();

  {
    util::MutexLock lock(stream_mutex_);
    incoming_.clear();
    out_.reset();
    completed_at_.clear();
    pushed_ = 0;
    closed_ = false;
    stream_error_ = nullptr;
    arrivals_.clear();
    parked_ = false;
    window_open_ = false;
    wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (wake_fd_ < 0) {
      const int err = errno;
      throw std::runtime_error(std::string("ProcessExecutor: eventfd: ") +
                               describe_errno(err));
    }
  }
  pending_.clear();
  admit_time_.clear();
  admitted_ = 0;
  completed_ = 0;
  journal_.clear();
  supervisor_.reset(config_.recovery.respawn, grid_.num_nodes());
  dead_nodes_.clear();
  respawn_at_.assign(grid_.num_nodes(), std::nullopt);
  incarnation_.assign(grid_.num_nodes(), 0);
  node_degraded_.assign(grid_.num_nodes(), 0);
  recovering_.clear();
  recovery_started_v_ = 0.0;
  recovery_times_.clear();
  node_losses_ = 0;
  respawns_ = 0;
  replays_ = 0;
  dedups_ = 0;
  journal_live_ = 0;
  controller_mapping_ = initial_mapping_;
  controller_router_.reset(stages_.size());
  metrics_ = sim::SimMetrics{};  // time series restart with the clock
  start_ = std::chrono::steady_clock::now();
  initial_mapping_str_ = initial_mapping_.to_string();
  {
    util::MutexLock lock(status_mutex_);
    status_mapping_ = initial_mapping_str_;
  }
  stream_active_ = true;

  // Fork the fleet first, start our own controller thread second: the
  // runtime never forks while one of its own threads is live.
  spawn_fleet();
  controller_thread_ = std::thread([this] { controller_main(); });
}

void ProcessExecutor::stream_push(Bytes item) {
  util::MutexLock lock(stream_mutex_);
  if (!stream_active_ || closed_) {
    throw std::logic_error("ProcessExecutor: push on a closed stream");
  }
  if (obs_metrics_.items_pushed) obs_metrics_.items_pushed->add(1);
  incoming_.emplace_back(pushed_++, std::move(item));
  if (window_open_) wake_locked();
}

std::optional<Bytes> ProcessExecutor::stream_try_pop() {
  util::MutexLock lock(stream_mutex_);
  if (!out_.ready()) return std::nullopt;
  const std::uint64_t seq = out_.next();
  Bytes out = out_.pop();
  if (config_.obs.tracer) {
    if (auto done = completed_at_.find(seq); done != completed_at_.end()) {
      const double vnow = virtual_now();
      obs::record_span(config_.obs.tracer, obs::SpanKind::kWait, "wait",
                       done->second, vnow - done->second, 0, seq);
      completed_at_.erase(done);
    }
  }
  return out;
}

void ProcessExecutor::stream_close() {
  util::MutexLock lock(stream_mutex_);
  closed_ = true;
  wake_locked();
}

core::RunReport ProcessExecutor::stream_finish() {
  if (!stream_active_) {
    throw std::logic_error("ProcessExecutor: no active stream to finish");
  }
  {
    util::MutexLock lock(stream_mutex_);
    if (!closed_) {
      throw std::logic_error(
          "ProcessExecutor: stream_close() before stream_finish()");
    }
  }
  controller_thread_.join();
  stream_active_ = false;
  close_wake_fd();
  {
    util::MutexLock lock(stream_mutex_);
    if (stream_error_) std::rethrow_exception(stream_error_);
  }

  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  core::RunReport report;
  // The controller thread is joined; move the O(items) metric series.
  core::finalize_stream_report(report, completed_, wall, config_.time_scale,
                               std::move(metrics_), controller_->take_epochs(),
                               std::move(initial_mapping_str_),
                               controller_mapping_.to_string());
  report.node_losses = node_losses_.load(std::memory_order_relaxed);
  report.respawns = respawns_.load(std::memory_order_relaxed);
  report.items_replayed = replays_.load(std::memory_order_relaxed);
  report.items_deduped = dedups_.load(std::memory_order_relaxed);
  report.recovery_times = recovery_times_;
  return report;
}

core::RunReport ProcessExecutor::run(std::vector<Bytes> inputs) {
  return core::run_stream_batch(*this, std::move(inputs));
}

util::Json ProcessExecutor::status() const {
  util::Json doc = util::Json::object();
  doc["substrate"] = "process";
  const double vnow = virtual_now();
  doc["virtual_time"] = vnow;
  doc["window"] = static_cast<std::uint64_t>(config_.window);
  const std::uint64_t admitted = admitted_.load(std::memory_order_relaxed);
  const std::uint64_t completed = completed_.load(std::memory_order_relaxed);
  doc["admitted"] = admitted;
  doc["completed"] = completed;
  doc["in_flight"] = admitted - completed;
  {
    util::MutexLock lock(stream_mutex_);
    doc["pushed"] = pushed_;
    doc["popped"] = out_.next();
    doc["closed"] = closed_;
    doc["buffered_out"] = static_cast<std::uint64_t>(out_.buffered());
  }
  if (recovery_on()) {
    util::Json recovery = util::Json::object();
    recovery["node_losses"] = node_losses_.load(std::memory_order_relaxed);
    recovery["respawns"] = respawns_.load(std::memory_order_relaxed);
    recovery["items_replayed"] = replays_.load(std::memory_order_relaxed);
    recovery["items_deduped"] = dedups_.load(std::memory_order_relaxed);
    recovery["journal_live"] = journal_live_.load(std::memory_order_relaxed);
    doc["recovery"] = std::move(recovery);
  }
  {
    util::MutexLock lock(status_mutex_);
    doc["mapping"] = status_mapping_;
    doc["workers"] = health_.to_json(vnow);
    util::Json pids = util::Json::array();
    for (const int pid : worker_pids_) pids.push_back(pid);
    doc["worker_pids"] = std::move(pids);
  }
  return doc;
}

std::vector<int> ProcessExecutor::worker_pids() const {
  util::MutexLock lock(status_mutex_);
  return worker_pids_;
}

}  // namespace gridpipe::proc
