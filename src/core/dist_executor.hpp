#pragma once
// DistributedExecutor — the pipeline skeleton implemented purely over the
// message-passing substrate, mirroring the eSkel-on-MPI architecture the
// paper's implementation layer assumes.
//
// Topology: rank n (0 ≤ n < num_nodes) is a worker pinned to grid node n;
// rank num_nodes is the controller. All coordination is by message:
//
//   controller → worker   kTask      (item id, stage, payload bytes)
//   worker → worker       kTask      (next-stage hop, link-delayed)
//   worker → controller   kResult    (finished item + output)
//   worker → controller   kSpeedObs  (observed node speed sample)
//   controller → worker   kRemap     (serialized routing table)
//   controller → worker   kShutdown
//
// Workers hold a local copy of the routing table; kRemap updates arrive
// asynchronously. Because every worker owns every stage function, a hop
// routed with a momentarily stale table still executes correctly — the
// item merely lands on a suboptimal node for that hop (eventual
// consistency, no barrier needed).
//
// The adaptation epochs run on the controller rank and delegate to the
// shared control::AdaptationController; this class implements its
// AdaptationHost interface, where apply_remap broadcasts kRemap.
//
// Items are byte vectors (a distributed skeleton must serialize), so the
// stage interface here is Bytes → Bytes; rt::make_runtime bridges typed
// items through the spec's per-stage Codec<T> wire codecs.
//
// The runtime is natively streaming: the controller rank runs on a
// dedicated thread, stream_push() enqueues items it admits under the
// credit window, stream_try_pop() returns outputs in input order, and
// run() is a batch wrapper over one stream. The controller blocks in its
// receive until a message arrives or the next adaptation epoch is due;
// a push into an open credit window, a close and a worker's captured
// stage exception wake it with a zero-byte kWake self-message (at most
// one per park).

#include <atomic>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "comm/communicator.hpp"
#include "comm/wire.hpp"
#include "control/adaptation_controller.hpp"
#include "core/codec.hpp"
#include "core/report.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/sinks.hpp"
#include "sched/replica_router.hpp"
#include "util/json.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace gridpipe::core {

/// The serialized stage contract: read the input payload from a view
/// into the transport buffer, append the output to `out` (a pooled
/// buffer that already holds the next hop's wire header). Appending —
/// rather than returning a fresh Bytes — is what keeps the steady-state
/// hop allocation-free.
using BytesStageFn = std::function<void(ByteSpan in, Bytes& out)>;

struct DistStage {
  std::string name;
  BytesStageFn fn;
  double work = 1.0;
  double out_bytes = 1024;
  double state_bytes = 0.0;
};

/// Adapts a legacy Bytes → Bytes function to the append contract (one
/// copy per call; fine for tests and examples, not the hot path).
BytesStageFn bytes_stage_fn(std::function<Bytes(Bytes)> fn);

/// Scheduler profile derived from a Bytes → Bytes stage vector — the one
/// approximation (input bytes ≈ first stage's message size) every
/// substrate consuming DistStage must share, so their mapping decisions
/// stay comparable. Used by DistributedExecutor and proc::ProcessExecutor.
sched::PipelineProfile profile_from_stages(const std::vector<DistStage>& stages);

struct DistExecutorConfig {
  double time_scale = 0.01;  ///< real seconds per virtual second
  std::size_t window = 0;    ///< in-flight credit (0 = auto)
  /// Shared control-loop knobs. adapt.epoch = 0 (the live-runtime
  /// default) disables adaptation.
  control::AdaptationConfig adapt{.epoch = 0.0};
  bool emulate_compute = true;
  /// Max messages a rank drains per queue-lock acquisition.
  std::size_t drain_batch = 16;
  /// Telemetry sinks (both nullable = observability off). Workers ship
  /// their spans to the controller rank as kTelemetry messages; the
  /// sinks themselves are only ever touched from the controller side.
  obs::Sinks obs{};
  /// Flight-recorder ring size per lane (0 disables the forensic ring).
  std::size_t flight_events = obs::kDefaultFlightEvents;
};

class DistributedExecutor : private control::AdaptationHost {
 public:
  DistributedExecutor(const grid::Grid& grid, std::vector<DistStage> stages,
                      sched::Mapping initial_mapping,
                      DistExecutorConfig config);
  ~DistributedExecutor() override;

  /// Blocking convenience wrapper over one stream: pushes every input,
  /// closes, returns ordered outputs. Not reentrant.
  RunReport run(std::vector<Bytes> inputs);

  // Streaming session primitives (one stream at a time; rt::Session
  // wraps them). Lifecycle: begin -> push*/try_pop* -> close -> finish.
  void stream_begin();
  void stream_push(Bytes item);
  std::optional<Bytes> stream_try_pop();
  void stream_close();
  RunReport stream_finish();

  /// Point-in-time introspection snapshot (queue/credit/mapping state);
  /// safe to call from any thread while a stream is live.
  util::Json status() const;

  sched::PipelineProfile profile() const;

  // Message tags (public for tests). Mirror comm::wire::FrameKind 1:1.
  static constexpr int kTask = 1;
  static constexpr int kResult = 2;
  static constexpr int kRemap = 3;
  static constexpr int kShutdown = 4;
  static constexpr int kSpeedObs = 5;
  static constexpr int kTelemetry = 6;
  /// Controller self-wake. Negative like Communicator's collective tags,
  /// so it can never collide with a FrameKind mirror (7 is kHealth).
  static constexpr int kWake = -2;

  /// Wire format helpers (public for tests); thin delegates to the
  /// shared comm::wire codec, so the proc runtime speaks the same bytes.
  static Bytes encode_task(std::uint64_t item, std::uint32_t stage,
                           const Bytes& payload);
  static void decode_task(const Bytes& wire, std::uint64_t& item,
                          std::uint32_t& stage, Bytes& payload);
  static Bytes encode_mapping(const sched::Mapping& mapping);
  static sched::Mapping decode_mapping(const Bytes& wire);

 private:
  struct RoutingTable {
    // Guarded copy per worker; only the owning worker touches it outside
    // of construction.
    sched::Mapping mapping;
    sched::ReplicaRouter router;
    grid::NodeId pick(std::size_t stage) { return router.pick(mapping, stage); }
  };

  // control::AdaptationHost (called from the controller rank's epochs).
  double virtual_now() const override;
  sched::Mapping deployed_mapping() const override;
  void apply_remap(const sched::Mapping& to, double pause_virtual) override;
  void record_probes(double vnow) override;  // no-op: kSpeedObs feeds it

  /// Builds the per-stream controller (fresh gate/policy/registry state;
  /// the virtual clock restarts with every stream).
  std::unique_ptr<control::AdaptationController> make_controller();

  void worker_loop(int rank);
  /// Body of worker_loop; a stage exception escaping it is captured into
  /// stream_error_ and ends the stream.
  void worker_loop_impl(int rank);
  /// The controller rank's event loop: admits pushed items under the
  /// credit window, collects results into the output buffer, feeds speed
  /// observations, runs the adaptation epochs, and broadcasts kShutdown
  /// once the stream is closed and drained (or a worker failed).
  void controller_loop();
  /// Claims the wake of a parked controller (at most one per park); the
  /// caller sends it with send_wake() after dropping the lock, so a full
  /// controller queue can never block a sender that holds stream_mutex_.
  bool claim_wake_locked() GRIDPIPE_REQUIRES(stream_mutex_);
  void send_wake();

  int controller_rank() const noexcept {
    return static_cast<int>(grid_.num_nodes());
  }

  const grid::Grid& grid_;
  std::vector<DistStage> stages_;
  sched::Mapping initial_mapping_;
  DistExecutorConfig config_;

  comm::GridDelayModel delays_;
  comm::Communicator comm_;
  /// Shared free-list for hop/obs/admission buffers: workers and the
  /// controller compose messages into pooled buffers and release
  /// consumed payloads back, so a steady-state hop allocates nothing.
  /// (Internally synchronized; no GUARDED_BY needed.)
  comm::wire::BufferPool pool_;
  std::chrono::steady_clock::time_point start_{};

  // Controller-side state (touched only by the controller thread while a
  // stream is live).
  sched::PipelineProfile profile_;
  std::unique_ptr<control::AdaptationController> controller_;
  sched::Mapping controller_mapping_;
  sched::ReplicaRouter controller_router_;
  sim::SimMetrics metrics_;

  // Stream state shared between the pushing/popping caller and the
  // controller thread.
  mutable util::Mutex stream_mutex_;
  std::deque<std::pair<std::uint64_t, Bytes>> incoming_
      GRIDPIPE_GUARDED_BY(stream_mutex_);
  std::map<std::uint64_t, Bytes> out_buffer_
      GRIDPIPE_GUARDED_BY(stream_mutex_);
  /// Virtual completion time per buffered output; populated only when
  /// tracing (feeds the ordered-buffer wait span on pop).
  std::map<std::uint64_t, double> completed_at_
      GRIDPIPE_GUARDED_BY(stream_mutex_);
  std::uint64_t next_out_ GRIDPIPE_GUARDED_BY(stream_mutex_) = 0;
  std::uint64_t pushed_ GRIDPIPE_GUARDED_BY(stream_mutex_) = 0;
  std::uint64_t completed_count_ GRIDPIPE_GUARDED_BY(stream_mutex_) = 0;
  bool closed_ GRIDPIPE_GUARDED_BY(stream_mutex_) = false;
  /// First stage exception; ends the stream and is rethrown by
  /// stream_finish().
  std::exception_ptr stream_error_ GRIDPIPE_GUARDED_BY(stream_mutex_);
  /// Set by the controller just before it blocks in its receive; cleared
  /// by the first wake claim and at the top of every loop pass.
  bool parked_ GRIDPIPE_GUARDED_BY(stream_mutex_) = false;
  /// The credit window had room when the controller parked. A push into
  /// a full window needs no wake: only a result can make progress, and a
  /// result is itself a message that ends the receive.
  bool window_open_ GRIDPIPE_GUARDED_BY(stream_mutex_) = false;
  /// Virtual admission time per in-flight item (controller thread only;
  /// for latency metrics).
  std::map<std::uint64_t, double> admit_time_;
  /// Deployed-mapping string for status(): controller_mapping_ itself is
  /// controller-thread-only, so remaps mirror it here under the lock.
  std::string status_mapping_ GRIDPIPE_GUARDED_BY(stream_mutex_);
  std::uint64_t status_admitted_ GRIDPIPE_GUARDED_BY(stream_mutex_) = 0;

  std::vector<std::thread> worker_threads_;
  std::thread controller_thread_;
  bool stream_active_ = false;
  std::string initial_mapping_str_;
  /// Pre-resolved obs handles (all null when config_.obs.metrics is).
  obs::StandardMetrics obs_metrics_;

  /// Always-on forensic flight recorder: lane 0 is the controller rank
  /// (its thread is the sole writer — admissions, completions, remaps,
  /// epochs all run there), lane 1 + n is worker rank n.
  obs::FlightRecorder flight_;
  obs::FlightRing ctl_flight_;
};

}  // namespace gridpipe::core
