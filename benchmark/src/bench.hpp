#pragma once
// Shared pieces of the gridpipe benchmark: seeded inputs, the output
// digest the checker compares, the four workloads, and one timed rep of
// a streaming session. Everything drives the runtime through its public
// rt::make_runtime / rt::Session API only.

#include <any>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "control/epoch_record.hpp"
#include "core/codec.hpp"
#include "core/pipeline_spec.hpp"
#include "grid/grid.hpp"
#include "rt/runtime.hpp"

namespace gridpipe::benchmark {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The generator polls; between polls with nothing to do it sleeps at
/// most this long rather than spinning a core the runtime could use.
inline constexpr double kPollSleep = 20e-6;

/// Median (R-7 interpolation, as util::percentile); NaN when empty.
double median(std::vector<double> values);

/// One reported number.
struct Measured {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Seeded item generator. Bytes items are one of a few seeded bodies
/// with the item's sequence number in their first 8 bytes, so every item
/// is distinct and a reordered or swapped output cannot match; uint64
/// items are a seeded mix of the sequence number. Same seed, same items.
class Inputs {
 public:
  /// `payload_bytes` = 0 selects std::uint64_t items; otherwise at least 16.
  Inputs(std::uint64_t seed, std::size_t payload_bytes);

  std::any make(std::uint64_t seq) const;

 private:
  std::uint64_t value(std::uint64_t seq) const;

  std::uint64_t seed_;
  std::size_t payload_bytes_;
  std::vector<core::Bytes> bodies_;
};

/// Length-and-content digest of an output item (core::Bytes or
/// std::uint64_t). A change confined to one 8-byte word always changes
/// it; throws std::invalid_argument on any other item type.
std::uint64_t digest(const std::any& item);

enum class Loop { kOpen, kClosed };

struct Workload {
  std::string name;
  grid::Grid grid;
  core::PipelineSpec spec;    ///< what the runtimes execute
  core::PipelineSpec oracle;  ///< run_inline reference (same stages unless corrupted)
  rt::RuntimeOptions options;
  Loop loop = Loop::kClosed;
  double rate = 0.0;              ///< open loop: items per second
  std::size_t outstanding = 0;    ///< closed loop: items in flight
  std::size_t items = 0;          ///< per rep
  std::size_t payload_bytes = 0;  ///< 0: std::uint64_t items
  std::size_t min_reps = 3;
  bool adaptive = false;  ///< the timed reps run the adaptation loop
};

struct WorkloadOptions {
  std::uint64_t seed = 1;
  bool quick = false;
  /// Test hook: the runtimes' spec flips one byte of this item while the
  /// oracle stays clean, proving the checker can fail.
  std::optional<std::uint64_t> corrupt_item;
};

/// "trickle", "flood-small", "flood-large", "adapt-loadstep".
const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument on an unknown name, or on corrupt_item
/// for a workload whose items are not core::Bytes.
Workload make_workload(const std::string& name, const WorkloadOptions& opts);

/// Tail latency is taken per window of this many consecutive items (the
/// whole rep when it is shorter), so that at least ten samples lie
/// beyond each window's p99. A stall of the host of a few milliseconds
/// delays the items in flight, a few hundred at most, and so lands in
/// one or two windows; a tail that the runtime itself makes recurs in
/// most of them.
inline constexpr std::size_t kWindowItems = 1000;

/// One streaming session driven by a single-threaded load generator.
struct Rep {
  std::size_t attempted = 0;
  std::size_t delivered = 0;  ///< popped and equal to the oracle
  std::size_t failed = 0;     ///< attempted - delivered
  double items_per_s = 0.0;   ///< popped / (last pop - first push)
  double p50_ms = 0.0;
  /// p99 latency of each window of kWindowItems consecutive items.
  std::vector<double> window_p99_ms;
  double late_p99_ms = 0.0;   ///< generator push lateness vs due time
  double push_us = 0.0;       ///< mean Session::push call
  double pop_us = 0.0;        ///< mean try_pop call that returned an item
  std::uint64_t pops = 0;
  std::uint64_t empty_pops = 0;
  /// Per sequence number: due/push → pop seconds; NaN if not delivered.
  std::vector<double> latency_s;
  std::vector<control::EpochRecord> epochs;
  std::string error;  ///< what the session threw, if it did
};

/// Opens a session on `runtime`, streams `n` items (open or closed loop
/// per the workload), checks each popped output against `expected`
/// (digests of the oracle's outputs, by sequence number), then closes and
/// reports. A session that throws fails every item it had not delivered.
Rep run_rep(rt::Runtime& runtime, const Workload& w, const Inputs& inputs,
            const std::vector<std::uint64_t>& expected, std::size_t n);

}  // namespace gridpipe::benchmark
