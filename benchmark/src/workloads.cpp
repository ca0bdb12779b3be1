#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "bench.hpp"
#include "grid/builders.hpp"
#include "util/stats.hpp"
#include "workload/scenarios.hpp"
#include "workload/substrate.hpp"

namespace gridpipe::benchmark {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t load_u64(const std::byte* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint64_t digest_bytes(const core::Bytes& bytes) {
  // Four independent multiply-xorshift lanes over 8-byte words. Each
  // step is a bijection of the lane state for a fixed word, so changing
  // a single word always changes its lane, and the final fold keeps
  // that difference.
  std::uint64_t lane[4] = {0x243F6A8885A308D3ULL, 0x13198A2E03707344ULL,
                           0xA4093822299F31D0ULL, 0x082EFA98EC4E6C89ULL};
  const std::byte* p = bytes.data();
  const std::size_t n = bytes.size();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    for (int k = 0; k < 4; ++k) {
      lane[k] = (lane[k] ^ load_u64(p + i + 8 * k)) * 0x9FB21C651E98DF25ULL;
      lane[k] ^= lane[k] >> 29;
    }
  }
  std::uint64_t h = splitmix64(n);
  for (; i < n; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p + i, std::min<std::size_t>(8, n - i));
    h = splitmix64(h ^ word);
  }
  for (int k = 0; k < 4; ++k) h = splitmix64(h ^ lane[k]);
  return h;
}

constexpr std::size_t kBodies = 16;

// Built with += rather than operator+ (see workload/substrate.cpp: a GCC
// -Wrestrict false positive on char* + string&&).
std::string stage_name(std::size_t i) {
  std::string name = "s";
  name += std::to_string(i);
  return name;
}

/// `stages` identity Bytes stages; with `corrupt`, the last stage flips
/// one byte past the sequence number of that item.
core::PipelineSpec bytes_pipeline(std::size_t stages, std::size_t payload,
                                  std::optional<std::uint64_t> corrupt) {
  core::PipelineSpec spec;
  const double bytes = static_cast<double>(payload);
  for (std::size_t i = 0; i < stages; ++i) {
    if (corrupt && i + 1 == stages) {
      spec.stage<core::Bytes, core::Bytes>(
          stage_name(i),
          [k = *corrupt](core::Bytes b) {
            if (load_u64(b.data()) == k) b[8] ^= std::byte{1};
            return b;
          },
          1.0, bytes);
    } else {
      spec.stage<core::Bytes, core::Bytes>(
          stage_name(i), [](core::Bytes b) { return b; }, 1.0, bytes);
    }
  }
  spec.input_bytes(bytes);
  return spec;
}

/// The three uniform-cluster workloads share everything but load shape,
/// stage count and payload size.
Workload uniform_workload(std::string name, std::size_t stages,
                          std::size_t payload, const WorkloadOptions& opts) {
  Workload w;
  w.name = std::move(name);
  w.grid = grid::uniform_cluster(3, 1.0, 1e-4, 1e9);
  w.spec = bytes_pipeline(stages, payload, opts.corrupt_item);
  w.oracle = bytes_pipeline(stages, payload, std::nullopt);
  w.options.emulate_compute = false;
  w.options.time_scale = 0.01;
  w.options.seed = opts.seed;
  w.payload_bytes = payload;
  return w;
}

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) return std::nan("");
  return util::percentile(std::move(values), 50.0);
}

Inputs::Inputs(std::uint64_t seed, std::size_t payload_bytes)
    : seed_(seed), payload_bytes_(payload_bytes) {
  if (payload_bytes_ == 0) return;
  if (payload_bytes_ < 16) {
    throw std::invalid_argument("Inputs: payloads need at least 16 bytes");
  }
  std::uint64_t state = splitmix64(seed);
  bodies_.resize(kBodies);
  for (core::Bytes& body : bodies_) {
    body.resize(payload_bytes_);
    for (std::size_t off = 0; off < payload_bytes_; off += 8) {
      state = splitmix64(state);
      std::memcpy(body.data() + off, &state,
                  std::min<std::size_t>(8, payload_bytes_ - off));
    }
  }
}

std::any Inputs::make(std::uint64_t seq) const {
  if (payload_bytes_ == 0) return std::any(value(seq));
  core::Bytes item = bodies_[seq % kBodies];
  std::memcpy(item.data(), &seq, sizeof seq);
  return std::any(std::move(item));
}

std::uint64_t Inputs::value(std::uint64_t seq) const {
  return splitmix64(seed_ ^ splitmix64(seq));
}

std::uint64_t digest(const std::any& item) {
  if (const auto* bytes = std::any_cast<core::Bytes>(&item)) {
    return digest_bytes(*bytes);
  }
  if (const auto* v = std::any_cast<std::uint64_t>(&item)) {
    return splitmix64(*v);
  }
  throw std::invalid_argument(std::string("digest: unexpected output type ") +
                              item.type().name());
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "trickle", "flood-small", "flood-large", "adapt-loadstep"};
  return names;
}

Workload make_workload(const std::string& name, const WorkloadOptions& opts) {
  // Quick mode (the self-tests) keeps every shape and shrinks each rep
  // tenfold.
  const std::size_t scale = opts.quick ? 10 : 1;
  Workload w;
  if (name == "trickle") {
    // Far below capacity: latency is the runtime path alone.
    w = uniform_workload(name, 6, 64, opts);
    w.loop = Loop::kOpen;
    w.rate = 2000.0;
    w.items = 2000 / scale;
    w.min_reps = 3;
  } else if (name == "flood-small") {
    // Saturated with small items: per-item fixed cost dominates.
    w = uniform_workload(name, 6, 64, opts);
    w.outstanding = 256;
    w.items = 50000 / scale;
    w.min_reps = 5;
  } else if (name == "flood-large") {
    // Saturated with 64 KiB items: bytes moved dominate; three frames
    // fill a default shared-memory ring.
    w = uniform_workload(name, 3, 64 * 1024, opts);
    w.outstanding = 32;
    w.items = 20000 / scale;
    w.min_reps = 5;
  } else if (name == "adapt-loadstep") {
    // The controller on the critical path: the fastest node slows 8x a
    // few epochs in, and throughput follows the mapping chosen next.
    if (opts.corrupt_item) {
      throw std::invalid_argument(
          "--corrupt-item needs a workload with byte items");
    }
    workload::Scenario s = workload::find_scenario("load-step", opts.seed);
    w.name = name;
    w.grid = std::move(s.grid);
    w.spec = workload::passthrough_pipeline(s.profile);
    w.oracle = w.spec;
    w.options.emulate_compute = true;
    w.options.time_scale = 0.0005;
    w.options.seed = opts.seed;
    w.options.adapt.epoch = 10.0;
    w.options.adapt.trigger = control::AdaptationTrigger::kEveryEpoch;
    w.options.adapt.mapper = control::MapperKind::kAuto;
    w.options.initial_mapping =
        workload::planned_mapping(w.grid, s.profile, w.options.adapt);
    w.outstanding = 16;
    w.items = 1000 / scale;
    w.min_reps = 3;
    w.adaptive = true;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  if (opts.quick) w.min_reps = 1;
  return w;
}

}  // namespace gridpipe::benchmark
