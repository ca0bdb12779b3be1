#pragma once
// Single-layer probes: each times one layer's public call at the
// workload's own shapes (grid, profile, item size), outside any session.

#include <vector>

#include "bench.hpp"

namespace gridpipe::benchmark {

/// sched.choose_mapping_ms, monitor.record_ns, comm.encode_ns,
/// comm.decode_ns, proc.ring_push_pop_ns, proc.ring_frames_fit,
/// proc.socket_rtt_us and obs.flight_record_ns. Quick mode takes far
/// fewer samples.
std::vector<Measured> run_probes(const Workload& w, const Inputs& inputs,
                                 bool quick);

}  // namespace gridpipe::benchmark
