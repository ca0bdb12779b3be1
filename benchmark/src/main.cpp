// gridpipe_bench — one workload of the gridpipe benchmark, end to end
// and layer by layer. benchmark/run.sh builds this and is the command
// to use; see benchmark/README.md for the workloads and metrics.
//
//   gridpipe_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--quick] [--out FILE] [--trace-dir DIR] [--git-sha SHA]
//                  [--corrupt-item K]
//
// Over the substrates threads, dist and process, visited round-robin one
// session at a time (each reported and destroyed before the next opens),
// it times set-up and the close→report drain of one-item sessions, then
// `--seconds` of streaming reps, interleaved with single-threaded inline
// passes. With --trace 1 it adds one traced rep per substrate (the
// ledger), a controller rep where the workload runs without adaptation,
// and single-layer probes. Every popped output is checked against
// PipelineSpec::run_inline of the same input.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// and the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). Exit status 1 when any output was wrong or missing, 2 on
// bad arguments.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "obs/config.hpp"
#include "probes.hpp"
#include "util/json.hpp"

#ifndef GRIDPIPE_BENCH_BUILD_TYPE
#define GRIDPIPE_BENCH_BUILD_TYPE "unknown"
#endif

namespace gb = gridpipe::benchmark;
using namespace gridpipe;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool quick = false;
  std::string out;
  std::string trace_dir;
  std::string git_sha = "unknown";
  std::optional<std::uint64_t> corrupt_item;
};

constexpr rt::RuntimeKind kSubstrates[] = {
    rt::RuntimeKind::kThreads, rt::RuntimeKind::kDist,
    rt::RuntimeKind::kProcess};
/// Set-up and drain are each the median over this many one-item sessions.
constexpr std::size_t kSessionSamples = 21;
constexpr std::size_t kMaxRounds = 60;
/// Inline passes take at least this long in total (over the minimum
/// number of rounds).
constexpr double kInlineSeconds = 0.5;
/// Real seconds between controller epochs in the controller rep of the
/// workloads that otherwise run without adaptation (adapt-loadstep's own
/// epoch: 10 virtual s at time_scale 0.0005).
constexpr double kControlEpochReal = 0.005;
/// Items of the traced rep whose spans go into the Chrome trace file.
constexpr std::uint64_t kExportedItems = 2000;

int usage() {
  std::cerr << "usage: gridpipe_bench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--quick] [--out FILE] "
               "[--trace-dir DIR] [--git-sha SHA] [--corrupt-item K]\n"
               "workloads:";
  for (const std::string& name : gb::workload_names()) std::cerr << ' ' << name;
  std::cerr << '\n';
  return 2;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quick") {
      args.quick = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
      if (!(args.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else if (flag == "--corrupt-item") {
      args.corrupt_item = std::stoull(value);
    } else {
      return false;
    }
  }
  return !args.workload.empty();
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

util::Json context(const Args& args) {
  util::Json ctx = util::Json::object();
  ctx["nproc"] = static_cast<long>(::sysconf(_SC_NPROCESSORS_ONLN));
  ctx["cpu_model"] = cpu_model();
#if defined(__clang__)
  ctx["compiler"] = "clang " __clang_version__;
#elif defined(__GNUC__)
  ctx["compiler"] = "gcc " __VERSION__;
#else
  ctx["compiler"] = "unknown";
#endif
  ctx["build_type"] = GRIDPIPE_BENCH_BUILD_TYPE;
  ctx["git_sha"] = args.git_sha;
  ctx["seed"] = static_cast<std::uint64_t>(args.seed);
  return ctx;
}

/// Items attempted and failed on one substrate, plus what threw.
struct Check {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void add(const gb::Rep& rep) {
    attempted += rep.attempted;
    failed += rep.failed;
    if (!rep.error.empty()) errors.push_back(rep.error);
  }
};

/// Means per delivered item of the traced rep, in wall microseconds.
struct Ledger {
  double admit_wait_us = 0.0;
  double stage_us = 0.0;
  double transit_us = 0.0;
  double reorder_wait_us = 0.0;
};

/// Splits each item's external latency with the tracer's spans:
/// admit-wait = external − kItem − kWait, stage = Σ kStage,
/// transit = kItem − Σ kStage, reorder-wait = kWait. Spans are virtual
/// seconds; × time_scale makes them wall seconds.
Ledger make_ledger(const gb::Rep& rep,
                   const std::vector<obs::TraceEvent>& events,
                   double time_scale) {
  const std::size_t n = rep.latency_s.size();
  std::vector<double> item(n, std::nan(""));
  std::vector<double> wait(n, 0.0);
  std::vector<double> stage(n, 0.0);
  for (const obs::TraceEvent& e : events) {
    if (e.item >= n) continue;
    if (e.kind == obs::SpanKind::kItem) item[e.item] = e.duration;
    if (e.kind == obs::SpanKind::kWait) wait[e.item] += e.duration;
    if (e.kind == obs::SpanKind::kStage) stage[e.item] += e.duration;
  }
  Ledger sum;  // in seconds until the final scaling
  std::size_t counted = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::isnan(rep.latency_s[i]) || std::isnan(item[i])) continue;
    const double it = item[i] * time_scale;
    const double wt = wait[i] * time_scale;
    const double st = stage[i] * time_scale;
    sum.admit_wait_us += rep.latency_s[i] - it - wt;
    sum.stage_us += st;
    sum.transit_us += it - st;
    sum.reorder_wait_us += wt;
    ++counted;
  }
  if (counted == 0) {
    const double nan = std::nan("");
    return {nan, nan, nan, nan};
  }
  const double scale = 1e6 / static_cast<double>(counted);
  return {sum.admit_wait_us * scale, sum.stage_us * scale,
          sum.transit_us * scale, sum.reorder_wait_us * scale};
}

struct SubstrateRun {
  rt::RuntimeKind kind{};
  std::string name;
  std::unique_ptr<rt::Runtime> runtime;  ///< the workload's own options
  Check check;
  std::vector<double> open_s;    ///< make_runtime()+open()
  std::vector<double> report_s;  ///< close()→report() of a one-item session
  std::vector<gb::Rep> reps;     ///< timed
  // --trace 1 only:
  double traced_items_per_s = 0.0;
  Ledger ledger;
  std::vector<control::EpochRecord> epochs;  ///< controller timeline
  std::vector<double> epochs_per_rep;
};

/// One one-item session: make_runtime()+open() is a set-up sample, and
/// close()→report() after the item was popped is a drain sample — what
/// every batch Runtime::run() pays at its end. Adaptation is off here: an
/// epoch timer would end the drain at whatever phase the close happened
/// to land on, making the sample bimodal.
void measure_session(const gb::Workload& w, const gb::Inputs& inputs,
                     std::uint64_t expected, SubstrateRun& run) {
  ++run.check.attempted;
  try {
    rt::RuntimeOptions options = w.options;
    options.adapt.epoch = 0.0;
    const auto t0 = gb::Clock::now();
    auto runtime = rt::make_runtime(run.kind, w.grid, w.spec, options);
    auto session = runtime->open();
    run.open_s.push_back(gb::seconds_between(t0, gb::Clock::now()));
    session->push(inputs.make(0));
    std::optional<std::any> out;
    const auto start = gb::Clock::now();
    while (!(out = session->try_pop())) {
      if (gb::seconds_between(start, gb::Clock::now()) > 30.0) {
        throw std::runtime_error("one-item session: no output for 30 s");
      }
      std::this_thread::sleep_for(std::chrono::duration<double>(gb::kPollSleep));
    }
    if (gb::digest(*out) != expected) ++run.check.failed;
    const auto t1 = gb::Clock::now();
    session->close();
    session->report();
    run.report_s.push_back(gb::seconds_between(t1, gb::Clock::now()));
  } catch (const std::exception& e) {
    ++run.check.failed;
    run.check.errors.push_back(std::string("one-item session: ") + e.what());
  }
}

/// The oracle doubles as the single-threaded baseline: each pass builds
/// every input, run_inline()s it and digests the output — what the
/// generator and checker do around each session item, minus the runtime.
class Oracle {
 public:
  Oracle(const gb::Workload& w, const gb::Inputs& inputs)
      : w_(w), inputs_(inputs), expected_(w.items) {
    pass(true);
  }

  /// Digests of the oracle's outputs, by sequence number.
  const std::vector<std::uint64_t>& expected() const { return expected_; }

  /// Timed passes until `seconds` have gone by (at least one).
  void run_for(double seconds) {
    const auto start = gb::Clock::now();
    do {
      pass(false);
    } while (gb::seconds_between(start, gb::Clock::now()) < seconds);
  }

  double items_per_s() const { return gb::median(rates_); }

 private:
  void pass(bool first) {
    const auto t0 = gb::Clock::now();
    for (std::size_t i = 0; i < w_.items; ++i) {
      const std::uint64_t d = gb::digest(w_.oracle.run_inline(inputs_.make(i)));
      if (first) {
        expected_[i] = d;
      } else if (expected_[i] != d) {
        throw std::logic_error("run_inline is not deterministic");
      }
    }
    rates_.push_back(static_cast<double>(w_.items) /
                     gb::seconds_between(t0, gb::Clock::now()));
  }

  const gb::Workload& w_;
  const gb::Inputs& inputs_;
  std::vector<std::uint64_t> expected_;
  std::vector<double> rates_;
};

void write_chrome_trace(const obs::Tracer& tracer, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  tracer.write_chrome_trace(out);
}

/// --trace 1: one traced rep (the ledger and the tracing overhead) and,
/// where the timed reps ran without adaptation, one controller rep.
void traced_reps(const gb::Workload& w,
                 const gb::Inputs& inputs,
                 const std::vector<std::uint64_t>& expected, const Args& args,
                 SubstrateRun& run) {
  {
    rt::RuntimeOptions options = w.options;
    options.obs = obs::Config::full();
    auto runtime = rt::make_runtime(run.kind, w.grid, w.spec, options);
    const gb::Rep rep = gb::run_rep(*runtime, w, inputs, expected, w.items);
    run.check.add(rep);
    run.traced_items_per_s = rep.items_per_s;
    std::vector<obs::TraceEvent> events = options.obs.tracer->events();
    run.ledger = make_ledger(rep, events, w.options.time_scale);
    if (!args.trace_dir.empty()) {
      // The whole rep would make a file of tens of MB per substrate; the
      // first items show every span kind just as well.
      obs::Tracer exported;
      for (obs::TraceEvent& e : events) {
        if (e.item == obs::kNoItem || e.item < kExportedItems) {
          exported.record(std::move(e));
        }
      }
      write_chrome_trace(exported, args.trace_dir + "/" + w.name + "." +
                                       run.name + ".trace.json");
    }
  }
  if (!w.adaptive) {
    rt::RuntimeOptions options = w.options;
    options.adapt.epoch = kControlEpochReal / w.options.time_scale;
    options.adapt.trigger = control::AdaptationTrigger::kEveryEpoch;
    options.adapt.mapper = control::MapperKind::kAuto;
    auto runtime = rt::make_runtime(run.kind, w.grid, w.spec, options);
    gb::Rep rep = gb::run_rep(*runtime, w, inputs, expected, w.items);
    run.check.add(rep);
    run.epochs_per_rep.push_back(static_cast<double>(rep.epochs.size()));
    run.epochs = std::move(rep.epochs);
  }
}

void add_control(const SubstrateRun& run, std::vector<gb::Measured>& out) {
  double total = 0.0;
  double max = 0.0;
  double map = 0.0;
  std::size_t decided = 0;
  std::size_t remapped = 0;
  for (const control::EpochRecord& e : run.epochs) {
    total += e.phases.total();
    max = std::max(max, e.phases.total());
    map += e.phases.map;
    decided += e.decided;
    remapped += e.remapped;
  }
  const double n = std::max<double>(1.0, static_cast<double>(run.epochs.size()));
  const std::string& s = run.name;
  out.push_back({s + ".control.epochs", gb::median(run.epochs_per_rep), "count"});
  out.push_back({s + ".control.epoch_ms", total / n * 1e3, "ms"});
  out.push_back({s + ".control.epoch_max_ms", max * 1e3, "ms"});
  out.push_back({s + ".control.map_ms", map / n * 1e3, "ms"});
  out.push_back({s + ".control.remaps_per_decision",
                 decided ? static_cast<double>(remapped) /
                               static_cast<double>(decided)
                         : 0.0,
                 "ratio"});
}

/// Median of `field` over the reps that did not throw.
double rep_median(const std::vector<gb::Rep>& reps, double gb::Rep::*field) {
  std::vector<double> values;
  for (const gb::Rep& rep : reps) {
    if (rep.error.empty()) values.push_back(rep.*field);
  }
  return gb::median(std::move(values));
}

/// Median of the windows' p99 latency over the reps that did not throw.
double window_p99_median(const std::vector<gb::Rep>& reps) {
  std::vector<double> values;
  for (const gb::Rep& rep : reps) {
    if (rep.error.empty()) {
      values.insert(values.end(), rep.window_p99_ms.begin(), rep.window_p99_ms.end());
    }
  }
  return gb::median(std::move(values));
}

/// The substrate's end-to-end metrics and its rt, ledger, obs and control
/// layer metrics.
void add_substrate_metrics(const SubstrateRun& run,
                           std::vector<gb::Measured>& e2e,
                           std::vector<gb::Measured>& layer) {
  const std::string& s = run.name;
  const double ips = rep_median(run.reps, &gb::Rep::items_per_s);
  e2e.push_back({s + ".items_per_s", ips, "1/s"});
  e2e.push_back({s + ".p50_ms", rep_median(run.reps, &gb::Rep::p50_ms), "ms"});
  e2e.push_back({s + ".p99_ms", window_p99_median(run.reps), "ms"});

  std::uint64_t pops = 0;
  std::uint64_t empty = 0;
  for (const gb::Rep& r : run.reps) {
    pops += r.pops;
    empty += r.empty_pops;
  }
  layer.push_back({s + ".rt.push_us", rep_median(run.reps, &gb::Rep::push_us), "us"});
  layer.push_back({s + ".rt.pop_us", rep_median(run.reps, &gb::Rep::pop_us), "us"});
  layer.push_back({s + ".rt.empty_pop_frac",
                   pops ? static_cast<double>(empty) / static_cast<double>(pops) : 0.0,
                   "ratio"});
  layer.push_back({s + ".rt.open_ms", gb::median(run.open_s) * 1e3, "ms"});
  layer.push_back({s + ".rt.report_ms", gb::median(run.report_s) * 1e3, "ms"});
  layer.push_back({s + ".ledger.admit_wait_us", run.ledger.admit_wait_us, "us"});
  layer.push_back({s + ".ledger.stage_us", run.ledger.stage_us, "us"});
  layer.push_back({s + ".ledger.transit_us", run.ledger.transit_us, "us"});
  layer.push_back({s + ".ledger.reorder_wait_us", run.ledger.reorder_wait_us, "us"});
  layer.push_back({s + ".obs.traced_overhead_pct",
                   (ips - run.traced_items_per_s) / ips * 100.0, "%"});
  add_control(run, layer);
}

/// Items checked and failed, timed reps, and what threw.
util::Json check_json(const SubstrateRun& run) {
  util::Json check = util::Json::object();
  check["attempted"] = run.check.attempted;
  check["failed"] = run.check.failed;
  check["reps"] = static_cast<std::uint64_t>(run.reps.size());
  util::Json errors = util::Json::array();
  for (const std::string& e : run.check.errors) errors.push_back(e);
  check["errors"] = std::move(errors);
  return check;
}

double maxrss_mb(int who) {
  rusage usage{};
  ::getrusage(who, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

util::Json metrics_json(const std::vector<gb::Measured>& metrics) {
  util::Json doc = util::Json::object();
  for (const gb::Measured& m : metrics) {
    util::Json entry = util::Json::object();
    entry["value"] = m.value;
    entry["unit"] = m.unit;
    doc[m.name] = std::move(entry);
  }
  return doc;
}

int run(const Args& args) {
  gb::Workload w;
  try {
    w = gb::make_workload(args.workload,
                          {args.seed, args.quick, args.corrupt_item});
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << '\n';
    return usage();
  }
  const gb::Inputs inputs(args.seed, w.payload_bytes);
  // Inline passes run in slices: one now, one after every timed round.
  // On a shared host, outside load comes in bursts of seconds that can
  // slow a single-threaded loop by a third; slices spread over the run
  // keep the median clear of one burst.
  Oracle oracle(w, inputs);
  const double inline_slice =
      (args.quick ? 0.05 : kInlineSeconds) / static_cast<double>(w.min_reps + 1);
  oracle.run_for(inline_slice);
  const std::vector<std::uint64_t>& expected = oracle.expected();

  std::vector<SubstrateRun> runs;
  for (rt::RuntimeKind kind : kSubstrates) {
    SubstrateRun& run = runs.emplace_back();
    run.kind = kind;
    run.name = rt::to_string(kind);
    run.runtime = rt::make_runtime(kind, w.grid, w.spec, w.options);
  }

  // Every phase visits the substrates round-robin, one session at a time
  // (each reported and destroyed before the next opens), so a burst of
  // outside load spreads over all of them instead of skewing one.
  const std::size_t samples = args.quick ? 3 : kSessionSamples;
  for (std::size_t i = 0; i < samples; ++i) {
    for (SubstrateRun& run : runs) measure_session(w, inputs, expected[0], run);
  }
  // A short untimed rep per substrate: the first sessions after start-up
  // run measurably slower than the rest. Quick runs do not time anything
  // that matters, and skip it.
  if (!args.quick) {
    for (SubstrateRun& run : runs) {
      run.check.add(gb::run_rep(*run.runtime, w, inputs, expected, w.items / 10));
    }
  }
  // Timed rounds of one rep per substrate: at least the workload's
  // minimum, then more while the next round still fits in --seconds.
  const auto start = gb::Clock::now();
  double last_round = 0.0;
  for (std::size_t round = 0; round < kMaxRounds; ++round) {
    const double spent = gb::seconds_between(start, gb::Clock::now());
    if (round >= w.min_reps && (args.quick || spent + last_round > args.seconds)) {
      break;
    }
    const auto round_start = gb::Clock::now();
    for (SubstrateRun& run : runs) {
      gb::Rep rep = gb::run_rep(*run.runtime, w, inputs, expected, w.items);
      run.check.add(rep);
      rep.latency_s = {};
      if (w.adaptive) {
        run.epochs_per_rep.push_back(static_cast<double>(rep.epochs.size()));
        run.epochs.insert(run.epochs.end(), rep.epochs.begin(), rep.epochs.end());
      }
      run.reps.push_back(std::move(rep));
    }
    oracle.run_for(inline_slice);
    last_round = gb::seconds_between(round_start, gb::Clock::now());
  }
  if (args.trace) {
    for (SubstrateRun& run : runs) traced_reps(w, inputs, expected, args, run);
  }

  // ---------------------------------------------------------- metrics
  std::vector<gb::Measured> e2e;
  std::vector<gb::Measured> layer;
  double setup_s = 0.0;
  double drain_s = 0.0;
  double late_ms = 0.0;
  Check total;
  util::Json checks = util::Json::object();
  for (const SubstrateRun& run : runs) {
    add_substrate_metrics(run, e2e, layer);
    setup_s += gb::median(run.open_s);
    drain_s += gb::median(run.report_s);
    late_ms = std::max(late_ms, rep_median(run.reps, &gb::Rep::late_p99_ms));
    checks[run.name] = check_json(run);
    total.attempted += run.check.attempted;
    total.failed += run.check.failed;
    total.errors.insert(total.errors.end(), run.check.errors.begin(),
                        run.check.errors.end());
  }
  e2e.push_back({"inline.items_per_s", oracle.items_per_s(), "1/s"});
  e2e.push_back({"setup_s", setup_s, "s"});
  e2e.push_back({"drain_s", drain_s, "s"});

  if (args.trace) {
    for (gb::Measured& m : gb::run_probes(w, inputs, args.quick)) {
      layer.push_back(std::move(m));
    }
    layer.push_back({"gen.late_p99_ms", late_ms, "ms"});
    layer.push_back({"mem.parent_maxrss_mb", maxrss_mb(RUSAGE_SELF), "MB"});
    layer.push_back({"mem.children_maxrss_mb", maxrss_mb(RUSAGE_CHILDREN), "MB"});
  }

  const bool correct = total.failed == 0 && total.errors.empty();
  const double fail_frac =
      static_cast<double>(total.failed) /
      static_cast<double>(std::max<std::uint64_t>(1, total.attempted));

  // ----------------------------------------------------------- output
  const util::Json ctx = context(args);
  std::cout << "workload " << w.name << "  seed " << args.seed << "  seconds "
            << args.seconds << "  trace " << args.trace << "\ncontext  "
            << ctx.dump() << "\n";
  const auto print = [](const std::vector<gb::Measured>& list) {
    for (const gb::Measured& m : list) {
      std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  };
  print(e2e);
  if (args.trace) print(layer);
  for (const SubstrateRun& run : runs) {
    std::cout << "check    " << run.name << ": " << run.reps.size()
              << " timed reps, " << run.check.attempted << " items, "
              << run.check.failed << " failed\n";
    for (const std::string& e : run.check.errors) {
      std::cout << "error    " << run.name << ": " << e << "\n";
    }
  }
  std::cout << "fail_frac " << fail_frac << " (" << total.failed << " of "
            << total.attempted << ")\n";

  if (!args.out.empty()) {
    util::Json doc = util::Json::object();
    doc["workload"] = w.name;
    doc["context"] = ctx;
    doc["seconds"] = args.seconds;
    doc["trace"] = args.trace;
    doc["quick"] = args.quick;
    doc["correct"] = correct;
    doc["attempted"] = total.attempted;
    doc["failed"] = total.failed;
    doc["fail_frac"] = fail_frac;
    doc["checks"] = std::move(checks);
    doc["end_to_end"] = metrics_json(e2e);
    if (args.trace) doc["per_layer"] = metrics_json(layer);
    std::ofstream out(args.out);
    if (!out) {
      std::cerr << "cannot write " << args.out << "\n";
      return 1;
    }
    out << doc.dump(2) << "\n";
  }

  util::Json line = util::Json::object();
  line["correct"] = correct;
  line["attempted"] = total.attempted;
  line["failed"] = total.failed;
  line["metrics"] = metrics_json(args.trace ? layer : e2e);
  std::cout << line.dump() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    if (!parse_args(argc, argv, args)) return usage();
  } catch (const std::exception&) {
    return usage();
  }
  // Backstop for a wedged session: the run is killed rather than hung.
  ::alarm(static_cast<unsigned>(std::max(170.0, 4.0 * args.seconds + 60.0)));
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "gridpipe_bench: " << e.what() << "\n";
    return 1;
  }
}
