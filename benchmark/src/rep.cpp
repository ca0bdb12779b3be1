#include <algorithm>
#include <cmath>
#include <exception>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "util/stats.hpp"

namespace gridpipe::benchmark {

namespace {

/// A session that delivers nothing for this long is treated as failed.
constexpr double kStallSeconds = 30.0;

}  // namespace

Rep run_rep(rt::Runtime& runtime, const Workload& w, const Inputs& inputs,
            const std::vector<std::uint64_t>& expected, std::size_t n) {
  Rep rep;
  rep.attempted = n;
  rep.latency_s.assign(n, std::nan(""));
  std::vector<double> push_at(n, 0.0);
  std::vector<double> due_at(n, 0.0);
  std::vector<double> pop_at(n, 0.0);
  std::vector<double> late;
  late.reserve(n);
  double push_total = 0.0;
  double pop_total = 0.0;
  std::size_t pushed = 0;
  std::size_t popped = 0;

  try {
    auto session = runtime.open();
    const auto t0 = Clock::now();
    const auto since = [t0](Clock::time_point t) {
      return seconds_between(t0, t);
    };
    auto last_progress = t0;
    bool progress = false;
    // Pushes every item that is due: the open-loop schedule, or (closed
    // loop) one per free slot, its due time the pop that freed the slot.
    const auto push_due = [&] {
      double now = since(Clock::now());
      while (pushed < n) {
        double due = 0.0;
        if (w.loop == Loop::kOpen) {
          due = static_cast<double>(pushed) / w.rate;
          if (due > now) break;
        } else {
          if (pushed - popped >= w.outstanding) break;
          if (pushed >= w.outstanding) due = pop_at[pushed - w.outstanding];
        }
        std::any item = inputs.make(pushed);
        const auto a = Clock::now();
        session->push(std::move(item));
        const auto b = Clock::now();
        push_total += seconds_between(a, b);
        push_at[pushed] = since(a);
        due_at[pushed] = due;
        late.push_back(push_at[pushed] - due);
        ++pushed;
        progress = true;
        now = since(b);
      }
    };
    while (popped < n) {
      progress = false;
      push_due();
      for (;;) {
        const auto a = Clock::now();
        std::optional<std::any> out = session->try_pop();
        const auto b = Clock::now();
        ++rep.pops;
        if (!out) {
          ++rep.empty_pops;
          break;
        }
        pop_total += seconds_between(a, b);
        const double at = since(b);
        pop_at[popped] = at;
        if (digest(*out) == expected[popped]) {
          const double from =
              w.loop == Loop::kOpen ? due_at[popped] : push_at[popped];
          rep.latency_s[popped] = at - from;
          ++rep.delivered;
        }
        ++popped;
        progress = true;
        // Refill at once, as a client would on its reply, instead of
        // after the whole batch of ready outputs was drained.
        push_due();
      }
      const auto idle_from = Clock::now();
      if (progress) {
        last_progress = idle_from;
        continue;
      }
      if (seconds_between(last_progress, idle_from) > kStallSeconds) {
        throw std::runtime_error("no output for 30 s");
      }
      double wait = kPollSleep;
      if (w.loop == Loop::kOpen && pushed < n) {
        wait = std::min(wait,
                        static_cast<double>(pushed) / w.rate - since(idle_from));
      }
      if (wait > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
    }
    rep.items_per_s = static_cast<double>(popped) / (pop_at[n - 1] - push_at[0]);
    session->close();
    core::RunReport report = session->report();
    rep.epochs = std::move(report.epochs);
  } catch (const std::exception& e) {
    rep.error = e.what();
    rep.items_per_s = 0.0;
  }
  rep.failed = n - rep.delivered;

  std::vector<double> lat;
  lat.reserve(rep.delivered);
  for (double s : rep.latency_s) {
    if (!std::isnan(s)) lat.push_back(s * 1e3);
  }
  rep.p50_ms = util::percentile(std::move(lat), 50.0);
  const std::size_t windows = std::max<std::size_t>(1, n / kWindowItems);
  for (std::size_t k = 0; k < windows; ++k) {
    std::vector<double> window;
    for (std::size_t i = k * n / windows; i < (k + 1) * n / windows; ++i) {
      if (!std::isnan(rep.latency_s[i])) window.push_back(rep.latency_s[i] * 1e3);
    }
    if (!window.empty()) {
      rep.window_p99_ms.push_back(util::percentile(std::move(window), 99.0));
    }
  }
  for (double& s : late) s *= 1e3;
  rep.late_p99_ms = util::percentile(std::move(late), 99.0);
  if (pushed) rep.push_us = push_total / static_cast<double>(pushed) * 1e6;
  if (popped) rep.pop_us = pop_total / static_cast<double>(popped) * 1e6;
  return rep;
}

}  // namespace gridpipe::benchmark
