// Shared pieces of the benchmark binary: options, the run report, sample
// statistics, stage timing with trace spans, and work-counter snapshots.
//
// A run is either untraced (--trace 0: end-to-end metrics) or traced
// (--trace 1: per-layer metrics). Both modes run the same workload code and
// the same output checks. Every call into the library that a metric
// describes goes through `timed`, which takes its wall and processor time
// and, when the trace log is on, records a span for the Chrome-trace file.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "sens/support/parallel.hpp"
#include "sens/support/timer.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned threads = 0;      ///< pool size, 0 = one per core
  bool small = false;        ///< self-test sizes and a fixed amount of work
  std::string trace_file;    ///< Chrome-trace output of a traced run
};

/// Deterministic work counts of a run, printed by --small runs so the
/// self-test can compare them across thread counts, repeats and seeds.
using Counts = std::map<std::string, std::uint64_t>;

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void count(const std::string& name, std::uint64_t value) { counts_[name] += value; }

  /// One attempted operation (a construction, an answer, a route, an
  /// event, a check); `ok == false` counts it as failed and logs `what`.
  void attempt(bool ok, const std::string& what = "");
  void attempts(std::uint64_t n) { attempted_ += n; }
  /// One failure among operations already counted by attempts().
  void fail(const std::string& what);

  /// A human-readable line (printed before the result line).
  void note(const std::string& line);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

  /// The machine-readable result line: "@result {json}".
  void print_result() const;
  /// The deterministic counts line: "@counts {json}".
  void print_counts() const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  Counts counts_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t failures_logged_ = 0;
};

/// A number for a report line, `digits` significant digits.
[[nodiscard]] std::string fmt(double v, int digits = 4);

/// "p50 X ms, p90 Y ms over N samples" of durations in seconds.
[[nodiscard]] std::string latency_note(const std::vector<double>& secs);

/// Linear-interpolation quantile (q in [0, 1]) of unsorted samples.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }
[[nodiscard]] double mean(const std::vector<double>& v);

/// log-log slope of a stage cost between a quarter-size and a full-size
/// repeat: ln(t_full / t_quarter) / ln(n_full / n_quarter).
[[nodiscard]] double loglog_slope(double t_quarter, double n_quarter, double t_full,
                                  double n_full);

/// Processor seconds of the whole process, all threads, so far
/// (CLOCK_PROCESS_CPUTIME_ID). On a paravirtualized guest the kernel leaves
/// out the time the host ran something else on our virtual CPUs (steal), so
/// this clock measures the program where a wall clock also measures the
/// neighbours.
[[nodiscard]] double cpu_now_s();

/// Wall and processor seconds of one call.
struct Took {
  double wall = 0.0;
  double cpu = 0.0;
  Took& operator+=(const Took& o) {
    wall += o.wall;
    cpu += o.cpu;
    return *this;
  }
};

/// Times one call into the library, with a trace span under `name`
/// whenever the trace log is enabled.
template <typename F>
auto timed(const char* name, Took& took, F&& f) {
  const sens::ScopedSpan span(name);
  const std::uint64_t t0 = sens::monotonic_ns();
  const double c0 = cpu_now_s();
  auto stop = [&] {
    took.cpu = cpu_now_s() - c0;
    took.wall = static_cast<double>(sens::monotonic_ns() - t0) * 1e-9;
  };
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    stop();
  } else {
    auto out = f();
    stop();
    return out;
  }
}

/// Work-counter registry totals by counter name (obs::counter_name), so a
/// counter the library drops later reads as 0 instead of breaking the build.
[[nodiscard]] Counts counter_snapshot();
[[nodiscard]] std::uint64_t counter_delta(const Counts& before, const Counts& after,
                                          const std::string& name);

/// Pool helper tickets claimed per parallel job between two pool_stats().
[[nodiscard]] double claims_per_job(const sens::PoolStats& before, const sens::PoolStats& after);

/// Peak resident set size of the process so far (getrusage).
[[nodiscard]] double peak_rss_mib();

/// Turn span recording on (keeping events for the Chrome trace) or off.
void set_tracing(bool on);
void write_trace(const std::string& path);

/// Mixes a seed with stream tags into a new 64-bit seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag);

/// Loop control of a measured phase: a time budget, at least `min_iters`
/// iterations, or exactly `fixed` iterations when fixed > 0.
struct Budget {
  double seconds;
  std::size_t min_iters;
  std::size_t fixed = 0;
  [[nodiscard]] bool more(std::size_t done, double measured_s) const {
    if (fixed > 0) return done < fixed;
    return done < min_iters || measured_s < seconds;
  }
};

// --- the workloads (wl_*.cpp) ---
void run_build(const Options& opt, Report& rep);
void run_serve(const Options& opt, Report& rep);
void run_route(const Options& opt, Report& rep);
void run_churn(const Options& opt, Report& rep);

}  // namespace perfbench
