#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <ctime>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>

#include <sys/resource.h>

#include "sens/obs/obs.hpp"

namespace perfbench {

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void Report::metric(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::attempt(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) fail(what);
}

void Report::fail(const std::string& what) {
  ++failed_;
  if (failures_logged_++ < 20) std::cout << "FAILED: " << what << "\n";
}

void Report::note(const std::string& line) { std::cout << line << "\n" << std::flush; }

void Report::print_result() const {
  std::string out = "@result {\"attempted\": " + std::to_string(attempted_) +
                    ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += json_string(name) + ": {\"value\": " + json_number(v.value) +
           ", \"unit\": " + json_string(v.unit) + "}";
  }
  out += "}}";
  std::cout << out << "\n" << std::flush;
}

void Report::print_counts() const {
  std::string out = "@counts {";
  bool first = true;
  for (const auto& [name, v] : counts_) {
    if (!first) out += ", ";
    first = false;
    out += json_string(name) + ": " + std::to_string(v);
  }
  out += "}";
  std::cout << out << "\n" << std::flush;
}

double cpu_now_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string fmt(double v, int digits) {
  std::ostringstream os;
  os.precision(digits);
  os << v;
  return os.str();
}

std::string latency_note(const std::vector<double>& secs) {
  return "p50 " + fmt(quantile(secs, 0.5) * 1e3) + " ms, p90 " + fmt(quantile(secs, 0.9) * 1e3) +
         " ms over " + std::to_string(secs.size()) + " samples";
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double loglog_slope(double t_quarter, double n_quarter, double t_full, double n_full) {
  if (t_quarter <= 0.0 || t_full <= 0.0 || n_quarter <= 0.0 || n_full <= n_quarter) return 0.0;
  return std::log(t_full / t_quarter) / std::log(n_full / n_quarter);
}

Counts counter_snapshot() {
  const sens::obs::CounterSnapshot snap = sens::obs::CounterRegistry::global().snapshot();
  Counts out;
  for (std::size_t i = 0; i < sens::obs::kCounterCount; ++i) {
    out[sens::obs::counter_name(static_cast<sens::obs::Counter>(i))] = snap[i];
  }
  return out;
}

std::uint64_t counter_delta(const Counts& before, const Counts& after, const std::string& name) {
  const auto a = after.find(name);
  if (a == after.end()) return 0;
  const auto b = before.find(name);
  return a->second - (b == before.end() ? 0 : b->second);
}

double claims_per_job(const sens::PoolStats& before, const sens::PoolStats& after) {
  const std::uint64_t jobs = after.jobs - before.jobs;
  if (jobs == 0) return 0.0;
  return static_cast<double>(after.helper_claims - before.helper_claims) /
         static_cast<double>(jobs);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

void set_tracing(bool on) {
  if (on) {
    sens::obs::TraceLog::global().enable(/*keep_events=*/true);
  } else {
    sens::obs::TraceLog::global().disable();
  }
}

void write_trace(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "perfbench: cannot write trace file " << path << "\n";
    return;
  }
  sens::obs::TraceLog::global().write_chrome_trace(out);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (tag + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
