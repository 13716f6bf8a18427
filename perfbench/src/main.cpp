// perfbench: the repository benchmark binary.
//
//   perfbench --workload {build|serve|route|churn} --seed N --seconds S
//             --trace {0|1} [--threads T] [--small] [--trace-file PATH]
//
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs
// (--trace 1) print the per-layer metrics and write a Chrome trace. Every
// run checks its outputs. The last line is "@result {json}"; --small runs a
// fixed amount of work at self-test sizes and also prints "@counts {json}",
// the deterministic work counts. perfbench/run.py builds and drives this
// binary; see perfbench/README.md.
#include <cstdlib>
#include <exception>
#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <iostream>
#include <string>

#include "common.hpp"
#include "sens/support/parallel.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload {build|serve|route|churn} --seed N --seconds S "
               "--trace {0|1} [--threads T] [--small] [--trace-file PATH]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value after " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opt.workload = value();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (arg == "--trace") {
        opt.trace = value() != "0";
      } else if (arg == "--threads") {
        opt.threads = static_cast<unsigned>(std::stoul(value()));
      } else if (arg == "--small") {
        opt.small = true;
      } else if (arg == "--trace-file") {
        opt.trace_file = value();
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (opt.seconds <= 0.0) usage("--seconds must be positive");
#if defined(__GLIBC__)
  // A fixed mmap threshold turns off glibc's adaptive one, whose history
  // (which large blocks were freed first) decides whether freed memory goes
  // back to the system. Peak RSS then tracks live memory and repeats from
  // run to run, and every large allocation pays its first-touch cost.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
  sens::set_thread_count(opt.threads);

  perfbench::Report rep;
  try {
    if (opt.workload == "build") {
      perfbench::run_build(opt, rep);
    } else if (opt.workload == "serve") {
      perfbench::run_serve(opt, rep);
    } else if (opt.workload == "route") {
      perfbench::run_route(opt, rep);
    } else if (opt.workload == "churn") {
      perfbench::run_churn(opt, rep);
    } else {
      usage("unknown workload '" + opt.workload + "'");
    }
  } catch (const std::exception& e) {
    rep.attempt(false, std::string("exception: ") + e.what());
  }
  if (opt.trace && !opt.trace_file.empty()) perfbench::write_trace(opt.trace_file);

  rep.note("attempted " + std::to_string(rep.attempted()) + ", failed " +
           std::to_string(rep.failed()) + ", failed_frac " +
           std::to_string(static_cast<double>(rep.failed()) /
                          static_cast<double>(rep.attempted() == 0 ? 1 : rep.attempted())));
  if (opt.small) rep.print_counts();
  rep.print_result();
  return rep.failed() == 0 ? 0 : 1;
}
