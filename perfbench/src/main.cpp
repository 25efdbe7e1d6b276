// perfbench: runs one benchmark workload through dlb's public entry
// points and prints one result line, "PERFBENCH_RESULT {json}", holding
// the metrics, the correctness checks, the observations that
// perfbench/run.py compares against perfbench/expected.json, and the
// host fingerprint the binary can see.
//
//   perfbench --workload=NAME --seed=N --seconds=S [--trace=0|1]
//             [--work-dir=DIR]
//
// Workloads: table1, cycle-1m, hypercube-reach, service-churn.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.hpp"
#include "util/simd.hpp"

namespace {

using namespace perfbench;

bool parse_flag(const char* arg, const char* name, std::string& out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  out = arg + len + 1;
  return true;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload=table1|cycle-1m|hypercube-reach|"
               "service-churn --seed=N --seconds=S [--trace=0|1] "
               "[--work-dir=DIR]\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (parse_flag(argv[i], "--workload", v)) {
      opt.workload = v;
    } else if (parse_flag(argv[i], "--seed", v)) {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (parse_flag(argv[i], "--seconds", v)) {
      opt.seconds = std::atof(v.c_str());
    } else if (parse_flag(argv[i], "--trace", v)) {
      opt.trace = v == "1";
    } else if (parse_flag(argv[i], "--work-dir", v)) {
      opt.work_dir = v;
    } else {
      usage();
    }
  }
  if (opt.workload.empty() || opt.seconds <= 0.0) usage();
  opt.sweep_threads = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  opt.pool_threads = std::max(1, opt.sweep_threads / 2);
  return opt;
}

/// What the binary itself knows about the host and the build.
void fingerprint(Report& rep, const Options& opt) {
  __builtin_cpu_init();
  const char* no_simd = std::getenv("DLB_NO_SIMD");
  rep.note("host.nproc", std::to_string(std::thread::hardware_concurrency()));
  rep.note("host.threads_used",
           std::to_string(opt.workload == "table1" ? opt.sweep_threads : opt.pool_threads));
  rep.note("host.cpu_avx2", __builtin_cpu_supports("avx2") ? "yes" : "no");
  rep.note("host.cpu_avx512f", __builtin_cpu_supports("avx512f") ? "yes" : "no");
  rep.note("build.simd_compiled", dlb::simd::compiled() ? "avx2" : "scalar");
  rep.note("build.simd_enabled", dlb::simd::enabled() ? "yes" : "no");
  rep.note("env.DLB_NO_SIMD", no_simd ? no_simd : "");
  rep.note("env.DLB_TRACE", std::getenv("DLB_TRACE") ? std::getenv("DLB_TRACE") : "");
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  rep.note("host.llc_kib", llc > 0 ? std::to_string(llc >> 10) : "unknown");
  rep.note("build.compiler", __VERSION__);
  rep.note("build.type", PERFBENCH_BUILD_TYPE);
  rep.note("build.flags", PERFBENCH_CXX_FLAGS);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  Report rep;
  fingerprint(rep, opt);
  Spans::instance().enable(opt.trace);
  try {
    std::filesystem::create_directories(opt.work_dir);
    if (opt.workload == "table1") {
      run_table1(opt, rep);
    } else if (opt.workload == "cycle-1m") {
      run_cycle_1m(opt, rep);
    } else if (opt.workload == "hypercube-reach") {
      run_hypercube_reach(opt, rep);
    } else if (opt.workload == "service-churn") {
      run_service_churn(opt, rep);
    } else {
      usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  if (opt.trace) {
    const std::string path = opt.work_dir + "/trace-" + opt.workload + ".json";
    rep.check(Spans::instance().write(path), "span file written");
    rep.note("trace.file", path);
    rep.note("trace.spans", std::to_string(Spans::instance().size()));
  }
  std::printf("PERFBENCH_RESULT %s\n", rep.json().c_str());
  return 0;
}
