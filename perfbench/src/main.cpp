// perfbench_e2e: runs one workload for a fixed time budget and prints one JSON record
// (provenance, results digest, output-check tally, end-to-end metrics and, in a traced
// run, per-layer metrics) as the last line of stdout. perfbench/run.py builds this
// binary and turns the record into the benchmark's result line.
//
//   perfbench_e2e --workload cell_sweep|campus_bursty|campaign_small_jobs
//                 --seed N [--seconds S] [--trace 0|1] [--smoke] [--run-index K]
//                 [--work-dir DIR] [--trace-out FILE]
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "build_info.h"  // Generated by CMakeLists.txt.
#include "harness.h"
#include "tracer.h"
#include "workloads.h"


namespace perfbench {
namespace {

// Scenario teardown frees a multi-megabyte working set at the top of the heap; with
// glibc's default trim policy the next rep page-faults it all back in. Keep the peak
// resident, as bench/bench_common.h does, so reps measure simulation, not the kernel.
constexpr char kAllocatorPolicy[] =
    "glibc mallopt(M_TRIM_THRESHOLD, -1): freed heap kept resident";

int HostCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonMetrics(const MetricMap& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) {
      out += ",";
    }
    out += JsonString(name) + ":{\"value\":" + JsonNumber(m.value) +
           ",\"unit\":" + JsonString(m.unit) + "}";
  }
  return out + "}";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_e2e: %s\nusage: perfbench_e2e --workload "
               "cell_sweep|campus_bursty|campaign_small_jobs --seed N [--seconds S] "
               "[--trace 0|1] [--smoke] [--run-index K] [--work-dir DIR] "
               "[--trace-out FILE]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  mallopt(M_TRIM_THRESHOLD, -1);

  Options options;
  int run_index = 0;
  std::string trace_out;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      return Usage(("missing value for " + arg).c_str());
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.seconds > 0.0)) {
        return Usage("--seconds must be a positive number");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") {
        return Usage("--trace must be 0 or 1");
      }
      options.trace = value == "1";
    } else if (arg == "--run-index") {
      run_index = std::atoi(value.c_str());
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed) {
    return Usage("--seed N is required");
  }
  options.threads = HostCpus();

  Tracer tracer;
  Outcome out;
  try {
    if (options.workload == "cell_sweep") {
      out = RunCellSweep(options, tracer);
    } else if (options.workload == "campus_bursty") {
      out = RunCampusBursty(options, tracer);
    } else if (options.workload == "campaign_small_jobs") {
      out = RunCampaignSmallJobs(options, tracer);
    } else {
      return Usage(("unknown workload '" + options.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_e2e: %s\n", e.what());
    return 1;
  }
  out.e2e["failed_frac"] = {
      out.attempted > 0 ? static_cast<double>(out.failed) / static_cast<double>(out.attempted)
                        : 1.0,
      "fraction"};

  const std::string run_tag = options.workload + "-s" + std::to_string(options.seed) +
                              "-r" + std::to_string(run_index) +
                              (options.trace ? "-traced" : "");
  std::string threads = "{";
  for (const auto& [layer, count] : out.threads) {
    if (threads.size() > 1) {
      threads += ",";
    }
    threads += JsonString(layer) + ":" + std::to_string(count);
  }
  threads += "}";
  char digest[16];
  std::snprintf(digest, sizeof(digest), "%08x", out.digest);

  std::string provenance =
      "\"run_tag\":" + JsonString(run_tag) + ",\"workload\":" + JsonString(options.workload) +
      ",\"seed\":" + std::to_string(options.seed) + ",\"run_index\":" +
      std::to_string(run_index) + ",\"trace\":" + (options.trace ? "1" : "0") +
      ",\"smoke\":" + (options.smoke ? "true" : "false") +
      ",\"seconds\":" + JsonNumber(options.seconds) +
      ",\"cmake_build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
      ",\"compiler\":" + JsonString(PERFBENCH_COMPILER) +
      ",\"cxx_flags\":" + JsonString(PERFBENCH_CXX_FLAGS) +
      ",\"nproc\":" + std::to_string(options.threads) + ",\"threads\":" + threads +
      ",\"allocator\":" + JsonString(kAllocatorPolicy);

  if (options.trace && !trace_out.empty()) {
    const std::string header = "{\"record\":\"perfbench-trace\"," + provenance + "}";
    if (!WriteTrace(trace_out, header, tracer.spans())) {
      std::fprintf(stderr, "perfbench_e2e: cannot write %s\n", trace_out.c_str());
      ++out.attempted;
      ++out.failed;
    }
  }

  std::string failures = "[";
  for (const std::string& f : out.failures) {
    if (failures.size() > 1) {
      failures += ",";
    }
    failures += JsonString(f);
  }
  failures += "]";
  std::printf("{\"record\":\"perfbench\",%s,\"reps\":%d,\"traced_reps\":%d,"
              "\"digest\":\"%s\",\"attempted\":%lld,\"failed\":%lld,\"failures\":%s,"
              "\"e2e\":%s,\"per_layer\":%s}\n",
              provenance.c_str(), out.reps, out.traced_reps, digest,
              static_cast<long long>(out.attempted), static_cast<long long>(out.failed),
              failures.c_str(), JsonMetrics(out.e2e).c_str(),
              JsonMetrics(out.layer).c_str());
  return out.failed > 0 ? 1 : 0;
}
