// Shared plumbing for the three workloads: options, metric maps, the rep loop and the
// end-to-end summary every workload reports.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "tbf/scenario/results.h"
#include "tbf/stats/quantile_sketch.h"
#include "tracer.h"

namespace perfbench {

namespace scenario = tbf::scenario;
namespace stats = tbf::stats;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;       // Tiny inputs, minimum reps: the benchmark's own test mode.
  int threads = 1;          // Host CPUs (nproc); every pool is sized from this.
  std::string work_dir = ".";  // Relative directory for the campaign socket.
};

struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

double Median(std::vector<double> values);
// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> values, double q);

// One repetition's end-to-end observations.
struct RepStats {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double sim_cell_s = 0.0;  // Simulated seconds (warmup + duration) x cells.
  double frames = 0.0;      // MAC exchanges simulated.
  double jobs = 0.0;        // Operations completed (jobs, campuses).
};

// Modelled outputs of one rep: identical on every rep of a run, and part of the digest.
struct ModelStats {
  double goodput_mbps = 0.0;
  stats::QuantileSketch task_latency;
  double tbr_goodput = 0.0;   // Goodput of TBR jobs ...
  double fifo_goodput = 0.0;  // ... and of the FIFO jobs matched to them.
};

struct Outcome {
  MetricMap e2e;
  MetricMap layer;
  uint32_t digest = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, int> threads;  // Pool sizes the workload used, by layer.
  int reps = 0;
  int traced_reps = 0;
};

// Counts one operation's outcome; `what` names the failed check.
void Check(Outcome* out, bool ok, const std::string& what);

// Runs `rep(index, traced)` until `options.seconds` of wall time have passed since the
// loop began and a minimum count has run (smoke mode: the minimum count only). A
// traced run alternates untraced and traced reps, so the tracing overhead is read
// under the same host conditions.
void ForEachRep(const Options& options, const std::function<void(int, bool)>& rep);

// Fills the end-to-end metrics every workload shares from the untraced reps.
// `job_ms` holds per-operation host times where the workload defines them.
void SummarizeEndToEnd(const std::vector<RepStats>& reps, const ModelStats& model,
                       const std::vector<double>& job_ms, Outcome* out);

// Tracing overhead: median traced rep wall over median untraced rep wall, minus one.
void SummarizeTracing(const std::vector<RepStats>& untraced,
                      const std::vector<RepStats>& traced, const Tracer& tracer,
                      Outcome* out);

// Every per-layer metric the benchmark defines, zero-valued; each workload overwrites
// the ones its layers produce (a zero means the workload does not drive that layer).
MetricMap ZeroLayerMetrics();

// Deterministic sub-seed derivation (SplitMix64 finalizer).
uint64_t Mix(uint64_t seed, uint64_t salt);

// Digest helper: CRC-32 over the concatenated EncodeResults bytes.
uint32_t ResultsDigest(const std::vector<const scenario::Results*>& results);

// Process high-water RSS in MB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
