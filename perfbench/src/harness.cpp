#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "tbf/campaign/codec.h"

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

void Check(Outcome* out, bool ok, const std::string& what) {
  ++out->attempted;
  if (!ok) {
    ++out->failed;
    if (out->failures.size() < 20) {
      out->failures.push_back(what);
    }
  }
}

void ForEachRep(const Options& options, const std::function<void(int, bool)>& rep) {
  const int min_reps = options.smoke ? (options.trace ? 2 : 1) : (options.trace ? 6 : 5);
  const int64_t start = NowNs();
  for (int i = 0;; ++i) {
    if (i >= min_reps && (options.smoke || SecondsSince(start) >= options.seconds)) {
      break;
    }
    rep(i, options.trace && i % 2 == 1);
  }
}

void SummarizeEndToEnd(const std::vector<RepStats>& reps, const ModelStats& model,
                       const std::vector<double>& job_ms, Outcome* out) {
  std::vector<double> setup, wall, sim_rate, frame_rate, job_rate;
  for (const RepStats& r : reps) {
    setup.push_back(r.setup_s);
    wall.push_back(r.wall_s);
    sim_rate.push_back(r.sim_cell_s / r.wall_s);
    frame_rate.push_back(r.frames / r.wall_s);
    job_rate.push_back(r.jobs / r.wall_s);
  }
  MetricMap& m = out->e2e;
  m["setup_s"] = {Median(setup), "s"};
  m["wall_s"] = {Median(wall), "s"};
  m["sim_s_per_wall_s"] = {Median(sim_rate), "cell.s/s"};
  m["frames_per_s"] = {Median(frame_rate), "frames/s"};
  m["jobs_per_s"] = {Median(job_rate), "jobs/s"};
  if (!job_ms.empty()) {
    m["job_p50_ms"] = {Percentile(job_ms, 0.50), "ms"};
    m["job_p95_ms"] = {Percentile(job_ms, 0.95), "ms"};
    m["job_samples"] = {static_cast<double>(job_ms.size()), "count"};
  }
  m["peak_rss_mb"] = {PeakRssMb(), "MB"};
  m["sim_goodput_mbps"] = {model.goodput_mbps, "Mbps"};
  m["sim_task_p95_ms"] = {model.task_latency.Quantile(0.95) / 1e6, "ms"};
  if (model.fifo_goodput > 0.0) {
    m["tf_gain"] = {model.tbr_goodput / model.fifo_goodput, "ratio"};
  }
}

void SummarizeTracing(const std::vector<RepStats>& untraced,
                      const std::vector<RepStats>& traced, const Tracer& tracer,
                      Outcome* out) {
  std::vector<double> u, t;
  for (const RepStats& r : untraced) {
    u.push_back(r.wall_s);
  }
  for (const RepStats& r : traced) {
    t.push_back(r.wall_s);
  }
  if (!u.empty() && !t.empty()) {
    out->layer["tracing.overhead_frac"] = {Median(t) / Median(u) - 1.0, "fraction"};
  }
  // Self time per traced rep, so the figures read on the same scale as wall_s.
  const double reps = std::max(1, out->traced_reps);
  for (const auto& [layer, seconds] : SelfSecondsByLayer(tracer.spans())) {
    out->layer[layer + ".self_s"] = {seconds / reps, "s"};
  }
}

MetricMap ZeroLayerMetrics() {
  const std::pair<const char*, const char*> kLayer[] = {
      {"sweep.busy_s", "s"},
      {"sweep.idle_frac", "fraction"},
      {"scenario.build_s", "s"},
      {"scenario.run_s", "s"},
      {"scenario.ns_per_frame.n2", "ns/frame"},
      {"scenario.ns_per_frame.n16", "ns/frame"},
      {"scenario.ns_per_frame.n64", "ns/frame"},
      {"scenario.ns_per_frame.n256", "ns/frame"},
      {"sim.event_slots", "count"},
      {"mac.exchanges", "count"},
      {"mac.collisions", "count"},
      {"mac.useful_ratio", "fraction"},
      {"mac.ifs_updates_per_frame", "count/frame"},
      {"mac.deadline_rescans_per_frame", "count/frame"},
      {"mac.reschedules_skipped_per_frame", "count/frame"},
      {"ap.drops", "count"},
      {"ap.forwarded_uplink", "count"},
      {"core.tbr_cost_ratio", "ratio"},
      {"core.fast_ewma_cost_ratio", "ratio"},
      {"net.tcp_cost_ratio", "ratio"},
      {"net.pool_slots", "count"},
      {"net.tcp_retransmits", "count"},
      {"net.tcp_timeouts", "count"},
      {"stats.metrology_kb", "KB"},
      {"stats.series_windows", "count"},
      {"stats.latency_samples", "count"},
      {"trace.generate_s", "s"},
      {"trace.recover_s", "s"},
      {"shard.windows", "count"},
      {"shard.us_per_window", "us"},
      {"shard.cross_packets", "count"},
      {"shard.backbone_drops", "count"},
      {"shard.threaded_over_serial", "ratio"},
      {"campaign.coordinate_s", "s"},
      {"campaign.serial_s", "s"},
      {"campaign.overhead_ratio", "ratio"},
      {"campaign.encode_job_us", "us"},
      {"campaign.decode_job_us", "us"},
      {"campaign.encode_results_us", "us"},
      {"campaign.decode_results_us", "us"},
      {"campaign.redispatched", "count"},
      {"campaign.rejected_payloads", "count"},
      {"campaign.worker_disconnects", "count"},
      {"campaign.local_runs", "count"},
      {"campaign.archive_kb", "KB"},
      {"bench.self_s", "s"},
      {"sweep.self_s", "s"},
      {"scenario.self_s", "s"},
      {"trace.self_s", "s"},
      {"shard.self_s", "s"},
      {"campaign.self_s", "s"},
      {"tracing.overhead_frac", "fraction"},
  };
  MetricMap m;
  for (const auto& [name, unit] : kLayer) {
    m[name] = {0.0, unit};
  }
  return m;
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint32_t ResultsDigest(const std::vector<const scenario::Results*>& results) {
  std::string all;
  for (const scenario::Results* r : results) {
    all += tbf::campaign::EncodeResults(*r);
  }
  return tbf::campaign::Crc32(all);
}

double PeakRssMb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) {
    return 0.0;
  }
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KB on Linux.
}

}  // namespace perfbench
