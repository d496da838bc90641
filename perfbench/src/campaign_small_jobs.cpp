// campaign_small_jobs: a manifest of a few thousand short single-cell jobs, in the
// style of campaign::MakeSmokeGrid, driven through campaign::Coordinator over a unix
// socket with nproc - 1 in-process workers. Local fallback is off, so every job
// crosses the wire: per-job cost here is JSON framing, hex, CRC, the binary codec,
// the poll loop and the worker's per-job thread, and building many tiny cells costs
// more than simulating them.
//
// Jobs come in matched groups of four (FIFO, TBR, RR, DRR over the same stations,
// flows and seed), so tf_gain compares like with like. Every fifth group runs TCP
// task-sequence downloads, which feed the task-latency meter; the rest run CBR UDP.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "tbf/campaign/codec.h"
#include "tbf/campaign/coordinator.h"
#include "tbf/campaign/manifest.h"
#include "tbf/campaign/worker.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace campaign = tbf::campaign;
namespace phy = tbf::phy;
using scenario::QdiscKind;

constexpr std::array<QdiscKind, 4> kQdiscs = {QdiscKind::kFifo, QdiscKind::kTbr,
                                              QdiscKind::kRoundRobin, QdiscKind::kDrr};
constexpr std::array<phy::WifiRate, 4> kRates = {
    phy::WifiRate::k11Mbps, phy::WifiRate::k1Mbps, phy::WifiRate::k5_5Mbps,
    phy::WifiRate::k2Mbps};

campaign::Manifest BuildManifest(uint64_t seed, bool smoke) {
  const int groups = smoke ? 10 : 600;
  campaign::Manifest manifest;
  manifest.jobs.reserve(static_cast<size_t>(groups) * kQdiscs.size());
  for (int g = 0; g < groups; ++g) {
    tbf::sim::Rng rng(Mix(seed, 1000000 + static_cast<uint64_t>(g)));
    campaign::CampaignJob base;
    base.config.seed = Mix(seed, 2000000 + static_cast<uint64_t>(g));
    base.config.warmup = tbf::Ms(20);
    base.config.duration = tbf::Ms(150);
    const int stations = 1 + g % 3;
    const bool tcp = g % 5 == 0;
    const scenario::Direction direction = rng.Bernoulli(0.5)
                                              ? scenario::Direction::kDownlink
                                              : scenario::Direction::kUplink;
    for (int s = 0; s < stations; ++s) {
      scenario::StationSpec station;
      station.id = s + 1;
      station.rate = kRates[static_cast<size_t>(rng.UniformInt(0, 3))];
      base.stations.push_back(station);
      scenario::FlowSpec flow;
      flow.client = station.id;
      if (tcp) {
        flow.direction = scenario::Direction::kDownlink;
        flow.transport = scenario::Transport::kTcp;
        flow.model = scenario::TrafficModel::kTaskSequence;
        flow.task_bytes = 4 * 1024;
        flow.task_count = 1000;
      } else {
        flow.direction = direction;
        flow.transport = scenario::Transport::kUdp;
        flow.udp_rate = tbf::Mbps(2);
      }
      base.flows.push_back(flow);
    }
    for (const QdiscKind kind : kQdiscs) {
      campaign::CampaignJob job = base;
      job.config.qdisc = kind;
      manifest.jobs.push_back(std::move(job));
    }
  }
  return manifest;
}

bool PathExists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

struct CampaignRun {
  bool finished = false;
  std::string error;
  std::string archive;
  std::vector<scenario::Results> results;
  campaign::CoordinatorStats stats;
  double setup_s = 0.0;
  double wall_s = 0.0;
  double coordinate_s = 0.0;  // Coordinator::Run alone.
};

// Set-up is manifest encoding in the Coordinator constructor plus the socket bind at
// the start of Run(); the timed part starts when the socket exists and the workers
// are launched, and ends when Run() has returned and every worker has exited.
CampaignRun RunCampaign(const campaign::Manifest& manifest, const std::string& socket,
                        int workers, int64_t setup_start, Tracer* tr, int64_t parent,
                        int64_t request) {
  CampaignRun run;
  campaign::CoordinatorConfig config;
  config.socket_path = socket;
  config.local_fallback_after_ms = -1;
  ::unlink(socket.c_str());
  try {
    campaign::Coordinator coordinator(manifest, config);
    std::atomic<bool> done{false};
    int64_t start = 0;
    std::thread coordinator_thread([&] {
      ScopedSpan s(tr, "campaign.coordinate", parent, request);
      const int64_t run_start = NowNs();
      try {
        run.finished = coordinator.Run();
      } catch (const std::exception& e) {
        run.error = e.what();
      }
      run.coordinate_s = SecondsSince(run_start);
      done.store(true);
    });
    while (!done.load() && !PathExists(socket)) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    start = NowNs();
    run.setup_s = static_cast<double>(start - setup_start) * 1e-9;
    // A worker thread that fails to start ends the process (the coordinator thread is
    // still joinable): Coordinator has no stop call, so joining it with too few
    // workers could wait forever.
    std::vector<std::thread> pool;
    for (int w = 0; w < workers; ++w) {
      campaign::WorkerConfig wc;
      wc.socket_path = socket;
      wc.name = "perfbench-w" + std::to_string(w);
      wc.reconnect_delay_ms = 10;
      pool.emplace_back([wc] { campaign::RunWorker(wc); });
    }
    coordinator_thread.join();
    for (std::thread& t : pool) {
      t.join();
    }
    run.wall_s = SecondsSince(start);
    run.stats = coordinator.stats();
    if (run.finished) {
      run.archive = coordinator.EncodeArchiveBytes();
      run.results = coordinator.DecodedResults();
    }
  } catch (const std::exception& e) {
    run.error = e.what();
  }
  return run;
}

// Median host time of `fn` over three passes, in microseconds per item.
template <typename Fn>
double MicrosPerItem(size_t items, Fn fn) {
  std::vector<double> passes;
  for (int k = 0; k < 3; ++k) {
    const int64_t start = NowNs();
    fn();
    passes.push_back(SecondsSince(start) * 1e6 / static_cast<double>(items));
  }
  return Median(passes);
}

}  // namespace

Outcome RunCampaignSmallJobs(const Options& options, Tracer& tracer) {
  Outcome out;
  const int workers = std::max(1, options.threads - 1);
  out.threads["campaign_workers"] = workers;
  const std::string socket =
      options.work_dir + "/campaign-" + std::to_string(::getpid()) + ".sock";
  std::vector<RepStats> untraced, traced;
  ModelStats model;
  std::string first_archive;
  std::vector<uint32_t> first_crc;
  std::vector<double> coordinate_s;
  campaign::CoordinatorStats last_stats;
  campaign::Manifest manifest;
  std::vector<scenario::Results> last_results;

  ForEachRep(options, [&](int rep, bool traced_rep) {
    Tracer* tr = traced_rep ? &tracer : nullptr;
    ScopedSpan rep_span(tr, "bench.rep", -1, -1);
    RepStats rs;
    const int64_t setup_start = NowNs();
    {
      ScopedSpan s(tr, "bench.inputs", rep_span.id(), rep);
      manifest = BuildManifest(options.seed, options.smoke);
    }
    CampaignRun run =
        RunCampaign(manifest, socket, workers, setup_start, tr, rep_span.id(), rep);
    rs.setup_s = run.setup_s;
    rs.wall_s = run.wall_s;

    ScopedSpan check_span(tr, "bench.check", rep_span.id(), rep);
    const size_t n = manifest.jobs.size();
    const bool complete = run.finished && run.results.size() == n;
    std::vector<uint32_t> crc(n, 0);
    ModelStats rep_model;
    for (size_t i = 0; i < n; ++i) {
      const std::string name = "campaign rep " + std::to_string(rep) + " job " +
                               std::to_string(i);
      if (!complete) {
        Check(&out, false, name + ": campaign did not finish: " + run.error);
        continue;
      }
      const scenario::Results& r = run.results[i];
      crc[i] = campaign::Crc32(campaign::EncodeResults(r));
      const bool traffic = r.mac_exchanges > 0 && r.aggregate_bps > 0.0;
      const bool same = rep == 0 || crc[i] == first_crc[i];
      Check(&out, traffic && same,
            name + (traffic ? ": results differ from rep 0" : ": carried no traffic"));
      const auto& config = manifest.jobs[i].config;
      rs.sim_cell_s += tbf::ToSeconds(config.warmup + config.duration);
      rs.frames += static_cast<double>(r.mac_exchanges);
      rep_model.goodput_mbps += r.AggregateMbps();
      rep_model.task_latency.Merge(r.task_latency_sketch);
      if (config.qdisc == QdiscKind::kTbr) {
        rep_model.tbr_goodput += r.aggregate_bps;
      } else if (config.qdisc == QdiscKind::kFifo) {
        rep_model.fifo_goodput += r.aggregate_bps;
      }
    }
    rs.jobs = static_cast<double>(n);
    if (rep == 0) {
      first_archive = run.archive;
      first_crc = crc;
      model = rep_model;
      std::vector<const scenario::Results*> ptrs;
      for (const scenario::Results& r : run.results) {
        ptrs.push_back(&r);
      }
      out.digest = ResultsDigest(ptrs);
    } else {
      Check(&out, run.archive == first_archive,
            "campaign rep " + std::to_string(rep) + ": archive differs from rep 0");
    }

    if (!traced_rep) {
      untraced.push_back(rs);
      return;
    }
    traced.push_back(rs);
    ++out.traced_reps;
    coordinate_s.push_back(run.coordinate_s);
    last_stats = run.stats;
    last_results = std::move(run.results);
  });
  out.reps = static_cast<int>(untraced.size() + traced.size());

  // The distributed archive must be byte-identical to the serial in-process reference.
  std::vector<double> serial_s;
  const int serial_runs = options.trace && !options.smoke ? 3 : 1;
  for (int k = 0; k < serial_runs; ++k) {
    std::string serial;
    const int64_t start = NowNs();
    {
      ScopedSpan s(options.trace ? &tracer : nullptr, "campaign.serial", -1, -1);
      try {
        serial = campaign::RunSerialArchive(manifest);
      } catch (const std::exception& e) {
        serial = std::string("error: ") + e.what();
      }
    }
    serial_s.push_back(SecondsSince(start));
    Check(&out, !first_archive.empty() && serial == first_archive,
          "distributed archive differs from RunSerialArchive");
  }

  std::vector<double> no_job_samples;
  SummarizeEndToEnd(untraced, model, no_job_samples, &out);
  if (options.trace) {
    out.layer = ZeroLayerMetrics();
    MetricMap& m = out.layer;
    const double serial = Median(serial_s);
    m["campaign.coordinate_s"].value = Median(coordinate_s);
    m["campaign.serial_s"].value = serial;
    m["campaign.overhead_ratio"].value = out.e2e["wall_s"].value / serial;
    m["campaign.redispatched"].value = static_cast<double>(last_stats.redispatched);
    m["campaign.rejected_payloads"].value =
        static_cast<double>(last_stats.rejected_payloads);
    m["campaign.worker_disconnects"].value =
        static_cast<double>(last_stats.worker_disconnects);
    m["campaign.local_runs"].value = static_cast<double>(last_stats.local_runs);
    m["campaign.archive_kb"].value = static_cast<double>(first_archive.size()) / 1024.0;

    // Codec cost over the whole manifest and its results.
    const size_t n = manifest.jobs.size();
    std::vector<std::string> job_blobs(n), result_blobs(n);
    m["campaign.encode_job_us"].value = MicrosPerItem(n, [&] {
      for (size_t i = 0; i < n; ++i) {
        job_blobs[i] = campaign::EncodeJob(manifest.jobs[i]);
      }
    });
    bool decoded = true;
    m["campaign.decode_job_us"].value = MicrosPerItem(n, [&] {
      campaign::CampaignJob job;
      for (const std::string& blob : job_blobs) {
        decoded = campaign::DecodeJob(blob, &job) && decoded;
      }
    });
    if (last_results.size() == n) {
      m["campaign.encode_results_us"].value = MicrosPerItem(n, [&] {
        for (size_t i = 0; i < n; ++i) {
          result_blobs[i] = campaign::EncodeResults(last_results[i]);
        }
      });
      m["campaign.decode_results_us"].value = MicrosPerItem(n, [&] {
        scenario::Results r;
        for (const std::string& blob : result_blobs) {
          decoded = campaign::DecodeResults(blob, &r) && decoded;
        }
      });
      double exchanges = 0.0, collisions = 0.0, drops = 0.0, retransmits = 0.0,
             timeouts = 0.0, samples = 0.0;
      for (const scenario::Results& r : last_results) {
        exchanges += static_cast<double>(r.mac_exchanges);
        collisions += static_cast<double>(r.mac_collisions);
        drops += static_cast<double>(r.ap_drops);
        samples += static_cast<double>(r.rtt.count + r.ap_queue_delay.count +
                                       r.task_latency.count);
        for (const scenario::FlowResult& f : r.flows) {
          retransmits += static_cast<double>(f.retransmits);
          timeouts += static_cast<double>(f.timeouts);
        }
      }
      m["mac.exchanges"].value = exchanges;
      m["mac.collisions"].value = collisions;
      m["mac.useful_ratio"].value = exchanges > 0 ? 1.0 - collisions / exchanges : 0.0;
      m["ap.drops"].value = drops;
      m["net.tcp_retransmits"].value = retransmits;
      m["net.tcp_timeouts"].value = timeouts;
      m["stats.latency_samples"].value = samples;
    }
    Check(&out, decoded, "the codec rejected a blob it encoded");
    SummarizeTracing(untraced, traced, tracer, &out);
  }
  return out;
}

}  // namespace perfbench
