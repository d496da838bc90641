// campus_bursty: one 64-AP x 16-station shard::CampusSim campus under stock TBR at
// nproc shard threads (CampusSim's default outside a sweep worker).
//
// Per cell: stations 1-4 replay that cell's own seeded residence-hall capture (the
// trace is synthesized and recovered during set-up, like an operator loading a pcap),
// and stations 5-16 cycle web on/off downloads, task-sequence downloads and
// app-limited bulk uploads. Cells are mostly idle, so the campus spends its host time
// on window barriers, mailboxes, StatsEngine seal/merge and coarse timers rather than
// on per-packet work. Metrology is streaming: 500 ms windows, top-4 plus 1-in-32
// sampled per-flow retention.
#include <algorithm>
#include <array>
#include <exception>
#include <string>
#include <vector>

#include "tbf/campaign/codec.h"
#include "tbf/scenario/campus.h"
#include "tbf/shard/campus_sim.h"
#include "tbf/trace/generators.h"
#include "tbf/trace/replay.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace phy = tbf::phy;
namespace shard = tbf::shard;
namespace trace = tbf::trace;

constexpr int kReplayStations = 4;

struct CampusInputs {
  scenario::CampusConfig config;
  std::vector<scenario::BssSpec> bss;
  std::vector<int64_t> replay_bytes;  // Per cell, per replay flow (declared first).
  std::vector<int> replay_flows;      // Replay flow count per cell.
  double generate_s = 0.0;
  double recover_s = 0.0;
};

CampusInputs BuildCampus(uint64_t seed, bool smoke, Tracer* tr, int64_t parent,
                         int64_t request) {
  CampusInputs in;
  const int aps = smoke ? 4 : 64;
  const int stations = 16;
  scenario::CampusConfig& config = in.config;
  config.cell.qdisc = scenario::QdiscKind::kTbr;
  config.cell.seed = Mix(seed, 7);
  // Replay latency counts from each transfer's logged arrival, so the whole run is
  // measured: no warmup.
  config.cell.warmup = 0;
  config.cell.duration = smoke ? tbf::Sec(1) : tbf::Sec(3);
  config.cell.stats.window = tbf::Ms(500);
  config.cell.stats.top_k = 4;
  config.cell.stats.sample_every = 32;

  constexpr std::array<phy::WifiRate, 4> kRates = {
      phy::WifiRate::k1Mbps, phy::WifiRate::k2Mbps, phy::WifiRate::k5_5Mbps,
      phy::WifiRate::k11Mbps};
  for (int b = 0; b < aps; ++b) {
    tbf::sim::Rng rng(Mix(seed, 100 + static_cast<uint64_t>(b)));
    scenario::BssSpec bss;

    // This cell's capture: four users pulling heavy-tailed transfers through a
    // 1 Mbps AP for the first 40% of the run, so every logged transfer can finish.
    trace::ResidenceConfig capture;
    capture.duration = config.cell.duration * 2 / 5;
    capture.users = kReplayStations;
    capture.mean_flow_bytes = 16.0 * 1024.0;
    capture.mean_think_sec = 0.3;
    capture.ap_capacity_bps = 1e6;
    int64_t t0 = NowNs();
    trace::TraceLog log;
    {
      ScopedSpan s(tr, "trace.generate", parent, request);
      log = trace::GenerateResidenceTrace(capture, rng);
    }
    in.generate_s += SecondsSince(t0);
    t0 = NowNs();
    trace::ReplayOptions replay;
    replay.task_gap = tbf::Ms(250);
    std::vector<trace::ReplayFlow> flows;
    {
      ScopedSpan s(tr, "trace.recover", parent, request);
      flows = trace::TraceReplaySource(log, replay).flows();
    }
    in.recover_s += SecondsSince(t0);

    // Replaying users sit on the top rate; the other twelve carry the rate mix.
    std::vector<phy::WifiRate> rates;
    for (int i = 0; i < stations - kReplayStations; ++i) {
      rates.push_back(kRates[static_cast<size_t>(i) % kRates.size()]);
    }
    for (size_t i = rates.size() - 1; i > 0; --i) {
      std::swap(rates[i], rates[static_cast<size_t>(
                              rng.UniformInt(0, static_cast<int64_t>(i)))]);
    }
    for (int id = 1; id <= stations; ++id) {
      scenario::StationSpec station;
      station.id = id;
      station.rate = id <= kReplayStations
                         ? phy::WifiRate::k11Mbps
                         : rates[static_cast<size_t>(id - kReplayStations - 1)];
      bss.stations.push_back(station);
    }

    in.replay_flows.push_back(static_cast<int>(flows.size()));
    for (const trace::ReplayFlow& flow : flows) {
      bss.flows.push_back(scenario::MakeTraceReplaySpec(flow));
      in.replay_bytes.push_back(flow.total_bytes);
    }
    for (int id = kReplayStations + 1; id <= stations; ++id) {
      scenario::FlowSpec flow;
      flow.client = id;
      flow.transport = scenario::Transport::kTcp;
      switch ((id - kReplayStations - 1) % 3) {
        case 0:
          flow.direction = scenario::Direction::kDownlink;
          flow.model = scenario::TrafficModel::kOnOffWeb;
          flow.onoff.mean_flow_bytes = 24.0 * 1024.0;
          flow.onoff.mean_think_sec = 0.5;
          break;
        case 1:
          flow.direction = scenario::Direction::kDownlink;
          flow.model = scenario::TrafficModel::kTaskSequence;
          flow.task_bytes = 12 * 1024;
          flow.task_count = 1000;
          flow.task_gap = tbf::Ms(100);
          break;
        default:
          flow.direction = scenario::Direction::kUplink;
          flow.app_limit_bps = tbf::Kbps(256);
          break;
      }
      flow.start = tbf::Ms(rng.UniformInt(0, 200));
      bss.flows.push_back(flow);
    }
    in.bss.push_back(std::move(bss));
  }
  return in;
}

struct CampusRun {
  scenario::CampusResults results;
  std::string error;
  double wall_s = 0.0;
  double setup_s = 0.0;
  size_t metrology_bytes = 0;
  int threads = 0;
};

CampusRun RunCampus(const CampusInputs& in, int threads, Tracer* tr, int64_t parent,
                    int64_t request) {
  CampusRun run;
  const int64_t setup_start = NowNs();
  try {
    shard::CampusSim campus(in.config, threads);
    {
      ScopedSpan s(tr, "shard.add_bss", parent, request);
      for (const scenario::BssSpec& bss : in.bss) {
        campus.AddBss(bss);
      }
    }
    run.setup_s = SecondsSince(setup_start);
    const int64_t start = NowNs();
    {
      ScopedSpan s(tr, "shard.run", parent, request);
      run.results = campus.Run();
    }
    run.wall_s = SecondsSince(start);
    run.metrology_bytes = campus.MetrologyBytes();
    run.threads = campus.thread_count();
  } catch (const std::exception& e) {
    run.error = e.what();
  }
  return run;
}

std::vector<const scenario::Results*> CellPointers(const scenario::CampusResults& r) {
  std::vector<const scenario::Results*> ptrs;
  for (const scenario::Results& cell : r.cells) {
    ptrs.push_back(&cell);
  }
  return ptrs;
}

// Empty when the campus passed every output check, else the first violation.
std::string CheckCampus(const CampusInputs& in, const CampusRun& run) {
  if (!run.error.empty()) {
    return "threw: " + run.error;
  }
  const scenario::CampusResults& r = run.results;
  if (r.cells.size() != in.bss.size()) {
    return "cell count mismatch";
  }
  if (r.cross_shard_packets <= 0 || r.task_latency_series.windows.empty()) {
    return "no cross-shard traffic or empty task-latency series";
  }
  size_t replay_index = 0;
  for (size_t c = 0; c < r.cells.size(); ++c) {
    const scenario::Results& cell = r.cells[c];
    if (cell.aggregate_bps <= 0.0 || cell.tasks_completed <= 0) {
      return "cell " + std::to_string(c) + " carried no traffic or completed no task";
    }
    for (int k = 0; k < in.replay_flows[c]; ++k, ++replay_index) {
      const int64_t want = in.replay_bytes[replay_index];
      const int64_t got = cell.flows[static_cast<size_t>(k)].bytes_delivered;
      if (got != want) {
        return "cell " + std::to_string(c) + " replay flow " + std::to_string(k) +
               " delivered " + std::to_string(got) + " of " + std::to_string(want) +
               " logged bytes";
      }
    }
  }
  return std::string();
}

}  // namespace

Outcome RunCampusBursty(const Options& options, Tracer& tracer) {
  Outcome out;
  std::vector<RepStats> untraced, traced;
  std::vector<double> campus_ms;
  ModelStats model;
  std::vector<double> generate_s, recover_s, us_per_window;
  MetricMap counts;
  CampusInputs last_inputs;

  ForEachRep(options, [&](int rep, bool traced_rep) {
    Tracer* tr = traced_rep ? &tracer : nullptr;
    ScopedSpan rep_span(tr, "bench.rep", -1, -1);
    RepStats rs;
    const int64_t setup_start = NowNs();
    CampusInputs in;
    {
      ScopedSpan s(tr, "bench.inputs", rep_span.id(), rep);
      in = BuildCampus(options.seed, options.smoke, tr, s.id(), rep);
    }
    const double input_s = SecondsSince(setup_start);
    const CampusRun run = RunCampus(in, options.threads, tr, rep_span.id(), rep);
    rs.setup_s = input_s + run.setup_s;
    rs.wall_s = run.wall_s;
    out.threads["shard"] = run.threads;

    ScopedSpan check_span(tr, "bench.check", rep_span.id(), rep);
    const scenario::CampusResults& r = run.results;
    const uint32_t digest = ResultsDigest(CellPointers(r));
    std::string failure = CheckCampus(in, run);
    if (failure.empty() && rep > 0 && digest != out.digest) {
      failure = "results digest differs from rep 0";
    }
    Check(&out, failure.empty(), "campus rep " + std::to_string(rep) + ": " + failure);
    if (rep == 0) {
      out.digest = digest;
      model.goodput_mbps = r.aggregate_bps / 1e6;
      model.task_latency = r.task_latency_sketch;
    }
    rs.sim_cell_s = tbf::ToSeconds(in.config.cell.warmup + in.config.cell.duration) *
                    static_cast<double>(in.bss.size());
    rs.frames = static_cast<double>(r.mac_exchanges);
    rs.jobs = 1.0;

    if (!traced_rep) {
      untraced.push_back(rs);
      campus_ms.push_back(rs.wall_s * 1e3);
      last_inputs = std::move(in);
      return;
    }
    traced.push_back(rs);
    ++out.traced_reps;
    generate_s.push_back(in.generate_s);
    recover_s.push_back(in.recover_s);
    if (r.windows > 0) {
      us_per_window.push_back(run.wall_s * 1e6 / static_cast<double>(r.windows));
    }
    double drops = 0.0, retransmits = 0.0, timeouts = 0.0;
    for (const scenario::Results& cell : r.cells) {
      drops += static_cast<double>(cell.ap_drops);
      for (const scenario::FlowResult& f : cell.flows) {
        retransmits += static_cast<double>(f.retransmits);
        timeouts += static_cast<double>(f.timeouts);
      }
    }
    const double exchanges = static_cast<double>(r.mac_exchanges);
    const double collisions = static_cast<double>(r.mac_collisions);
    counts["mac.exchanges"] = {exchanges, "count"};
    counts["mac.collisions"] = {collisions, "count"};
    counts["mac.useful_ratio"] = {exchanges > 0 ? 1.0 - collisions / exchanges : 0.0,
                                  "fraction"};
    counts["ap.drops"] = {drops, "count"};
    counts["net.tcp_retransmits"] = {retransmits, "count"};
    counts["net.tcp_timeouts"] = {timeouts, "count"};
    counts["stats.metrology_kb"] = {static_cast<double>(run.metrology_bytes) / 1024.0,
                                    "KB"};
    counts["stats.series_windows"] = {
        static_cast<double>(r.rtt_series.windows.size() +
                            r.ap_queue_delay_series.windows.size() +
                            r.task_latency_series.windows.size() +
                            r.goodput_series.windows.size()),
        "count"};
    counts["stats.latency_samples"] = {
        static_cast<double>(r.rtt.count + r.ap_queue_delay.count + r.task_latency.count),
        "count"};
    counts["shard.windows"] = {static_cast<double>(r.windows), "count"};
    counts["shard.cross_packets"] = {static_cast<double>(r.cross_shard_packets), "count"};
    counts["shard.backbone_drops"] = {static_cast<double>(r.backbone_drops), "count"};
  });

  out.reps = static_cast<int>(untraced.size() + traced.size());
  SummarizeEndToEnd(untraced, model, campus_ms, &out);
  if (options.trace) {
    out.layer = ZeroLayerMetrics();
    MetricMap& m = out.layer;
    for (const auto& [name, metric] : counts) {
      m[name] = metric;
    }
    m["trace.generate_s"].value = Median(generate_s);
    m["trace.recover_s"].value = Median(recover_s);
    m["shard.us_per_window"].value = Median(us_per_window);
    // The same campus on one shard thread: its results must match the threaded run
    // bit for bit, and its wall time is the base of shard.threaded_over_serial.
    std::vector<double> serial_wall;
    const int serial_runs = options.smoke ? 1 : 3;
    for (int k = 0; k < serial_runs; ++k) {
      const CampusRun serial = RunCampus(last_inputs, 1, nullptr, -1, -1);
      std::string failure = CheckCampus(last_inputs, serial);
      if (failure.empty() && ResultsDigest(CellPointers(serial.results)) != out.digest) {
        failure = "results digest at 1 shard thread differs from the threaded run";
      }
      Check(&out, failure.empty(), "serial campus: " + failure);
      serial_wall.push_back(serial.wall_s);
    }
    m["shard.threaded_over_serial"].value = out.e2e["wall_s"].value / Median(serial_wall);
    out.threads["shard_serial_reference"] = 1;
    SummarizeTracing(untraced, traced, tracer, &out);
  }
  return out;
}

}  // namespace perfbench
