// cell_sweep: a fixed grid of saturated single cells on one SweepRunner pool.
//
// Grid: {2, 16, 64, 256} mixed 1/2/5.5/11 Mbps stations x {FIFO, RR, DRR, TBR,
// TBR-fast} x {TCP, UDP} x 5 station/seed variants = 200 jobs. The five qdiscs of one
// (size, transport, variant) group share stations, flows and simulator seed, and the
// TCP and UDP groups of one (size, variant) share stations and directions, so the
// cost ratios below compare like with like. Larger cells are submitted first, the way
// a user would order a sweep to keep the pool busy.
#include <algorithm>
#include <array>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "tbf/campaign/codec.h"
#include "tbf/mac/medium.h"
#include "tbf/scenario/wlan.h"
#include "tbf/sweep/sweep_runner.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace phy = tbf::phy;
namespace mac = tbf::mac;
namespace sweep = tbf::sweep;
using scenario::QdiscKind;

constexpr std::array<int, 4> kSizes = {256, 64, 16, 2};
constexpr std::array<QdiscKind, 5> kQdiscs = {QdiscKind::kFifo, QdiscKind::kRoundRobin,
                                              QdiscKind::kDrr, QdiscKind::kTbr,
                                              QdiscKind::kTbrFastEwma};
constexpr int kFifo = 0;
constexpr int kTbr = 3;
constexpr int kTbrFast = 4;
constexpr std::array<phy::WifiRate, 4> kRates = {
    phy::WifiRate::k1Mbps, phy::WifiRate::k2Mbps, phy::WifiRate::k5_5Mbps,
    phy::WifiRate::k11Mbps};

struct GridJob {
  sweep::ScenarioJob job;
  int size_index = 0;
  int qdisc_index = 0;
  bool tcp = true;
};

std::vector<GridJob> BuildGrid(uint64_t seed, bool smoke) {
  const int variants = smoke ? 1 : 5;
  const tbf::TimeNs warmup = smoke ? tbf::Ms(200) : tbf::Ms(500);
  const tbf::TimeNs duration = smoke ? tbf::Sec(1) : tbf::Sec(3);
  std::vector<GridJob> grid;
  for (size_t si = 0; si < kSizes.size(); ++si) {
    const int n = kSizes[si];
    for (int v = 0; v < variants; ++v) {
      const uint64_t salt = si * 64 + static_cast<uint64_t>(v);
      tbf::sim::Rng rng(Mix(seed, salt));
      std::vector<phy::WifiRate> rates(static_cast<size_t>(n));
      for (int i = 0; i < n; ++i) {
        rates[static_cast<size_t>(i)] = kRates[static_cast<size_t>(i) % kRates.size()];
      }
      for (int i = n - 1; i > 0; --i) {
        std::swap(rates[static_cast<size_t>(i)],
                  rates[static_cast<size_t>(rng.UniformInt(0, i))]);
      }
      const uint64_t sim_seed = Mix(seed, 10000 + salt);
      for (const bool tcp : {true, false}) {
        for (size_t qi = 0; qi < kQdiscs.size(); ++qi) {
          GridJob g;
          g.size_index = static_cast<int>(si);
          g.qdisc_index = static_cast<int>(qi);
          g.tcp = tcp;
          scenario::ScenarioConfig& config = g.job.config;
          config.qdisc = kQdiscs[qi];
          config.seed = sim_seed;
          config.warmup = warmup;
          config.duration = duration;
          for (int i = 0; i < n; ++i) {
            scenario::StationSpec station;
            station.id = i + 1;
            station.rate = rates[static_cast<size_t>(i)];
            g.job.stations.push_back(station);
            // Roles cycle: downlink transfers (task sequence under TCP, so the
            // task-latency meter has samples), bulk uplink, bulk downlink.
            scenario::FlowSpec flow;
            flow.client = station.id;
            flow.direction = i % 3 == 1 ? scenario::Direction::kUplink
                                        : scenario::Direction::kDownlink;
            if (tcp) {
              flow.transport = scenario::Transport::kTcp;
              if (i % 3 == 0) {
                flow.model = scenario::TrafficModel::kTaskSequence;
                flow.task_bytes = 32 * 1024;
                flow.task_count = 1000000;
              }
            } else {
              // 16 Mbps offered per cell, several times what any rate mix can carry.
              flow.transport = scenario::Transport::kUdp;
              flow.udp_rate = tbf::Mbps(16) / n;
            }
            g.job.flows.push_back(flow);
          }
          grid.push_back(std::move(g));
        }
      }
    }
  }
  return grid;
}

// Uplink frames the AP received for the wired side: the count AccessPoint keeps as
// forwarded_uplink, observed at the medium because Wlan does not expose its AP.
class UplinkCounter : public mac::MediumObserver {
 public:
  void OnExchange(const mac::ExchangeRecord& record) override {
    if (!record.data_lost && record.rx == tbf::kApId && record.packet != nullptr &&
        record.packet->dst >= tbf::kServerId) {
      ++count;
    }
  }
  int64_t count = 0;
};

// Post-run introspection of one job (traced reps only).
struct JobProbe {
  int64_t build_ns = 0;
  int64_t run_ns = 0;
  int64_t ifs_updates = 0;
  int64_t deadline_rescans = 0;
  int64_t reschedules_skipped = 0;
  int64_t forwarded_uplink = 0;
  size_t event_slots = 0;
  size_t pool_slots = 0;
  size_t metrology_bytes = 0;
};

// Run cost of a set of jobs: host ns and MAC exchanges, pooled over traced reps.
struct Cost {
  double ns = 0.0;
  double frames = 0.0;
  double PerFrame() const { return frames > 0.0 ? ns / frames : 0.0; }
};

}  // namespace

Outcome RunCellSweep(const Options& options, Tracer& tracer) {
  Outcome out;
  out.threads["sweep"] = options.threads;
  std::vector<RepStats> untraced, traced;
  std::vector<double> job_ms;
  ModelStats model;
  std::vector<uint32_t> first_crc;

  std::vector<double> busy_s, idle_frac, build_s, run_s;
  std::array<Cost, 4> by_size{};
  std::array<Cost, 5> by_qdisc{};
  Cost tcp_cost, udp_cost;
  size_t max_event_slots = 0, max_pool_slots = 0, max_metrology = 0;
  MetricMap counts;

  // One pool for the whole process, as a sweeping user keeps one; its thread start-up
  // is not part of any rep.
  sweep::SweepRunner runner(options.threads);
  ForEachRep(options, [&](int rep, bool traced_rep) {
    Tracer* tr = traced_rep ? &tracer : nullptr;
    ScopedSpan rep_span(tr, "bench.rep", -1, -1);
    RepStats rs;
    const int64_t setup_start = NowNs();
    std::vector<GridJob> grid;
    {
      ScopedSpan s(tr, "bench.inputs", rep_span.id(), -1);
      grid = BuildGrid(options.seed, options.smoke);
    }
    rs.setup_s = SecondsSince(setup_start);

    const size_t n = grid.size();
    std::vector<int64_t> job_ns(n, 0);
    std::vector<JobProbe> probes(n);
    std::vector<std::string> errors(n);
    const int64_t request_base = static_cast<int64_t>(rep) * static_cast<int64_t>(n);

    const int64_t start = NowNs();
    std::vector<scenario::Results> results;
    {
      ScopedSpan map_span(tr, "sweep.map", rep_span.id(), -1);
      const int64_t map_id = map_span.id();
      std::vector<std::function<scenario::Results()>> fns;
      fns.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        fns.push_back([&, i, map_id]() -> scenario::Results {
          const int64_t job_start = NowNs();
          const int64_t request = request_base + static_cast<int64_t>(i);
          ScopedSpan job_span(tr, "sweep.job", map_id, request);
          const sweep::ScenarioJob& job = grid[i].job;
          scenario::Results r;
          try {
            scenario::Wlan wlan(job.config);
            for (const scenario::StationSpec& s : job.stations) {
              wlan.AddStation(s);
            }
            for (const scenario::FlowSpec& f : job.flows) {
              wlan.AddFlow(f);
            }
            JobProbe& probe = probes[i];
            const int64_t build_start = tr != nullptr ? NowNs() : 0;
            {
              ScopedSpan b(tr, "scenario.build", job_span.id(), request);
              wlan.BuildNow();
            }
            UplinkCounter uplink;
            if (tr != nullptr) {
              probe.build_ns = NowNs() - build_start;
              wlan.medium()->AddObserver(&uplink);
            }
            const int64_t run_start = tr != nullptr ? NowNs() : 0;
            {
              ScopedSpan s(tr, "scenario.run", job_span.id(), request);
              r = wlan.Run();
            }
            if (tr != nullptr) {
              probe.run_ns = NowNs() - run_start;
              const mac::Medium& medium = *wlan.medium();
              probe.ifs_updates = medium.ifs_updates();
              probe.deadline_rescans = medium.deadline_rescans();
              probe.reschedules_skipped = medium.access_reschedules_skipped();
              probe.forwarded_uplink = uplink.count;
              probe.event_slots = wlan.simulator().event_pool_slots();
              probe.pool_slots = wlan.packet_pool().slots();
              probe.metrology_bytes = wlan.stats_engine().MemoryFootprintBytes();
            }
          } catch (const std::exception& e) {
            errors[i] = e.what();
          }
          // Construction, BuildNow, Run and teardown: the job's whole time on the pool.
          job_ns[i] = NowNs() - job_start;
          return r;
        });
      }
      results = runner.Map(std::move(fns));
    }
    rs.wall_s = SecondsSince(start);

    // Output checks (untimed): every job carried traffic, and every job's results
    // encode to the same bytes on every rep.
    ScopedSpan check_span(tr, "bench.check", rep_span.id(), -1);
    std::vector<const scenario::Results*> ptrs;
    std::vector<uint32_t> crc(n);
    ModelStats rep_model;
    for (size_t i = 0; i < n; ++i) {
      const scenario::Results& r = results[i];
      const GridJob& g = grid[i];
      ptrs.push_back(&r);
      crc[i] = tbf::campaign::Crc32(tbf::campaign::EncodeResults(r));
      const std::string name = "cell_sweep job " + std::to_string(i);
      bool ok = errors[i].empty();
      Check(&out, ok && r.aggregate_bps > 0.0 && r.mac_exchanges > 0 &&
                      (rep == 0 || crc[i] == first_crc[i]),
            !ok ? name + " threw: " + errors[i]
                : r.aggregate_bps <= 0.0 || r.mac_exchanges <= 0
                      ? name + " carried no traffic"
                      : name + " results differ from rep 0");
      rs.sim_cell_s += tbf::ToSeconds(g.job.config.warmup + g.job.config.duration);
      rs.frames += static_cast<double>(r.mac_exchanges);
      rs.jobs += 1.0;
      rep_model.goodput_mbps += r.AggregateMbps();
      rep_model.task_latency.Merge(r.task_latency_sketch);
      if (g.qdisc_index == kTbr) {
        rep_model.tbr_goodput += r.aggregate_bps;
      } else if (g.qdisc_index == kFifo) {
        rep_model.fifo_goodput += r.aggregate_bps;
      }
    }
    if (rep == 0) {
      first_crc = crc;
      out.digest = ResultsDigest(ptrs);
      model = rep_model;
    }

    if (!traced_rep) {
      untraced.push_back(rs);
      for (const int64_t ns : job_ns) {
        job_ms.push_back(static_cast<double>(ns) * 1e-6);
      }
      return;
    }
    traced.push_back(rs);
    ++out.traced_reps;
    double busy = 0.0, build = 0.0, run = 0.0;
    double exchanges = 0.0, collisions = 0.0, ifs = 0.0, rescans = 0.0, skipped = 0.0;
    double drops = 0.0, forwarded = 0.0, retransmits = 0.0, timeouts = 0.0;
    double windows = 0.0, samples = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const JobProbe& p = probes[i];
      const scenario::Results& r = results[i];
      const GridJob& g = grid[i];
      busy += static_cast<double>(job_ns[i]) * 1e-9;
      build += static_cast<double>(p.build_ns) * 1e-9;
      run += static_cast<double>(p.run_ns) * 1e-9;
      const Cost c{static_cast<double>(p.run_ns), static_cast<double>(r.mac_exchanges)};
      for (Cost* sink : {&by_size[static_cast<size_t>(g.size_index)],
                         &by_qdisc[static_cast<size_t>(g.qdisc_index)],
                         g.tcp ? &tcp_cost : &udp_cost}) {
        sink->ns += c.ns;
        sink->frames += c.frames;
      }
      max_event_slots = std::max(max_event_slots, p.event_slots);
      max_pool_slots = std::max(max_pool_slots, p.pool_slots);
      max_metrology = std::max(max_metrology, p.metrology_bytes);
      exchanges += static_cast<double>(r.mac_exchanges);
      collisions += static_cast<double>(r.mac_collisions);
      ifs += static_cast<double>(p.ifs_updates);
      rescans += static_cast<double>(p.deadline_rescans);
      skipped += static_cast<double>(p.reschedules_skipped);
      drops += static_cast<double>(r.ap_drops);
      forwarded += static_cast<double>(p.forwarded_uplink);
      for (const scenario::FlowResult& f : r.flows) {
        retransmits += static_cast<double>(f.retransmits);
        timeouts += static_cast<double>(f.timeouts);
      }
      windows += static_cast<double>(r.rtt_series.windows.size() +
                                     r.ap_queue_delay_series.windows.size() +
                                     r.task_latency_series.windows.size() +
                                     r.goodput_series.windows.size());
      samples += static_cast<double>(r.rtt.count + r.ap_queue_delay.count +
                                     r.task_latency.count);
    }
    busy_s.push_back(busy);
    idle_frac.push_back(1.0 - busy / (rs.wall_s * runner.thread_count()));
    build_s.push_back(build);
    run_s.push_back(run);
    counts["mac.exchanges"] = {exchanges, "count"};
    counts["mac.collisions"] = {collisions, "count"};
    counts["mac.useful_ratio"] = {1.0 - collisions / exchanges, "fraction"};
    counts["mac.ifs_updates_per_frame"] = {ifs / exchanges, "count/frame"};
    counts["mac.deadline_rescans_per_frame"] = {rescans / exchanges, "count/frame"};
    counts["mac.reschedules_skipped_per_frame"] = {skipped / exchanges, "count/frame"};
    counts["ap.drops"] = {drops, "count"};
    counts["ap.forwarded_uplink"] = {forwarded, "count"};
    counts["net.tcp_retransmits"] = {retransmits, "count"};
    counts["net.tcp_timeouts"] = {timeouts, "count"};
    counts["stats.series_windows"] = {windows, "count"};
    counts["stats.latency_samples"] = {samples, "count"};
  });

  out.reps = static_cast<int>(untraced.size() + traced.size());
  SummarizeEndToEnd(untraced, model, job_ms, &out);
  if (options.trace) {
    out.layer = ZeroLayerMetrics();
    MetricMap& m = out.layer;
    m["sweep.busy_s"].value = Median(busy_s);
    m["sweep.idle_frac"].value = Median(idle_frac);
    m["scenario.build_s"].value = Median(build_s);
    m["scenario.run_s"].value = Median(run_s);
    // kSizes is largest-first; the metric names carry the station count.
    for (size_t si = 0; si < kSizes.size(); ++si) {
      m["scenario.ns_per_frame.n" + std::to_string(kSizes[si])].value =
          by_size[si].PerFrame();
    }
    const double fifo = by_qdisc[kFifo].PerFrame();
    if (fifo > 0.0) {
      m["core.tbr_cost_ratio"].value = by_qdisc[kTbr].PerFrame() / fifo;
      m["core.fast_ewma_cost_ratio"].value = by_qdisc[kTbrFast].PerFrame() / fifo;
    }
    if (udp_cost.PerFrame() > 0.0) {
      m["net.tcp_cost_ratio"].value = tcp_cost.PerFrame() / udp_cost.PerFrame();
    }
    m["sim.event_slots"].value = static_cast<double>(max_event_slots);
    m["net.pool_slots"].value = static_cast<double>(max_pool_slots);
    m["stats.metrology_kb"].value = static_cast<double>(max_metrology) / 1024.0;
    for (const auto& [name, metric] : counts) {
      m[name] = metric;
    }
    SummarizeTracing(untraced, traced, tracer, &out);
  }
  return out;
}

}  // namespace perfbench
