#include "tbf/shard/campus_sim.h"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <thread>

#include "tbf/scenario/cell_stack.h"
#include "tbf/scenario/flow_engine.h"
#include "tbf/shard/mailbox.h"
#include "tbf/shard/shard_link.h"
#include "tbf/sweep/sweep_runner.h"
#include "tbf/util/logging.h"

namespace tbf::shard {

using scenario::Direction;
using scenario::FlowEngine;
using scenario::FlowSpec;
using scenario::Transport;

// One BSS shard: a complete single-cell stack (its own Simulator, PacketPool, Rng and
// stats engine) plus its backbone uplink, declared after the stack so its queued
// packets are released before the cell's pool goes. The cell's stats engine holds the
// queue-delay taps for the cell's flows plus the task/RTT meters of cell-side engines;
// it is written only by the cell's thread during windows and sealed into the campus
// engine by the coordinator at barriers.
struct CampusSim::CellShard {
  scenario::CellStack stack;
  Mailbox to_core;                    // Written only by `uplink` during this cell's window.
  std::unique_ptr<ShardLink> uplink;  // Cell -> core backbone direction.
};

// The wired core shard: owns the server side of every flow. There is no medium here -
// just the transports, reached through the core demux, and one downlink ShardLink per
// cell.
struct CampusSim::CoreShard {
  sim::Simulator sim;
  net::PacketPool pool;
  std::unique_ptr<sim::Rng> rng;
  std::unique_ptr<net::Demux> demux;
  std::vector<Mailbox> to_cell;  // [i] written only by downlinks[i] during core windows.
  std::vector<std::unique_ptr<ShardLink>> downlinks;

  // Core-side metrology: task/RTT meters of core-side engines plus delivered bytes of
  // flows whose receiver lives here. Same ownership rule as the cell engines.
  stats::StatsEngine stats;
};

// One campus flow. The FlowEngine lives in exactly one shard (TCP: the sender's, where
// task completion is observed via the final cumulative ack; UDP: the sink's, where
// delivery is counted); the far endpoint is owned here and lives in the opposite
// shard's Simulator. `remote_delivered` is written by the receiver's shard during
// windows and read by the coordinator only at barriers (warmup snapshot / readout).
struct CampusSim::FlowState {
  size_t bss = 0;
  bool tcp = true;

  FlowEngine engine;
  std::unique_ptr<net::TcpReceiver> remote_tcp_receiver;
  std::unique_ptr<net::UdpSource> remote_udp_source;

  int64_t remote_delivered = 0;
  int64_t remote_snapshot = 0;
};

// Persistent window pool: `threads` workers claim shard indices from a shared counter
// and advance them to the window end. Claims and completion counts are mutex-guarded
// (plain mutex happens-before on both edges of every window, which both the memory
// model and TSan reason about directly); the shard advance itself runs unlocked -
// shards share no mutable state, so no further synchronization exists or is needed.
class CampusSim::Pool {
 public:
  Pool(CampusSim* owner, int threads, size_t shards) : owner_(owner), total_(shards) {
    workers_.reserve(static_cast<size_t>(threads));
    for (int i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& worker : workers_) {
      worker.join();
    }
  }

  // Advances every shard to `until`; returns when all have arrived at the barrier.
  void RunWindow(TimeNs until) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      window_ = until;
      next_ = 0;
      done_ = 0;
      ++generation_;
    }
    work_cv_.notify_all();
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return done_ == total_; });
  }

 private:
  void WorkerLoop() {
    int64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) {
        return;
      }
      seen = generation_;
      const TimeNs until = window_;
      while (next_ < total_) {
        const size_t shard = next_++;
        lock.unlock();
        owner_->AdvanceShard(shard, until);
        lock.lock();
        if (++done_ == total_) {
          done_cv_.notify_all();
        }
      }
    }
  }

  CampusSim* owner_;
  const size_t total_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  TimeNs window_ = 0;
  size_t next_ = 0;
  size_t done_ = 0;
  int64_t generation_ = 0;
  bool stop_ = false;
};

CampusSim::CampusSim(scenario::CampusConfig config, int threads)
    : config_(config),
      threads_(threads > 0 ? std::min(threads, 64) : DefaultShardThreads()) {}

CampusSim::~CampusSim() = default;

int CampusSim::DefaultShardThreads() {
  if (const char* env = std::getenv("TBF_SHARD_THREADS"); env != nullptr) {
    const int n = std::atoi(env);
    if (n > 0) {
      return std::min(n, 64);
    }
  }
  if (sweep::SweepRunner::InSweepWorker()) {
    return 1;  // The sweep already owns the machine's parallelism budget.
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(std::min(hw, 64u));
}

scenario::BssSpec& CampusSim::AddBss(scenario::BssSpec bss) {
  TBF_CHECK(!built_) << "AddBss after Run";
  bss_.push_back(std::move(bss));
  return bss_.back();
}

int CampusSim::shard_count() const {
  return static_cast<int>((built_ ? cells_.size() : bss_.size()) + 1);
}

void CampusSim::Build() {
  TBF_CHECK(!built_);
  if (std::string err = scenario::ValidateCampus(config_, bss_); !err.empty()) {
    throw scenario::ScenarioError("invalid campus: " + err);
  }
  built_ = true;

  // The core seeds from the campus seed itself, cell i from seed + 1 + i, so every
  // shard draws an independent, reproducible stream.
  core_ = std::make_unique<CoreShard>();
  core_->rng = std::make_unique<sim::Rng>(config_.cell.seed);
  core_->demux = std::make_unique<net::Demux>();
  core_->stats = stats::StatsEngine(config_.cell.stats);
  campus_stats_ = stats::StatsEngine(config_.cell.stats);
  core_->to_cell.resize(bss_.size());  // Sized once: Mailbox addresses must be stable.

  // The lookahead is the minimum one-way backbone latency over every cell's link.
  cells_.reserve(bss_.size());
  for (size_t i = 0; i < bss_.size(); ++i) {
    BuildCell(i);
    const TimeNs delay = cells_[i]->uplink->delay();
    lookahead_ = i == 0 ? delay : std::min(lookahead_, delay);
    core_->downlinks.push_back(std::make_unique<ShardLink>(
        &core_->sim, &core_->to_cell[i], config_.backbone_rate, delay,
        config_.backbone_queue_limit));
  }

  BuildFlows();

  threads_ = std::min(threads_, shard_count());
  if (threads_ > 1) {
    pool_ = std::make_unique<Pool>(this, threads_, cells_.size() + 1);
  }
}

void CampusSim::BuildCell(size_t index) {
  const scenario::BssSpec& bss = bss_[index];
  auto cell = std::make_unique<CellShard>();
  const TimeNs delay = bss.backbone_delay > 0 ? bss.backbone_delay : config_.backbone_delay;
  cell->uplink = std::make_unique<ShardLink>(&cell->stack.sim(), &cell->to_core,
                                             config_.backbone_rate, delay,
                                             config_.backbone_queue_limit);
  ShardLink* up = cell->uplink.get();
  cell->stack.Build(config_.cell, config_.cell.seed + 1 + static_cast<uint64_t>(index),
                    bss.stations, [up](net::PacketPtr p) { up->Send(std::move(p)); });
  cells_.push_back(std::move(cell));
}

void CampusSim::BuildFlows() {
  int next_flow_id = 1;
  for (size_t b = 0; b < bss_.size(); ++b) {
    scenario::CellStack& cell = cells_[b]->stack;
    ShardLink* down = core_->downlinks[b].get();
    for (const FlowSpec& spec : bss_[b].flows) {
      auto fs = std::make_unique<FlowState>();
      fs->bss = b;
      const bool uplink = spec.direction == Direction::kUplink;
      fs->tcp = spec.transport == Transport::kTcp;
      // TCP engines sit with the sender (task completion = final cumulative ack);
      // UDP engines sit with the sink (delivery is the completion signal).
      const bool engine_in_cell = fs->tcp ? uplink : !uplink;

      net::WirelessHost* host = cell.host(spec.client);
      TBF_CHECK(host != nullptr) << "flow references unknown station " << spec.client;

      // A flow is registered wherever a shard records for it: its engine's shard
      // (task + RTT meters; Init registers it), its cell (the AP queue-delay tap
      // always fires there), and - for TCP - the receiver's shard (delivered bytes).
      // Registration is idempotent, so overlaps are fine.
      FlowEngine& rt = fs->engine;
      if (engine_in_cell) {
        rt.Init(spec, next_flow_id++, &cell.sim(), cell.rng(), &cell.stats());
      } else {
        rt.Init(spec, next_flow_id++, &core_->sim, core_->rng.get(), &core_->stats);
      }
      cell.stats().RegisterFlow(rt.flow_id);
      const net::FlowAddress addr = rt.Address();

      // The two shard-edge exits: into the cell's air, or into this cell's downlink.
      std::function<void(net::PacketPtr)> cell_out = [host](net::PacketPtr p) {
        host->SendPacket(std::move(p));
      };
      std::function<void(net::PacketPtr)> core_out = [down](net::PacketPtr p) {
        down->Send(std::move(p));
      };

      // Every endpoint lives on the flow's sending or receiving side: the cell for
      // an uplink sender / downlink receiver, the core for the other end.
      sim::Simulator* send_sim = uplink ? &cell.sim() : &core_->sim;
      net::PacketPool* send_pool = uplink ? &cell.pool() : &core_->pool;
      sim::Simulator* recv_sim = uplink ? &core_->sim : &cell.sim();
      net::PacketPool* recv_pool = uplink ? &core_->pool : &cell.pool();
      net::Demux* send_demux = uplink ? cell.demux() : core_->demux.get();
      net::Demux* recv_demux = uplink ? core_->demux.get() : cell.demux();

      if (fs->tcp) {
        net::TcpConfig tcp;
        tcp.mss = spec.packet_bytes - net::kIpTcpHeaderBytes;
        // Delivered bytes are counted where the receiver lives - the shard opposite
        // the engine - and read by the coordinator only at barriers. The receiver
        // shard's stats engine also counts them (driving its retention ranking).
        stats::StatsEngine* recv_stats = uplink ? &core_->stats : &cell.stats();
        recv_stats->RegisterFlow(rt.flow_id);
        FlowState* fs_ptr = fs.get();
        const int fid = rt.flow_id;
        auto deliver = [fs_ptr, recv_stats, recv_sim, fid](int64_t bytes) {
          fs_ptr->remote_delivered += bytes;
          recv_stats->RecordBytes(fid, recv_sim->Now(), bytes);
        };
        rt.tcp_sender = std::make_unique<net::TcpSender>(
            send_sim, send_pool, tcp, addr, uplink ? cell_out : core_out);
        fs->remote_tcp_receiver = std::make_unique<net::TcpReceiver>(
            recv_sim, recv_pool, tcp, addr, uplink ? core_out : cell_out, deliver);
        rt.ArmTcpSender();
        send_demux->Register(addr.sender, addr.flow_id, rt.tcp_sender.get());
        recv_demux->Register(addr.receiver, addr.flow_id, fs->remote_tcp_receiver.get());
        rt.tcp_sender->Start(rt.actual_start);
      } else {
        // UDP: the source sits on the sending side, the sink (with the engine) where
        // delivery happens. Campus validation pinned the model to kBulk, so the engine
        // never has to restart the remote source.
        sim::Rng* src_rng = uplink ? cell.rng() : core_->rng.get();
        FlowEngine* rt_ptr = &rt;
        auto deliver = [rt_ptr](int64_t bytes) { rt_ptr->OnDelivered(bytes); };
        fs->remote_udp_source = std::make_unique<net::UdpSource>(
            send_sim, send_pool, addr, uplink ? cell_out : core_out, spec.udp_rate,
            spec.packet_bytes, rt.task_target, src_rng);
        rt.udp_sink = std::make_unique<net::UdpSink>(deliver);
        recv_demux->Register(addr.receiver, addr.flow_id, rt.udp_sink.get());
        fs->remote_udp_source->Start(rt.actual_start);
      }
      flows_.push_back(std::move(fs));
    }
  }
}

void CampusSim::AdvanceShard(size_t index, TimeNs until) {
  if (index < cells_.size()) {
    cells_[index]->stack.sim().RunUntil(until);
  } else {
    core_->sim.RunUntil(until);
  }
}

// Drains every mailbox at a window barrier, on the coordinator thread, in a fixed
// order (per cell ascending: core->cell first, then cell->core). The order pins the
// schedule sequence numbers of equal-timestamp deliveries, which is what makes the
// campus bit-identical across shard-thread counts. Every posted arrival is strictly
// later than the barrier (the ShardLink invariant), so ScheduleAt never clamps.
void CampusSim::DrainMailboxes() {
  for (size_t i = 0; i < cells_.size(); ++i) {
    scenario::CellStack& cell = cells_[i]->stack;
    ap::AccessPoint* ap = cell.ap();
    for (const PacketRecord& r : core_->to_cell[i].pending()) {
      net::Packet* raw = Materialize(r, &cell.pool()).Detach();
      cell.sim().ScheduleAt(r.arrival, [ap, raw] {
        ap->EnqueueDownlink(net::PacketPtr::Adopt(raw));
      });
    }
    core_->to_cell[i].Clear();
  }
  net::Demux* demux = core_->demux.get();
  for (std::unique_ptr<CellShard>& cell : cells_) {
    for (const PacketRecord& r : cell->to_core.pending()) {
      net::Packet* raw = Materialize(r, &core_->pool).Detach();
      core_->sim.ScheduleAt(r.arrival, [demux, raw] {
        const net::PacketPtr p = net::PacketPtr::Adopt(raw);
        demux->Deliver(kServerId, p);
      });
    }
    cell->to_core.Clear();
  }
}

void CampusSim::RunWindows(TimeNs until) {
  while (t_ < until) {
    const TimeNs window_end = std::min(t_ + lookahead_, until);
    if (pool_ != nullptr) {
      pool_->RunWindow(window_end);
    } else {
      for (size_t k = 0; k < cells_.size() + 1; ++k) {
        AdvanceShard(k, window_end);
      }
    }
    DrainMailboxes();
    // Windowed metrology: seal every interval that ended at or before this barrier,
    // merging child windows into the campus engine in fixed order (cells ascending,
    // then core) before the campus engine seals - the same determinism recipe as the
    // mailbox drain above. All on the coordinator thread; shard threads are parked.
    if (config_.cell.stats.window > 0) {
      for (std::unique_ptr<CellShard>& cell : cells_) {
        cell->stack.stats().SealWindowsUpTo(window_end, &campus_stats_);
      }
      core_->stats.SealWindowsUpTo(window_end, &campus_stats_);
      campus_stats_.SealWindowsUpTo(window_end);
    }
    ++windows_;
    t_ = window_end;
  }
}

scenario::CampusResults CampusSim::Run() {
  if (!built_) {
    Build();
  }
  const scenario::ScenarioConfig& cc = config_.cell;

  RunWindows(cc.warmup);
  for (std::unique_ptr<CellShard>& cell : cells_) {
    cell->stack.SnapshotWarmup();
  }
  for (std::unique_ptr<FlowState>& fs : flows_) {
    fs->engine.window_snapshot = fs->engine.delivered_bytes;
    fs->remote_snapshot = fs->remote_delivered;
  }

  RunWindows(cc.warmup + cc.duration);

  // End-of-run metrology flush: children first (fixed order), then the campus engine,
  // so the partial last window and - in unwindowed streaming mode - the whole-run
  // meters land in the campus tree exactly once.
  for (std::unique_ptr<CellShard>& cell : cells_) {
    cell->stack.stats().FlushAll(&campus_stats_);
  }
  core_->stats.FlushAll(&campus_stats_);
  campus_stats_.FlushAll();

  scenario::CampusResults out;
  out.lookahead = lookahead_;
  out.windows = windows_;
  const double window_sec = ToSeconds(cc.duration);

  out.cells.resize(cells_.size());
  for (size_t i = 0; i < cells_.size(); ++i) {
    const CellShard& cell = *cells_[i];
    scenario::Results& r = out.cells[i];
    double sum_task_sec = 0.0;
    int64_t table1_tasks = 0;
    for (std::unique_ptr<FlowState>& fs : flows_) {
      if (fs->bss != i) {
        continue;
      }
      // TCP delivery is always counted in the receiver's shard (opposite the engine);
      // UDP delivery is counted by the engine itself (it owns the sink). Task/RTT
      // meters read from the engine's shard, queue delay always from the cell.
      const int64_t delta =
          fs->tcp ? fs->remote_delivered - fs->remote_snapshot
                  : fs->engine.delivered_bytes - fs->engine.window_snapshot;
      AccumulateFlowResult(fs->engine, delta, window_sec, cell.stack.stats(), &r,
                           &sum_task_sec, &table1_tasks);
    }
    if (table1_tasks > 0) {
      r.avg_task_time_sec = sum_task_sec / static_cast<double>(table1_tasks);
    }
    // The per-cell sketches are the per-flow merges (retained flows only under
    // sampled retention); the per-cell series covers what this cell's shard observed.
    cell.stack.ReadOut(cc.duration, &r);

    out.aggregate_bps += r.aggregate_bps;
    out.tasks_completed += r.tasks_completed;
    out.mac_exchanges += r.mac_exchanges;
    out.mac_collisions += r.mac_collisions;
    out.rtt_sketch.Merge(r.rtt_sketch);
    out.ap_queue_delay_sketch.Merge(r.ap_queue_delay_sketch);
    out.task_latency_sketch.Merge(r.task_latency_sketch);

    out.cross_shard_packets += cell.uplink->sent() + core_->downlinks[i]->sent();
    out.backbone_drops += cell.uplink->drops() + core_->downlinks[i]->drops();
  }
  // Legacy exact mode: the campus-wide sketches are the per-cell merges above, byte-
  // identical to the pre-engine readout. Streaming modes: the campus engine's merge
  // tree carries every sample from every shard, so it replaces them.
  if (campus_stats_.HasCompleteMeters()) {
    out.rtt_sketch = campus_stats_.meter(stats::kRtt);
    out.ap_queue_delay_sketch = campus_stats_.meter(stats::kQueueDelay);
    out.task_latency_sketch = campus_stats_.meter(stats::kTaskLatency);
  }
  out.rtt = scenario::LatencySummary::FromSketch(out.rtt_sketch);
  out.ap_queue_delay = scenario::LatencySummary::FromSketch(out.ap_queue_delay_sketch);
  out.task_latency = scenario::LatencySummary::FromSketch(out.task_latency_sketch);
  out.rtt_series = campus_stats_.series(stats::kRtt);
  out.ap_queue_delay_series = campus_stats_.series(stats::kQueueDelay);
  out.task_latency_series = campus_stats_.series(stats::kTaskLatency);
  out.goodput_series = campus_stats_.bytes_series();
  return out;
}

size_t CampusSim::MetrologyBytes() const {
  size_t total = campus_stats_.MemoryFootprintBytes();
  for (const std::unique_ptr<CellShard>& cell : cells_) {
    total += cell->stack.stats().MemoryFootprintBytes();
  }
  if (core_ != nullptr) {
    total += core_->stats.MemoryFootprintBytes();
  }
  return total;
}

}  // namespace tbf::shard
