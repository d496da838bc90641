// One AP cell: the full single-cell stack below the flows.
//
// A CellStack owns one cell's Simulator, PacketPool, Rng, loss models, Medium, AP (with
// its qdisc and rate controller), Demux, wireless hosts and StatsEngine. It is the one
// place a cell is wired and read out: scenario::Wlan is a CellStack plus a WiredLink, a
// server and flows; each BSS shard of shard::CampusSim is a CellStack plus a ShardLink
// uplink and a mailbox. Anything that differs between the two - the uplink port, the
// seed, where flow endpoints live - is the caller's.
#ifndef TBF_SCENARIO_CELL_STACK_H_
#define TBF_SCENARIO_CELL_STACK_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "tbf/ap/access_point.h"
#include "tbf/core/tbr.h"
#include "tbf/mac/medium.h"
#include "tbf/net/demux.h"
#include "tbf/net/host.h"
#include "tbf/net/packet.h"
#include "tbf/phy/channel.h"
#include "tbf/rateadapt/rate_controller.h"
#include "tbf/scenario/results.h"
#include "tbf/sim/random.h"
#include "tbf/sim/simulator.h"
#include "tbf/stats/engine.h"

namespace tbf::scenario {

struct ScenarioConfig;
struct StationSpec;

class CellStack {
 public:
  CellStack() = default;
  CellStack(const CellStack&) = delete;
  CellStack& operator=(const CellStack&) = delete;

  // Builds the cell from a validated declaration: the stats engine (config.stats), the
  // rng (`seed`), the AP qdisc config.qdisc selects, and per station its loss (SNR
  // margin or fixed PER), its rate control (ARF or pinned) and its association. The TBR
  // contention divisor is pinned to the station count, the client agent's pause hook
  // is wired when config.tbr.client_agent is set, and the AP's queue-delay tap records
  // into this cell's stats engine. Frames leaving the cell go to `uplink`.
  void Build(const ScenarioConfig& config, uint64_t seed,
             const std::vector<StationSpec>& stations,
             ap::AccessPoint::ForwardFn uplink);

  // Marks the end of the warmup: airtime and utilization are read out relative to it.
  void SnapshotWarmup();

  // Fills the cell-level part of `results` for a measurement window of `duration`
  // since SnapshotWarmup(): airtime shares, utilization, MAC collisions and exchanges,
  // AP drops, the latency summaries of the sketches already in `results`, and this
  // cell's windowed latency and goodput series. Per-flow results are the caller's.
  void ReadOut(TimeNs duration, Results* results) const;

  sim::Simulator& sim() { return sim_; }
  net::PacketPool& pool() { return pool_; }
  sim::Rng* rng() { return &rng_; }
  mac::Medium* medium() { return medium_.get(); }
  ap::AccessPoint* ap() { return ap_.get(); }
  net::Demux* demux() { return &demux_; }
  core::TimeBasedRegulator* tbr() { return tbr_; }
  stats::StatsEngine& stats() { return stats_; }
  const stats::StatsEngine& stats() const { return stats_; }
  // The station's host, or nullptr when `id` was not declared.
  net::WirelessHost* host(NodeId id);

 private:
  // The pool is declared right after the Simulator so it outlives every component
  // that can hold packets (members below are destroyed first); each cell owns its own
  // pool, so sweep workers and campus shards never share one.
  sim::Simulator sim_;
  net::PacketPool pool_;
  sim::Rng rng_;
  phy::FixedPerLink fixed_loss_;
  phy::SnrLossModel snr_loss_;
  phy::DispatchLossModel loss_{&fixed_loss_, &snr_loss_};  // Per client, to the two above.
  std::unique_ptr<mac::Medium> medium_;
  rateadapt::CompositeRateController ap_rates_;
  std::unique_ptr<ap::AccessPoint> ap_;
  net::Demux demux_;
  std::map<NodeId, std::unique_ptr<net::WirelessHost>> hosts_;
  core::TimeBasedRegulator* tbr_ = nullptr;
  stats::StatsEngine stats_;

  std::map<NodeId, TimeNs> airtime_at_warmup_;
  TimeNs busy_at_warmup_ = 0;
};

}  // namespace tbf::scenario

#endif  // TBF_SCENARIO_CELL_STACK_H_
