#include "tbf/scenario/cell_stack.h"

#include <utility>

#include "tbf/scenario/wlan.h"

namespace tbf::scenario {

namespace {

// Builds the AP transmit qdisc a config asks for. `rates` feeds the burst-sizing
// baseline (kOarBurst); for every TBR kind `*tbr_out` receives the live regulator.
std::unique_ptr<ap::Qdisc> MakeQdisc(const ScenarioConfig& config, sim::Simulator* sim,
                                     rateadapt::CompositeRateController* rates,
                                     core::TimeBasedRegulator** tbr_out) {
  switch (config.qdisc) {
    case QdiscKind::kFifo:
      return std::make_unique<ap::FifoQdisc>(config.fifo_limit);
    case QdiscKind::kRoundRobin:
      return std::make_unique<ap::RoundRobinQdisc>(config.per_queue_limit);
    case QdiscKind::kDrr:
      return std::make_unique<ap::DrrQdisc>(config.per_queue_limit);
    case QdiscKind::kOarBurst:
      // OAR-style comparison baseline: bursts sized by the client's current rate.
      return std::make_unique<ap::BurstRoundRobinQdisc>(
          [rates](NodeId client) { return phy::GetRateInfo(rates->CurrentRate(client)).bps; },
          Mbps(1), config.per_queue_limit);
    case QdiscKind::kTbr:
    case QdiscKind::kTbrBurstCredit:
    case QdiscKind::kTbrFastEwma:
    case QdiscKind::kTbrCreditHybrid: {
      core::TbrConfig tbr_config = config.tbr;
      tbr_config.mode = TbrModeForKind(config.qdisc, config.tbr.mode);
      auto tbr = std::make_unique<core::TimeBasedRegulator>(sim, config.timings,
                                                            tbr_config);
      *tbr_out = tbr.get();
      return tbr;
    }
  }
  return nullptr;
}

}  // namespace

void CellStack::Build(const ScenarioConfig& config, uint64_t seed,
                      const std::vector<StationSpec>& stations,
                      ap::AccessPoint::ForwardFn uplink) {
  stats_ = stats::StatsEngine(config.stats);
  rng_ = sim::Rng(seed);
  medium_ = std::make_unique<mac::Medium>(&sim_, config.timings, &loss_, &rng_);
  ap_ = std::make_unique<ap::AccessPoint>(&sim_, medium_.get(),
                                          MakeQdisc(config, &sim_, &ap_rates_, &tbr_),
                                          &ap_rates_);
  ap_->SetUplinkForward(std::move(uplink));

  for (const StationSpec& spec : stations) {
    if (spec.snr_db != 0.0) {
      snr_loss_.SetClientSnr(spec.id, spec.snr_db);
    } else if (spec.per > 0.0) {
      fixed_loss_.SetClientPer(spec.id, spec.per);
    }
    std::unique_ptr<rateadapt::RateController> client_rates;
    if (spec.arf) {
      rateadapt::ArfConfig arf;
      arf.initial_rate = spec.rate;
      auto ctrl = std::make_unique<rateadapt::ArfController>(arf);
      ctrl->Seed(kApId, spec.rate);
      client_rates = std::move(ctrl);
      ap_rates_.MarkAdaptive(spec.id, spec.rate);
    } else {
      client_rates = std::make_unique<rateadapt::FixedRateController>(spec.rate);
      ap_rates_.PinRate(spec.id, spec.rate);
    }
    hosts_.emplace(spec.id, std::make_unique<net::WirelessHost>(
                                &sim_, medium_.get(), spec.id, std::move(client_rates),
                                &demux_, spec.queue_limit));
    ap_->Associate(spec.id);
  }

  // Pin the contention-allowance divisor to the declared cell size so per-packet
  // charges never depend on association order. Identical to the legacy associated-
  // count divisor here, because the loop above associates every station upfront.
  if (tbr_ != nullptr && config.tbr.contention_contenders == 0) {
    tbr_->SetContentionContenders(static_cast<int>(stations.size()));
  }

  if (tbr_ != nullptr && config.tbr.client_agent) {
    tbr_->SetClientPauseFn([this](NodeId client, TimeNs until) {
      if (net::WirelessHost* h = host(client); h != nullptr) {
        h->PauseUplinkUntil(until);
      }
    });
  }

  // AP qdisc residency tap: attribute each transmitted packet's queueing delay to its
  // flow's meter (the engine drops ids it never registered). The tap fires only for
  // this cell's flows, so the engine keeps exactly one writing thread.
  ap_->SetQueueDelayFn([this](int flow_id, NodeId /*client*/, TimeNs delay) {
    stats_.RecordQueueDelay(flow_id, sim_.Now(), delay);
  });
}

net::WirelessHost* CellStack::host(NodeId id) {
  auto it = hosts_.find(id);
  return it == hosts_.end() ? nullptr : it->second.get();
}

void CellStack::SnapshotWarmup() {
  airtime_at_warmup_ = medium_->airtime_meter().by_node();
  busy_at_warmup_ = medium_->busy_time();
}

void CellStack::ReadOut(TimeNs duration, Results* results) const {
  // Airtime shares over the measurement window: each node's occupancy since the
  // warmup over the whole cell's.
  const std::map<NodeId, TimeNs> airtime = medium_->airtime_meter().by_node();
  auto since_warmup = [this](NodeId node, TimeNs t) {
    auto before = airtime_at_warmup_.find(node);
    return t - (before == airtime_at_warmup_.end() ? 0 : before->second);
  };
  TimeNs total = 0;
  for (const auto& [node, t] : airtime) {
    total += since_warmup(node, t);
  }
  for (const auto& [node, t] : airtime) {
    results->airtime_share[node] =
        total > 0 ? static_cast<double>(since_warmup(node, t)) / static_cast<double>(total)
                  : 0.0;
  }

  results->rtt = LatencySummary::FromSketch(results->rtt_sketch);
  results->ap_queue_delay = LatencySummary::FromSketch(results->ap_queue_delay_sketch);
  results->task_latency = LatencySummary::FromSketch(results->task_latency_sketch);
  results->rtt_series = stats_.series(stats::kRtt);
  results->ap_queue_delay_series = stats_.series(stats::kQueueDelay);
  results->task_latency_series = stats_.series(stats::kTaskLatency);
  results->goodput_series = stats_.bytes_series();

  results->utilization =
      static_cast<double>(medium_->busy_time() - busy_at_warmup_) / duration;
  results->mac_collisions = medium_->collisions();
  results->mac_exchanges = medium_->exchanges();
  results->ap_drops = ap_->downlink_drops();
}

}  // namespace tbf::scenario
