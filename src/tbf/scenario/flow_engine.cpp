#include "tbf/scenario/flow_engine.h"

#include <algorithm>

namespace tbf::scenario {

void FlowEngine::Init(const FlowSpec& flow, int id, sim::Simulator* shard_sim,
                      sim::Rng* shard_rng, stats::StatsEngine* shard_stats) {
  spec = flow;
  flow_id = id;
  sim = shard_sim;
  rng = shard_rng;
  stats = shard_stats;
  stats->RegisterFlow(flow_id);

  // Size of the first transfer: the spec's task size, an on/off draw, or the trace's
  // first logged transfer. 0 keeps the flow unbounded (kBulk fluid transfer). Trace
  // replays anchor the start at the first logged arrival so later transfers keep their
  // logged offsets from it.
  TimeNs flow_start = spec.start;
  int64_t first_task = 0;
  switch (spec.model) {
    case TrafficModel::kBulk:
      first_task = spec.task_bytes;
      break;
    case TrafficModel::kTaskSequence:
      first_task = spec.task_bytes;  // ValidateScenario pinned size and count > 0.
      break;
    case TrafficModel::kOnOffWeb:
      first_task = spec.onoff.DrawFlowBytes(*rng);
      break;
    case TrafficModel::kTraceReplay:
      first_task = spec.replay.front().bytes;
      flow_start += spec.replay.front().at;
      break;
  }
  task_target = first_task;
  tasks_started = first_task > 0 ? 1 : 0;
  actual_start =
      spec.transport == Transport::kUdp ? flow_start + flow_id * Us(97) : flow_start;
  task_started_at = actual_start;  // The first task transfers from the start.
}

net::FlowAddress FlowEngine::Address() const {
  const bool uplink = spec.direction == Direction::kUplink;
  net::FlowAddress addr;
  addr.flow_id = flow_id;
  addr.wlan_client = spec.client;
  addr.sender = uplink ? spec.client : kServerId;
  addr.receiver = uplink ? kServerId : spec.client;
  return addr;
}

void FlowEngine::ArmTcpSender() {
  if (task_target > 0) {
    tcp_sender->SetTaskBytes(task_target);
    tcp_sender->SetOnTaskComplete([this] { OnTaskComplete(); });
  }
  if (spec.app_limit_bps > 0) {
    tcp_sender->SetAppLimitBps(spec.app_limit_bps);
  }
  tcp_sender->SetRttSampleFn([this](TimeNs sample) {
    stats->RecordRtt(flow_id, sim->Now(), sample);
  });
}

void FlowEngine::OnDelivered(int64_t bytes) {
  delivered_bytes += bytes;
  stats->RecordBytes(flow_id, sim->Now(), bytes);
  // UDP tasks have no acks; they complete when the sink has delivered the task's
  // payload. (A datagram lost beyond the MAC's retries stalls the task - finite UDP
  // tasks are meant for configurations below the loss cliff.)
  if (spec.transport == Transport::kUdp && HasTasks() && delivered_bytes >= task_target) {
    OnTaskComplete();
  }
}

void FlowEngine::OnTaskComplete() {
  stats->RecordTaskCompletion(flow_id, sim->Now(), sim->Now() - task_started_at);
  switch (spec.model) {
    case TrafficModel::kBulk:
      break;  // Single finite task; nothing follows.
    case TrafficModel::kTaskSequence:
      if (tasks_started < spec.task_count) {
        QueueNextTask(spec.task_bytes, spec.task_gap);
      }
      break;
    case TrafficModel::kOnOffWeb:
      // Think, then the next transfer. Both draws happen now (event order is
      // deterministic, so the rng stream is too).
      QueueNextTask(spec.onoff.DrawFlowBytes(*rng), spec.onoff.DrawThinkNs(*rng));
      break;
    case TrafficModel::kTraceReplay:
      // Launch the next logged transfer at its logged offset from the flow's start; if
      // the cell ran slower than the capture and that moment has passed, launch now
      // (the user is backlogged, not skipped - every logged byte still gets delivered,
      // and the duration anchor stays at the logged due time so the wait is measured).
      if (replay_next < spec.replay.size()) {
        const trace::ReplayTask& next = spec.replay[replay_next++];
        const TimeNs due = actual_start + (next.at - spec.replay.front().at);
        next_task_due = due;
        QueueNextTask(next.bytes, std::max<TimeNs>(0, due - sim->Now()));
      }
      break;
  }
}

void FlowEngine::QueueNextTask(int64_t bytes, TimeNs delay) {
  ++tasks_started;
  auto launch = [this, bytes] {
    // Replay tasks anchor at their logged due time (== now unless the launch was held
    // back by the previous task, i.e. the user was backlogged); everything else starts
    // its clock when the transfer actually begins.
    task_started_at = next_task_due >= 0 ? next_task_due : sim->Now();
    next_task_due = -1;
    task_target += bytes;
    if (tcp_sender != nullptr) {
      tcp_sender->AddTask(bytes);
    } else {
      udp_source->AddTask(bytes);
    }
  };
  if (delay > 0) {
    sim->Schedule(delay, launch);
  } else {
    launch();
  }
}

void AccumulateFlowResult(const FlowEngine& flow, int64_t delivered_delta,
                          double window_sec, const stats::StatsEngine& queue_meters,
                          Results* results, double* sum_task_sec, int64_t* table1_tasks) {
  static const stats::FlowStats kNoStats = stats::FlowStats();
  const stats::FlowStats* fs = flow.stats->flow(flow.flow_id);
  const stats::FlowStats* qs = queue_meters.flow(flow.flow_id);
  if (fs == nullptr) {
    fs = &kNoStats;
  }
  if (qs == nullptr) {
    qs = &kNoStats;
  }

  FlowResult fr;
  fr.flow_id = flow.flow_id;
  fr.client = flow.spec.client;
  fr.tcp = flow.spec.transport == Transport::kTcp;
  fr.bytes_delivered = delivered_delta;
  fr.goodput_bps = static_cast<double>(fr.bytes_delivered) * 8.0 / window_sec;
  fr.exact = fs->retained && qs->retained;
  // Task completions are reported relative to the flow's actual start (spec start +
  // CBR stagger), so they do not shift with the stagger or the warmup boundary.
  // The Table 1 aggregates use cumulative transfer durations - idle time (task_gap,
  // think) excluded, matching the fluid model's gap-free schedule; they coincide with
  // the completions for back-to-back sequences. On/off and trace-replay flows count
  // toward tasks_completed but stay out of the aggregates entirely: their duration
  // timelines embed think times / the capture's arrival structure (and, for replay,
  // backlog wait), not a gap-free task schedule. Under sampled retention the task
  // vectors (hence the Table 1 walk) exist only for retained flows; tasks_completed
  // still counts every flow via the counted tier.
  const bool table1_flow = flow.spec.model == TrafficModel::kBulk ||
                           flow.spec.model == TrafficModel::kTaskSequence;
  fr.task_completions.reserve(fs->task_completions.size());
  TimeNs transfer_elapsed = 0;
  for (size_t i = 0; i < fs->task_completions.size(); ++i) {
    fr.task_completions.push_back(fs->task_completions[i] - flow.actual_start);
    transfer_elapsed += fs->task_durations[i];
    if (table1_flow) {
      ++*table1_tasks;
      *sum_task_sec += ToSeconds(transfer_elapsed);
      results->final_task_time_sec =
          std::max(results->final_task_time_sec, ToSeconds(transfer_elapsed));
    }
  }
  results->tasks_completed += fs->tasks;
  fr.task_durations = fs->task_durations;
  if (fs->last_completion >= 0) {
    fr.completion_time = fs->last_completion - flow.actual_start;
  }
  if (flow.tcp_sender != nullptr) {
    fr.retransmits = flow.tcp_sender->retransmits();
    fr.timeouts = flow.tcp_sender->timeouts();
  }
  // Counted-tier-only flows report their sample counts with zero percentiles
  // (fr.exact == false tells the reader); the run-wide meters still carry their
  // samples in every streaming mode.
  if (fs->retained) {
    fr.rtt = LatencySummary::FromSketch(fs->rtt_sketch);
    fr.task_latency = LatencySummary::FromSketch(fs->task_latency_sketch);
  } else {
    fr.rtt.count = fs->rtt_count;
    fr.task_latency.count = fs->tasks;
  }
  if (qs->retained) {
    fr.queue_delay = LatencySummary::FromSketch(qs->queue_delay_sketch);
  } else {
    fr.queue_delay.count = qs->queue_count;
  }
  results->rtt_sketch.Merge(fs->rtt_sketch);
  results->ap_queue_delay_sketch.Merge(qs->queue_delay_sketch);
  results->task_latency_sketch.Merge(fs->task_latency_sketch);
  results->goodput_bps[flow.spec.client] += fr.goodput_bps;
  results->aggregate_bps += fr.goodput_bps;
  results->flows.push_back(fr);
}

}  // namespace tbf::scenario
