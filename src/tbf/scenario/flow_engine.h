// The per-flow runtime shared by every scenario builder.
//
// A FlowEngine is one constructed flow: the transport endpoints it owns and the
// finite-task bookkeeping that restarts transfers (task sequences, on/off draws, trace
// replays). Latency samples and delivered bytes are recorded through the owning shard's
// stats::StatsEngine (see docs/metrology.md), never stored here - the engine struct
// stays O(1) per flow. Extracted from scenario::Wlan so multi-shard builders
// (shard::CampusSim) drive the exact same task-chaining state machine: the engine always
// lives in exactly one shard - the one whose Simulator fires its callbacks - so none of
// its state needs synchronization. In a sharded campus the engine sits on the flow's
// *initiating* side (TCP: the sender's shard, where task completion is observed via the
// final cumulative ack; UDP: the sink's shard, where delivery is counted) and the far
// endpoint is owned separately by the opposite shard.
#ifndef TBF_SCENARIO_FLOW_ENGINE_H_
#define TBF_SCENARIO_FLOW_ENGINE_H_

#include <memory>
#include <vector>

#include "tbf/net/tcp.h"
#include "tbf/net/udp.h"
#include "tbf/scenario/results.h"
#include "tbf/scenario/wlan.h"
#include "tbf/sim/random.h"
#include "tbf/sim/simulator.h"
#include "tbf/stats/engine.h"

namespace tbf::scenario {

struct FlowEngine {
  FlowSpec spec;
  int flow_id = -1;
  // When the first transfer actually begins: spec.start plus the CBR stagger for UDP
  // flows. Task completions are reported relative to this, which makes
  // AvgTaskTime/FinalTaskTime independent of the stagger and of where the warmup ends.
  TimeNs actual_start = 0;

  // The simulator, rng and stats engine of the shard this engine lives in (single-cell
  // scenarios have exactly one of each). Set by Init, which also registers the flow
  // with `stats` before its first sample.
  sim::Simulator* sim = nullptr;
  sim::Rng* rng = nullptr;
  stats::StatsEngine* stats = nullptr;

  // Endpoints this engine's shard owns. In a single cell all of the flow's endpoints
  // live here; in a sharded campus only the engine-side one is non-null and the far
  // endpoint belongs to the opposite shard.
  std::unique_ptr<net::TcpSender> tcp_sender;
  std::unique_ptr<net::TcpReceiver> tcp_receiver;
  std::unique_ptr<net::UdpSource> udp_source;
  std::unique_ptr<net::UdpSink> udp_sink;

  int64_t delivered_bytes = 0;   // Total payload delivered (from flow start).
  int64_t window_snapshot = 0;   // Delivered bytes at warmup.

  // Finite-task bookkeeping. `task_target` is the cumulative payload target of the
  // task in flight (grown per task so restarts share one sequence space); UDP tasks
  // complete when the sink has delivered it, TCP tasks when the sender reports Done.
  int64_t task_target = 0;
  int tasks_started = 0;
  TimeNs task_started_at = 0;            // When the task in flight began transferring.
  // kTraceReplay: the next task's logged due time. Durations anchor here instead of at
  // the actual launch, so a backlogged replay charges the user's waiting time to the
  // transfer (sojourn from logged arrival) instead of silently excluding it. -1 = unset.
  TimeNs next_task_due = -1;
  size_t replay_next = 1;                // kTraceReplay: index of the next logged task.

  bool HasTasks() const { return task_target > 0; }

  // Binds the engine to flow `id` of `flow` in the shard whose simulator, rng and stats
  // engine are given, and registers the flow with that engine. Then sizes the first
  // transfer (drawing from `rng` for on/off flows; task_target 0 keeps the flow
  // unbounded) and fixes actual_start: spec.start, shifted to the first logged arrival
  // for trace replays, and for UDP staggered by flow id so synchronized CBR sources do
  // not phase-lock on shared queues. Flow ids are campus-global, so a campus cell
  // staggers exactly like the equivalent single cell.
  void Init(const FlowSpec& flow, int id, sim::Simulator* shard_sim, sim::Rng* shard_rng,
            stats::StatsEngine* shard_stats);

  // The flow's transport address: the station and the server, in the spec's direction.
  net::FlowAddress Address() const;

  // Arms tcp_sender: the first task's bytes and completion hook (TCP tasks complete
  // when the final byte is cumulatively acked), the app limit and the RTT tap.
  void ArmTcpSender();

  // Delivery-side accounting; UDP finite tasks complete here (no acks).
  void OnDelivered(int64_t bytes);

  // Task chaining: records the task that just finished and, for sequence, on/off and
  // replay flows, queues the next transfer (after the think/gap time).
  void OnTaskComplete();
  void QueueNextTask(int64_t bytes, TimeNs delay);
};

// Folds one engine's measurement-window readout into `results`: the FlowResult, the
// merged cell-wide sketches (retained flows only under sampled retention), per-client
// goodput, and the Table 1 task aggregates accumulated via `sum_task_sec`/
// `table1_tasks` (the caller divides at the end). `delivered_delta` is the payload
// delivered inside the window - the caller supplies it because in a sharded campus the
// receiver-side counter may live in the opposite shard from the engine. Task and RTT
// meters come from the engine's own `stats`; `queue_meters` is the stats engine of the
// flow's *cell* shard, where the AP qdisc tap always records - for downlink campus
// flows the two differ.
void AccumulateFlowResult(const FlowEngine& flow, int64_t delivered_delta,
                          double window_sec, const stats::StatsEngine& queue_meters,
                          Results* results, double* sum_task_sec, int64_t* table1_tasks);

}  // namespace tbf::scenario

#endif  // TBF_SCENARIO_FLOW_ENGINE_H_
