// The benchmark's three workloads. Each is a closed batch driven from this process,
// repeated until the run's time budget is spent; see perfbench/README.md for why each
// was chosen and which layers it stresses.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"
#include "tracer.h"

namespace perfbench {

// Saturated single cells (2-256 mixed-rate stations, five qdiscs, TCP and UDP) on one
// sweep::SweepRunner pool: the per-packet path.
Outcome RunCellSweep(const Options& options, Tracer& tracer);

// One 64-AP x 16-station shard::CampusSim campus under stock TBR with bursty TCP and
// per-cell trace replay, streaming metrology: barriers, mailboxes and coarse timers.
Outcome RunCampusBursty(const Options& options, Tracer& tracer);

// Thousands of tiny single-cell jobs through campaign::Coordinator over a unix socket
// with in-process workers: protocol, codec and per-job overhead.
Outcome RunCampaignSmallJobs(const Options& options, Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
