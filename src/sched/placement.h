// Task placement onto physical servers (§4.2).
//
// Three policies:
//  - kOptimusPack: the paper's scheme. Servers are sorted by available
//    capacity (descending), jobs by resource demand (ascending, smallest job
//    first to avoid starvation). Each job is packed onto the smallest number
//    of servers that can host it, with parameter servers and workers spread
//    evenly over those servers (Theorem 1). One lazy (free_cpu, index)
//    max-heap keeps the servers sorted across jobs; a capacity lower bound
//    skips prefix sizes that provably cannot hold the job.
//  - kLoadBalance: the Kubernetes-default behaviour used by the DRF baseline:
//    every task goes to the currently least-loaded server that fits it.
//  - kTetrisPack: fragmentation-minimizing packing used by the Tetris
//    baseline: every task goes to the *tightest* fitting server (best fit).
//  - kRackPack: the rack-aware Theorem-1 variant. When the cluster has a
//    rack layout (`rack_size` > 0), each job is first packed entirely under
//    one edge switch — racks tried in descending free-capacity order — so
//    its traffic never crosses an oversubscribed uplink; jobs no single rack
//    can hold fall back to the global kOptimusPack scheme.
//
// Jobs that cannot be placed under a policy are reported back; the simulator
// pauses them until the next interval (§4.2). Every policy emits compact
// JobPlacements (occupied servers only), so a round's placements cost
// O(tasks) memory whatever the cluster size.

#ifndef SRC_SCHED_PLACEMENT_H_
#define SRC_SCHED_PLACEMENT_H_

#include <map>
#include <vector>

#include "src/cluster/server.h"
#include "src/pserver/comm_model.h"
#include "src/sched/scheduler.h"

namespace optimus {

enum class PlacementPolicy {
  kOptimusPack,
  kLoadBalance,
  kTetrisPack,
  kRackPack,
};

const char* PlacementPolicyName(PlacementPolicy policy);

struct PlacementJobInput {
  int job_id = 0;
  Allocation alloc;
  Resources worker_demand;
  Resources ps_demand;
  // All-reduce jobs (num_ps == 0) are placeable with workers alone.
  CommMode comm = CommMode::kParameterServer;
};

struct PlacementResult {
  // job_id -> the job's occupied servers and per-server task counts.
  std::map<int, JobPlacement> placements;
  // job_id -> the allocation actually placed. Differs from the requested
  // allocation only when shrink-to-fit reduced an unplaceable job.
  std::map<int, Allocation> effective_alloc;
  // Jobs that could not be placed at all (to be paused this interval).
  std::vector<int> unplaced;
};

// Places all jobs onto `servers` (consumed by value: placement starts from
// the servers' current free state and mutates the copies).
//
// The cluster-level capacity check of the allocators (Eqn 7) ignores
// per-server fragmentation, so an allocation can be infeasible to place. With
// `shrink_to_fit` (the default), such a job is retried at repeatedly halved
// (p, w) down to (1, 1) before being declared unplaced — without it, a
// deterministic allocator can pause the same job forever.
// `rack_size` feeds the kRackPack policy's rack layout (0 = no racks: the
// policy degrades to kOptimusPack); other policies ignore it.
PlacementResult PlaceJobs(PlacementPolicy policy,
                          const std::vector<PlacementJobInput>& jobs,
                          std::vector<Server> servers, bool shrink_to_fit = true,
                          int rack_size = 0);

// In-place variant: mutates `*servers` directly instead of consuming a copy.
// Lets a caller that reschedules every round keep one scratch server vector
// (refreshed by element-wise assignment, which reuses its capacity) instead
// of copy-constructing a fresh one per call. Decisions are identical to the
// by-value overload.
PlacementResult PlaceJobs(PlacementPolicy policy,
                          const std::vector<PlacementJobInput>& jobs,
                          std::vector<Server>* servers, bool shrink_to_fit = true,
                          int rack_size = 0);

}  // namespace optimus

#endif  // SRC_SCHED_PLACEMENT_H_
