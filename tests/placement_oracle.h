// Test-only placement oracle: the original dense placement engine.
//
// Before the compact placement path, every policy wrote its result into two
// int vectors sized to the server list (workers / PS per server) and
// kOptimusPack re-derived each candidate's free capacity on every probe with
// no capacity lower bound. This file keeps those packers (TryEvenPlacement,
// the lazy ServerPool, PlaceOptimus / PlaceRackAware / PlacePerTask and the
// shrink-to-fit driver) as they were, so tests can check that the compact
// engine in src/sched/placement.cc makes the same decisions and leaves the
// servers in the same state. Nothing under src/ links it.

#ifndef TESTS_PLACEMENT_ORACLE_H_
#define TESTS_PLACEMENT_ORACLE_H_

#include <map>
#include <tuple>
#include <vector>

#include "src/cluster/server.h"
#include "src/sched/placement.h"

namespace optimus {

// (server, workers, ps) for one occupied server.
using PlacementTriple = std::tuple<int, int, int>;

// Dense per-server task counts for one job. Both vectors are sized to the
// server list; used_servers lists the occupied servers in ascending order.
struct DensePlacement {
  std::vector<int> workers_per_server;
  std::vector<int> ps_per_server;
  std::vector<int> used_servers;

  // The occupied servers in ascending order, read from the dense vectors.
  std::vector<PlacementTriple> Triples() const;
};

struct OracleResult {
  std::map<int, DensePlacement> placements;
  std::map<int, Allocation> effective_alloc;
  std::vector<int> unplaced;
};

// Same contract as PlaceJobs (src/sched/placement.h), dense output.
OracleResult OraclePlaceJobs(PlacementPolicy policy,
                             const std::vector<PlacementJobInput>& jobs,
                             std::vector<Server>* servers, bool shrink_to_fit = true,
                             int rack_size = 0);

}  // namespace optimus

#endif  // TESTS_PLACEMENT_ORACLE_H_
