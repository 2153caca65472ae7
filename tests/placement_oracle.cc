// The original dense placement engine, kept verbatim as a test oracle (see
// placement_oracle.h). Only the result type differs: DensePlacement instead
// of JobPlacement.

#include "tests/placement_oracle.h"

#include <algorithm>
#include <limits>
#include <numeric>

namespace optimus {

namespace {

// Attempts to place a job across the first k entries of `server_order`,
// spreading parameter servers and workers as evenly as the servers' free
// capacities allow (Theorem 1 wants equal counts per server; on heterogeneous
// servers we approximate it by always extending the least-loaded server that
// still fits). PS and worker assignments are interleaved proportionally so
// both types end up spread. Commits resources and fills `placement` on
// success; servers are untouched on failure.
bool TryEvenPlacement(const PlacementJobInput& job, const std::vector<size_t>& server_order,
                      int k, std::vector<Server>* servers, DensePlacement* placement) {
  const int w = job.alloc.num_workers;
  const int p = job.alloc.num_ps;
  const int total = w + p;

  std::vector<Resources> tentative_used(k);
  std::vector<int> tentative_w(k, 0);
  std::vector<int> tentative_p(k, 0);

  int assigned_ps = 0;
  for (int t = 0; t < total; ++t) {
    // Bresenham-style interleaving keeps the PS:worker mix even as we go.
    const bool is_ps = (t + 1) * p / total > assigned_ps;
    const Resources& demand = is_ps ? job.ps_demand : job.worker_demand;

    // Pick, among the k servers that can still fit this task, the one with
    // the fewest tasks of this *type* (Theorem 1 balances PS and worker
    // counts independently), breaking ties by total tasks, then by most free
    // capacity.
    int best = -1;
    for (int i = 0; i < k; ++i) {
      const Server& server = (*servers)[server_order[i]];
      if (!server.available() ||
          !(server.Free() - tentative_used[i]).Fits(demand)) {
        continue;
      }
      if (best < 0) {
        best = i;
        continue;
      }
      const int type_i = is_ps ? tentative_p[i] : tentative_w[i];
      const int type_b = is_ps ? tentative_p[best] : tentative_w[best];
      const int tasks_i = tentative_w[i] + tentative_p[i];
      const int tasks_b = tentative_w[best] + tentative_p[best];
      const double free_i =
          ((*servers)[server_order[i]].Free() - tentative_used[i]).cpu();
      const double free_b =
          ((*servers)[server_order[best]].Free() - tentative_used[best]).cpu();
      if (type_i < type_b ||
          (type_i == type_b &&
           (tasks_i < tasks_b || (tasks_i == tasks_b && free_i > free_b)))) {
        best = i;
      }
    }
    if (best < 0) {
      return false;  // this task fits on none of the k servers
    }
    tentative_used[best] += demand;
    if (is_ps) {
      ++tentative_p[best];
      ++assigned_ps;
    } else {
      ++tentative_w[best];
    }
  }

  for (int i = 0; i < k; ++i) {
    if (tentative_w[i] == 0 && tentative_p[i] == 0) {
      continue;
    }
    Server& server = (*servers)[server_order[i]];
    server.Allocate(tentative_used[i]);
    placement->workers_per_server[server_order[i]] += tentative_w[i];
    placement->ps_per_server[server_order[i]] += tentative_p[i];
    placement->used_servers.push_back(static_cast<int>(server_order[i]));
  }
  std::sort(placement->used_servers.begin(), placement->used_servers.end());
  return true;
}

// Keeps servers ordered by free CPU (descending) across many job placements
// with a lazily-invalidated max-heap, so placing J jobs on N servers costs
// O((J * k + updates) log N) instead of re-sorting N servers per job. This is
// what lets the scheduler handle the paper's Fig-12 scale (thousands of jobs
// on 16k nodes in seconds).
class ServerPool {
 public:
  explicit ServerPool(std::vector<Server>* servers) : servers_(servers) {
    // Bulk make_heap is O(n) versus O(n log n) for element-wise pushes; the
    // keys (free_cpu, server index) form a strict total order, so the pop
    // sequence — and therefore every placement decision — is identical either
    // way.
    heap_.reserve(servers_->size());
    for (size_t s = 0; s < servers_->size(); ++s) {
      // Crashed servers never enter the pool; availability does not change
      // within one PlaceJobs call.
      if ((*servers_)[s].available()) {
        heap_.push_back({(*servers_)[s].Free().cpu(), s});
      }
    }
    std::make_heap(heap_.begin(), heap_.end());
  }

  // Pops up to `count` distinct servers in descending free-CPU order.
  std::vector<size_t> PopMostFree(size_t count) {
    std::vector<size_t> out;
    while (out.size() < count && !heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end());
      const auto [free_cpu, s] = heap_.back();
      heap_.pop_back();
      if (free_cpu != (*servers_)[s].Free().cpu()) {
        // Stale; reinsert fresh.
        heap_.push_back({(*servers_)[s].Free().cpu(), s});
        std::push_heap(heap_.begin(), heap_.end());
        continue;
      }
      out.push_back(s);
    }
    return out;
  }

  // Returns servers to the pool (with their current free values).
  void Push(const std::vector<size_t>& servers) {
    for (size_t s : servers) {
      heap_.push_back({(*servers_)[s].Free().cpu(), s});
      std::push_heap(heap_.begin(), heap_.end());
    }
  }

 private:
  std::vector<Server>* servers_;
  std::vector<std::pair<double, size_t>> heap_;
};

// Places one job under the Optimus scheme; returns false when no k works.
bool PlaceOptimus(const PlacementJobInput& job, std::vector<Server>* servers,
                  ServerPool* pool, DensePlacement* placement) {
  const int max_k =
      std::min<int>(static_cast<int>(servers->size()),
                    job.alloc.num_workers + job.alloc.num_ps);

  // Draw candidates in descending-availability order (the paper's sort) and
  // try packing onto the first k of them for growing k.
  std::vector<size_t> candidates = pool->PopMostFree(static_cast<size_t>(max_k));
  bool placed = false;
  for (int k = 1; k <= static_cast<int>(candidates.size()); ++k) {
    if (TryEvenPlacement(job, candidates, k, servers, placement)) {
      placed = true;
      break;
    }
  }
  pool->Push(candidates);
  return placed;
}

// Rack-aware Theorem-1 variant: tries to pack the whole job under one edge
// switch so its traffic never crosses a rack uplink. Racks are tried in
// descending free-CPU order (ties: lower rack id first); within a rack,
// candidates are its available servers in descending (free_cpu, lower index
// first) order, packed onto the smallest k that fits. When no single rack
// can hold the job, falls back to the global Optimus scheme.
bool PlaceRackAware(const PlacementJobInput& job, int rack_size,
                    std::vector<Server>* servers, ServerPool* pool,
                    DensePlacement* placement) {
  if (rack_size <= 0) {
    return PlaceOptimus(job, servers, pool, placement);
  }
  const int n = static_cast<int>(servers->size());
  const int num_racks = (n + rack_size - 1) / rack_size;

  std::vector<std::pair<double, int>> rack_order;  // (free cpu sum, rack)
  rack_order.reserve(static_cast<size_t>(num_racks));
  for (int r = 0; r < num_racks; ++r) {
    double free_sum = 0.0;
    const int begin = r * rack_size;
    const int end = std::min(n, begin + rack_size);
    for (int s = begin; s < end; ++s) {
      if ((*servers)[static_cast<size_t>(s)].available()) {
        free_sum += (*servers)[static_cast<size_t>(s)].Free().cpu();
      }
    }
    rack_order.push_back({free_sum, r});
  }
  std::stable_sort(rack_order.begin(), rack_order.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });

  const int tasks = job.alloc.num_workers + job.alloc.num_ps;
  std::vector<size_t> candidates;
  for (const auto& [free_sum, r] : rack_order) {
    candidates.clear();
    const int begin = r * rack_size;
    const int end = std::min(n, begin + rack_size);
    for (int s = begin; s < end; ++s) {
      if ((*servers)[static_cast<size_t>(s)].available()) {
        candidates.push_back(static_cast<size_t>(s));
      }
    }
    std::stable_sort(candidates.begin(), candidates.end(), [&](size_t a, size_t b) {
      return (*servers)[a].Free().cpu() > (*servers)[b].Free().cpu();
    });
    const int max_k = std::min<int>(static_cast<int>(candidates.size()), tasks);
    for (int k = 1; k <= max_k; ++k) {
      if (TryEvenPlacement(job, candidates, k, servers, placement)) {
        return true;
      }
    }
  }
  // No rack can hold the job alone: spill across racks the Theorem-1 way.
  return PlaceOptimus(job, servers, pool, placement);
}

enum class PickRule { kMostFree, kTightestFit };

// Places a job one task at a time using a server-picking rule; rolls back on
// failure so the servers are unchanged when false is returned.
bool PlacePerTask(const PlacementJobInput& job, PickRule rule,
                  std::vector<Server>* servers, DensePlacement* placement) {
  struct Step {
    size_t server;
    Resources demand;
  };
  std::vector<Step> committed;

  auto pick = [&](const Resources& demand) -> int {
    int best = -1;
    double best_key = rule == PickRule::kMostFree
                          ? -std::numeric_limits<double>::infinity()
                          : std::numeric_limits<double>::infinity();
    for (size_t s = 0; s < servers->size(); ++s) {
      const Server& server = (*servers)[s];
      if (!server.CanFit(demand)) {
        continue;
      }
      // Key on free CPU: most-free spreads load (Kubernetes default);
      // tightest-fit packs to minimize fragmentation (Tetris).
      const double key = server.Free().cpu();
      const bool better =
          rule == PickRule::kMostFree ? key > best_key : key < best_key;
      if (better) {
        best_key = key;
        best = static_cast<int>(s);
      }
    }
    return best;
  };

  auto place_tasks = [&](int count, const Resources& demand,
                         std::vector<int>* per_server) {
    for (int t = 0; t < count; ++t) {
      const int s = pick(demand);
      if (s < 0) {
        return false;
      }
      (*servers)[static_cast<size_t>(s)].Allocate(demand);
      committed.push_back({static_cast<size_t>(s), demand});
      ++(*per_server)[static_cast<size_t>(s)];
    }
    return true;
  };

  // Interleave PS and worker placement so colocations arise naturally.
  if (place_tasks(job.alloc.num_ps, job.ps_demand, &placement->ps_per_server) &&
      place_tasks(job.alloc.num_workers, job.worker_demand,
                  &placement->workers_per_server)) {
    for (const Step& step : committed) {
      placement->used_servers.push_back(static_cast<int>(step.server));
    }
    std::sort(placement->used_servers.begin(), placement->used_servers.end());
    placement->used_servers.erase(
        std::unique(placement->used_servers.begin(), placement->used_servers.end()),
        placement->used_servers.end());
    return true;
  }
  // Roll back — only the entries this attempt touched, so the vectors stay
  // all-zero without an O(servers) sweep.
  for (const Step& step : committed) {
    (*servers)[step.server].Release(step.demand);
    placement->ps_per_server[step.server] = 0;
    placement->workers_per_server[step.server] = 0;
  }
  return false;
}

}  // namespace

std::vector<PlacementTriple> DensePlacement::Triples() const {
  std::vector<PlacementTriple> out;
  for (size_t s = 0; s < workers_per_server.size(); ++s) {
    if (workers_per_server[s] != 0 || ps_per_server[s] != 0) {
      out.push_back({static_cast<int>(s), workers_per_server[s], ps_per_server[s]});
    }
  }
  return out;
}

OracleResult OraclePlaceJobs(PlacementPolicy policy,
                             const std::vector<PlacementJobInput>& jobs,
                             std::vector<Server>* servers_in, bool shrink_to_fit,
                             int rack_size) {
  OracleResult result;
  std::vector<Server>& servers = *servers_in;
  const size_t n_servers = servers.size();

  // Smallest jobs first (total dominant footprint) to avoid starving them.
  const Resources capacity = TotalCapacity(servers);
  std::vector<size_t> job_order(jobs.size());
  std::iota(job_order.begin(), job_order.end(), 0);
  auto footprint = [&](const PlacementJobInput& job) {
    const Resources total = job.worker_demand * job.alloc.num_workers +
                            job.ps_demand * job.alloc.num_ps;
    return total.DominantShare(capacity);
  };
  std::stable_sort(job_order.begin(), job_order.end(), [&](size_t a, size_t b) {
    return footprint(jobs[a]) < footprint(jobs[b]);
  });

  ServerPool pool(&servers);
  for (size_t idx : job_order) {
    PlacementJobInput job = jobs[idx];
    if (!ActiveAllocation(job.alloc, job.comm)) {
      continue;  // job got no resources this interval; nothing to place
    }

    bool placed = false;
    DensePlacement placement;
    // Failed attempts leave the dense vectors all-zero (TryEvenPlacement only
    // commits on success; PlacePerTask rolls back), so one allocation serves
    // every shrink retry.
    placement.workers_per_server.assign(n_servers, 0);
    placement.ps_per_server.assign(n_servers, 0);
    while (true) {
      switch (policy) {
        case PlacementPolicy::kOptimusPack:
          placed = PlaceOptimus(job, &servers, &pool, &placement);
          break;
        case PlacementPolicy::kLoadBalance:
          placed = PlacePerTask(job, PickRule::kMostFree, &servers, &placement);
          break;
        case PlacementPolicy::kTetrisPack:
          placed = PlacePerTask(job, PickRule::kTightestFit, &servers, &placement);
          break;
        case PlacementPolicy::kRackPack:
          placed = PlaceRackAware(job, rack_size, &servers, &pool, &placement);
          break;
      }
      if (placed || !shrink_to_fit ||
          (job.alloc.num_ps <= 1 && job.alloc.num_workers == 1)) {
        break;
      }
      job.alloc.num_ps =
          job.alloc.num_ps > 0 ? std::max(1, job.alloc.num_ps / 2) : 0;
      job.alloc.num_workers = std::max(1, job.alloc.num_workers / 2);
    }

    if (placed) {
      result.placements[job.job_id] = std::move(placement);
      result.effective_alloc[job.job_id] = job.alloc;
    } else {
      result.unplaced.push_back(job.job_id);
    }
  }
  std::sort(result.unplaced.begin(), result.unplaced.end());
  return result;
}

}  // namespace optimus
