// The compact placement engine (src/sched/placement.cc) against the original
// dense engine kept in tests/placement_oracle.cc: for every policy, on seeded
// random heterogeneous clusters with crashed and partly occupied servers,
// racks, all-reduce jobs and shrink-to-fit, both must produce the same
// placements, effective allocations and unplaced lists, and leave every
// server with the same free capacity.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/cluster/server.h"
#include "src/common/rng.h"
#include "src/sched/placement.h"
#include "tests/placement_oracle.h"

namespace optimus {
namespace {

std::vector<PlacementTriple> Triples(const JobPlacement& placement) {
  std::vector<PlacementTriple> out;
  placement.ForEachUsed([&](size_t s, int w, int p) {
    out.push_back({static_cast<int>(s), w, p});
  });
  return out;
}

std::vector<Server> RandomCluster(Rng* rng) {
  const Resources kClasses[] = {Resources(16, 80, 0, 1), Resources(8, 48, 2, 1),
                                Resources(32, 128, 0, 1), Resources(12, 64, 1, 1)};
  const int n = static_cast<int>(rng->UniformInt(4, 40));
  std::vector<Server> servers;
  for (int s = 0; s < n; ++s) {
    servers.emplace_back(s, kClasses[rng->UniformInt(0, 3)]);
    Server& server = servers.back();
    if (rng->Uniform(0.0, 1.0) < 0.4) {
      // Partly occupied by tasks placed in an earlier round.
      const double f = rng->Uniform(0.1, 0.9);
      const Resources& cap = server.capacity();
      server.Allocate(Resources(cap.cpu() * f, cap.memory_gb() * f, 0, cap.bandwidth_gbps() * f));
    }
    if (rng->Uniform(0.0, 1.0) < 0.1) {
      server.SetAvailable(false);
    }
  }
  return servers;
}

std::vector<PlacementJobInput> RandomJobs(Rng* rng) {
  const int n = static_cast<int>(rng->UniformInt(1, 25));
  std::vector<PlacementJobInput> jobs;
  for (int j = 0; j < n; ++j) {
    PlacementJobInput in;
    in.job_id = 100 + j;
    in.comm = rng->Uniform(0.0, 1.0) < 0.25 ? CommMode::kAllReduce
                                            : CommMode::kParameterServer;
    in.alloc.num_ps =
        in.comm == CommMode::kAllReduce ? 0 : static_cast<int>(rng->UniformInt(0, 8));
    // Occasionally far more tasks than fit, to exercise shrink-to-fit.
    in.alloc.num_workers = static_cast<int>(
        rng->Uniform(0.0, 1.0) < 0.15 ? rng->UniformInt(20, 60) : rng->UniformInt(0, 12));
    const double gpu = rng->Uniform(0.0, 1.0) < 0.2 ? 1.0 : 0.0;
    in.worker_demand = Resources(rng->Uniform(0.5, 6.0), rng->Uniform(2.0, 20.0), gpu,
                                 rng->Uniform(0.02, 0.3));
    in.ps_demand = Resources(rng->Uniform(0.5, 4.0), rng->Uniform(2.0, 12.0), 0,
                             rng->Uniform(0.02, 0.3));
    jobs.push_back(in);
  }
  return jobs;
}

TEST(PlacementOracleTest, AllPoliciesMatchDenseOracle) {
  Rng rng(20181);
  int placed_jobs = 0;
  int shrunk_jobs = 0;
  int unplaced_jobs = 0;
  for (const PlacementPolicy policy :
       {PlacementPolicy::kOptimusPack, PlacementPolicy::kLoadBalance,
        PlacementPolicy::kTetrisPack, PlacementPolicy::kRackPack}) {
    for (int trial = 0; trial < 150; ++trial) {
      const std::vector<Server> cluster = RandomCluster(&rng);
      const std::vector<PlacementJobInput> jobs = RandomJobs(&rng);
      const bool shrink = rng.Uniform(0.0, 1.0) < 0.8;
      const int rack_size = static_cast<int>(rng.UniformInt(0, 8));
      const std::string label = std::string(PlacementPolicyName(policy)) +
                                " trial=" + std::to_string(trial);

      std::vector<Server> compact_servers = cluster;
      std::vector<Server> oracle_servers = cluster;
      const PlacementResult got =
          PlaceJobs(policy, jobs, &compact_servers, shrink, rack_size);
      const OracleResult want =
          OraclePlaceJobs(policy, jobs, &oracle_servers, shrink, rack_size);

      EXPECT_EQ(got.unplaced, want.unplaced) << label;
      ASSERT_EQ(got.placements.size(), want.placements.size()) << label;
      for (const auto& [id, dense] : want.placements) {
        const auto it = got.placements.find(id);
        ASSERT_NE(it, got.placements.end()) << label << " job " << id;
        EXPECT_EQ(Triples(it->second), dense.Triples()) << label << " job " << id;
        EXPECT_EQ(it->second.used_servers, dense.used_servers) << label << " job " << id;
      }
      ASSERT_EQ(got.effective_alloc.size(), want.effective_alloc.size()) << label;
      for (const auto& [id, alloc] : want.effective_alloc) {
        const auto it = got.effective_alloc.find(id);
        ASSERT_NE(it, got.effective_alloc.end()) << label << " job " << id;
        EXPECT_EQ(it->second, alloc) << label << " job " << id;
        const auto requested = std::find_if(
            jobs.begin(), jobs.end(), [&](const PlacementJobInput& j) { return j.job_id == id; });
        shrunk_jobs += requested->alloc == alloc ? 0 : 1;
      }
      for (size_t s = 0; s < cluster.size(); ++s) {
        EXPECT_TRUE(compact_servers[s].Free() == oracle_servers[s].Free())
            << label << " server " << s;
      }
      placed_jobs += static_cast<int>(want.placements.size());
      unplaced_jobs += static_cast<int>(want.unplaced.size());
    }
  }
  // The generator must actually reach every branch it claims to cover.
  EXPECT_GT(placed_jobs, 1000);
  EXPECT_GT(shrunk_jobs, 20);
  EXPECT_GT(unplaced_jobs, 20);
}

TEST(CompactPlacementTest, CompactAndDenseFormsAgree) {
  // The oracle's dense form and the engine's compact form describe the same
  // placement through the same (server, workers, ps) triples.
  DensePlacement dense;
  dense.workers_per_server = {0, 2, 0, 1};
  dense.ps_per_server = {1, 0, 0, 2};

  JobPlacement compact;
  compact.Add(0, 0, 1);
  compact.Add(1, 2, 0);
  compact.Add(3, 1, 2);

  EXPECT_FALSE(compact.empty());
  EXPECT_EQ(compact.TotalWorkers(), 3);
  EXPECT_EQ(compact.TotalPs(), 3);
  EXPECT_EQ(Triples(compact), dense.Triples());
}

}  // namespace
}  // namespace optimus
