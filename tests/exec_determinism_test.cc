// The exec/ determinism contract: every parallel code path produces output
// BIT-IDENTICAL to serial execution for any thread count — sharded
// violation detection, sharded context construction, and τ sweeps of
// whole repairs and searches, on a generated instance.

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "src/eval/experiment.h"
#include "src/exec/sweep.h"

namespace retrust {
namespace {

ExperimentData MakeData(int num_tuples = 400) {
  CensusConfig gen;
  gen.num_tuples = num_tuples;
  gen.num_attrs = 12;
  gen.planted_lhs_sizes = {4};
  gen.seed = 42;
  PerturbOptions perturb;
  perturb.fd_error_rate = 0.5;
  perturb.data_error_rate = 0.03;
  perturb.seed = 7;
  return PrepareExperiment(gen, perturb);
}

// Full structural fingerprint of a Repair; two repairs with equal
// fingerprints are byte-identical for every field the API exposes.
std::string Fingerprint(const std::optional<Repair>& repair,
                        const Schema& schema) {
  if (!repair.has_value()) return "(none)";
  std::string fp = repair->sigma_prime.ToString(schema);
  fp += "|distc=" + std::to_string(repair->distc);
  fp += "|deltaP=" + std::to_string(repair->delta_p);
  for (const AttrSet& ext : repair->extensions) {
    fp += "|" + ext.ToString();
  }
  fp += "|cells:";
  for (const CellRef& c : repair->changed_cells) {
    fp += std::to_string(c.tuple) + "," + std::to_string(c.attr) + ";";
  }
  fp += "|data:" + repair->data.Decode().ToTable();
  return fp;
}

TEST(ExecDeterminism, ViolationDetectionShardedBitIdentical) {
  ExperimentData data = MakeData();
  ConflictGraph serial = BuildConflictGraph(data.encoded(), data.dirty.fds);
  DifferenceSetIndex serial_index(data.encoded(), serial);
  for (int threads : {2, 3, 8}) {
    std::unique_ptr<exec::ThreadPool> pool = exec::MakePool({threads});
    ASSERT_NE(pool, nullptr);
    ConflictGraph sharded =
        BuildConflictGraph(data.encoded(), data.dirty.fds, pool.get());
    EXPECT_EQ(sharded.graph.edges(), serial.graph.edges()) << threads;
    EXPECT_EQ(sharded.edge_fd_mask, serial.edge_fd_mask) << threads;

    DifferenceSetIndex index(data.encoded(), sharded, pool.get());
    ASSERT_EQ(index.size(), serial_index.size()) << threads;
    for (int g = 0; g < index.size(); ++g) {
      EXPECT_EQ(index.group(g).diff, serial_index.group(g).diff) << threads;
      EXPECT_EQ(index.group(g).edges, serial_index.group(g).edges) << threads;
    }
  }
}

TEST(ExecDeterminism, ViolatingPairsShardedBitIdentical) {
  ExperimentData data = MakeData();
  for (const FD& fd : data.dirty.fds.fds()) {
    std::vector<Edge> serial = ViolatingPairs(data.encoded(), fd);
    for (int threads : {2, 8}) {
      std::unique_ptr<exec::ThreadPool> pool = exec::MakePool({threads});
      EXPECT_EQ(ViolatingPairs(data.encoded(), fd, pool.get()), serial)
          << fd.ToString() << " at " << threads << " threads";
    }
  }
}

TEST(ExecDeterminism, SweepMatchesIndependentSerialRuns) {
  ExperimentData data = MakeData(250);
  std::vector<int64_t> taus = exec::TauGridFromRelative(
      {0.0, 0.1, 0.3, 0.6, 0.9}, data.root_delta_p);

  std::vector<ModifyFdsResult> serial;
  for (int64_t tau : taus) {
    serial.push_back(ModifyFds(data.context(), tau));
  }

  std::vector<exec::SearchJob> jobs;
  for (int64_t tau : taus) jobs.push_back({tau, {}});
  for (int threads : {1, 4}) {
    std::unique_ptr<exec::ThreadPool> pool = exec::MakePool({threads});
    std::vector<ModifyFdsResult> swept =
        exec::RunSearches(data.context(), jobs, pool.get());
    ASSERT_EQ(swept.size(), serial.size());
    for (size_t i = 0; i < taus.size(); ++i) {
      ASSERT_EQ(swept[i].repair.has_value(), serial[i].repair.has_value())
          << "tau=" << taus[i] << " threads=" << threads;
      EXPECT_EQ(swept[i].stats.states_visited,
                serial[i].stats.states_visited);
      if (serial[i].repair.has_value()) {
        EXPECT_EQ(swept[i].repair->state, serial[i].repair->state);
        EXPECT_EQ(swept[i].repair->delta_p, serial[i].repair->delta_p);
      }
    }
  }
}

TEST(ExecDeterminism, SweepRepairsReturnedInJobOrder) {
  ExperimentData data = MakeData(250);
  std::vector<exec::SweepJob> jobs;
  for (double tau_r : {0.9, 0.1, 0.5}) {  // deliberately unsorted
    exec::SweepJob job;
    job.tau = TauFromRelative(tau_r, data.root_delta_p);
    jobs.push_back(job);
  }
  std::unique_ptr<exec::ThreadPool> pool = exec::MakePool({4});
  std::vector<RepairOutcome> outcomes =
      exec::RunRepairs(data.context(), data.encoded(), jobs, pool.get());
  ASSERT_EQ(outcomes.size(), jobs.size());
  const Schema& schema = data.dirty_instance().schema();
  for (size_t i = 0; i < jobs.size(); ++i) {
    RepairOptions opts;
    std::optional<Repair> serial =
        RunRepair(data.context(), data.encoded(), jobs[i].tau, opts).repair;
    EXPECT_EQ(Fingerprint(outcomes[i].repair, schema),
              Fingerprint(serial, schema));
  }
}

TEST(ExecDeterminism, ContextConstructionShardedBitIdentical) {
  ExperimentData data = MakeData(250);
  FdSearchContext serial_ctx(data.dirty.fds, data.encoded(), data.weights());
  exec::Options eight;
  eight.num_threads = 8;
  FdSearchContext sharded_ctx(data.dirty.fds, data.encoded(), data.weights(),
                              HeuristicOptions{},
                              exec::MakePool(eight).get());
  ASSERT_EQ(sharded_ctx.index().size(), serial_ctx.index().size());
  for (int g = 0; g < serial_ctx.index().size(); ++g) {
    EXPECT_EQ(sharded_ctx.index().group(g).diff,
              serial_ctx.index().group(g).diff);
    EXPECT_EQ(sharded_ctx.index().group(g).edges,
              serial_ctx.index().group(g).edges);
  }
  EXPECT_EQ(sharded_ctx.RootDeltaP(), serial_ctx.RootDeltaP());
}

}  // namespace
}  // namespace retrust
