// Thread-scaling of the two parallelized hot paths:
//   (a) the difference-set index build — BuildDifferenceSetIndex (blocked)
//       over a 10k-tuple generated instance, sharded on the pool exactly
//       as a Session's context build runs it, and
//   (b) a τ-sweep — many ModifyFds searches over one shared context
//       (exec::RunSearches).
// Reports wall-clock and speedup at 1/2/4/8 threads and cross-checks that
// every thread count produced the identical result (the exec/ determinism
// contract); exits 1 on any divergence.
//
//   build/bench/bench_scaling_threads
//   RETRUST_BENCH_SCALE=0.05 build/bench/bench_scaling_threads  # ~1 s

#include <cinttypes>
#include <memory>

#include "bench/bench_common.h"
#include "src/eval/experiment.h"
#include "src/exec/parallel_for.h"
#include "src/exec/sweep.h"
#include "src/util/timer.h"

using namespace retrust;

namespace {

// One index build; returns a structural checksum over every group's
// difference set, frequency and edge list.
uint64_t BuildIndex(const EncodedInstance& inst, const FDSet& fds,
                    exec::ThreadPool* pool, double* seconds,
                    int64_t* pairs) {
  Timer timer;
  DifferenceSetIndex index = BuildDifferenceSetIndex(inst, fds, pool);
  *seconds = timer.ElapsedSeconds();
  uint64_t checksum = static_cast<uint64_t>(index.size());
  *pairs = 0;
  for (const DiffSetGroup& g : index.groups()) {
    *pairs += static_cast<int64_t>(g.edges.size());
    checksum = checksum * 31 + g.diff.bits();
    checksum = checksum * 31 + static_cast<uint64_t>(g.edges.size());
    for (const Edge& e : g.edges) {
      checksum = checksum * 31 + static_cast<uint64_t>(e.u);
      checksum = checksum * 31 + static_cast<uint64_t>(e.v);
    }
  }
  return checksum;
}

}  // namespace

int main() {
  bench::Banner("Thread scaling",
                "difference-set index build and tau-sweep at 1/2/4/8 "
                "threads");

  CensusConfig gen;
  gen.num_tuples = bench::ScaledN(10000);
  gen.num_attrs = 14;
  gen.planted_lhs_sizes = {5};
  gen.seed = 42;
  PerturbOptions perturb;
  perturb.fd_error_rate = 0.4;
  perturb.data_error_rate = 0.02;
  perturb.seed = 7;
  ExperimentData data = PrepareExperiment(gen, perturb);

  const int thread_counts[] = {1, 2, 4, 8};

  std::printf("--- difference-set index build (%d tuples) ---\n",
              data.encoded().NumTuples());
  std::printf("%8s %12s %10s %14s\n", "threads", "time(s)", "speedup",
              "conflict pairs");
  double serial_seconds = 0.0;
  uint64_t serial_checksum = 0;
  for (int t : thread_counts) {
    std::unique_ptr<exec::ThreadPool> pool = exec::MakePool({t});
    double seconds = 0.0;
    int64_t pairs = 0;
    uint64_t checksum = BuildIndex(data.encoded(), data.dirty.fds, pool.get(),
                                   &seconds, &pairs);
    if (t == 1) {
      serial_seconds = seconds;
      serial_checksum = checksum;
    } else if (checksum != serial_checksum) {
      std::printf("DETERMINISM VIOLATION at %d threads "
                  "(checksum %" PRIu64 " vs %" PRIu64 ")\n",
                  t, checksum, serial_checksum);
      return 1;
    }
    std::printf("%8d %12.3f %9.2fx %14" PRId64 "\n", t, seconds,
                seconds > 0 ? serial_seconds / seconds : 0.0, pairs);
  }

  std::vector<int64_t> taus = exec::TauGridFromRelative(
      {0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9},
      data.root_delta_p);
  std::vector<exec::SearchJob> jobs;
  for (int64_t tau : taus) jobs.push_back({tau, {}});
  // Warm the context's shared memo caches (weight function) so the timed
  // thread-count comparison measures scheduling, not first-run memoization.
  exec::RunSearches(data.context(), jobs, /*pool=*/nullptr);
  std::printf("\n--- tau-sweep (%zu searches, shared context) ---\n",
              taus.size());
  std::printf("%8s %12s %10s\n", "threads", "time(s)", "speedup");
  double serial_sweep = 0.0;
  int64_t serial_visited = -1;
  for (int t : thread_counts) {
    std::unique_ptr<exec::ThreadPool> pool = exec::MakePool({t});
    Timer timer;
    std::vector<ModifyFdsResult> results =
        exec::RunSearches(data.context(), jobs, pool.get());
    double seconds = timer.ElapsedSeconds();
    int64_t visited = 0;
    for (const ModifyFdsResult& r : results) visited += r.stats.states_visited;
    if (t == 1) {
      serial_sweep = seconds;
      serial_visited = visited;
    } else if (visited != serial_visited) {
      std::printf("DETERMINISM VIOLATION at %d threads "
                  "(%lld visited vs %lld)\n",
                  t, static_cast<long long>(visited),
                  static_cast<long long>(serial_visited));
      return 1;
    }
    std::printf("%8d %12.3f %9.2fx\n", t, seconds,
                seconds > 0 ? serial_sweep / seconds : 0.0);
  }

  std::printf("\nExpected shape: near-linear index-build speedup up "
              "to the physical core count (>= 2x at 4 threads on a 4-core "
              "machine); sweep speedup bounded by its longest single "
              "search.\n");
  return 0;
}
