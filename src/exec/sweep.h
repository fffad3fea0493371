// The τ-sweep scheduler: run many (τ, options) repair jobs concurrently
// over ONE shared FdSearchContext.
//
// The paper's experiments (Figs. 9-12) sweep the trust threshold τ and
// re-run Algorithm 1/2 at every grid point; the context (conflict graph,
// difference-set index, violation table, cover memo, heuristic) is
// τ-independent and therefore shared — in particular all jobs of a sweep
// evaluate through ONE ViolationTable and ONE memoized cover layer, so a
// state visited by several τ jobs pays for its cover once (DESIGN.md,
// "The δP evaluation pipeline"). Each job runs the SERIAL search engine on
// a pool worker (job-level parallelism composes better than nested
// state-level parallelism and keeps every job's result trivially
// deterministic); outcomes are returned in job order regardless of
// completion order.
//
// This header is the top of the exec/ subsystem and depends on src/repair/;
// the primitives it schedules on (thread_pool.h, parallel_for.h) depend on
// nothing and are used as far down as src/fd/. See DESIGN.md.

#ifndef RETRUST_EXEC_SWEEP_H_
#define RETRUST_EXEC_SWEEP_H_

#include <vector>

#include "src/exec/thread_pool.h"
#include "src/repair/repair_driver.h"

namespace retrust::exec {

/// One job of a sweep: an end-to-end repair at trust level τ. The sweep
/// parallelizes ACROSS jobs; each job's search runs serially on its
/// worker. Every search knob rides along per job, including
/// `opts.search.policy`: a sweep can mix exact and anytime/greedy jobs
/// freely (each job runs its own engine loop with its own
/// incumbents/bounds; the shared context and cover memo stay
/// policy-agnostic).
///
/// Mixed-policy sweeps are scheduled POLICY-AWARE: all kGreedy jobs run as
/// a first wave, and each remaining job's `initial_upper_bound` is seeded
/// with the cheapest greedy incumbent found at a τ_g ≤ its own τ (repairs
/// feasible at a tighter τ stay feasible, so the bound is admissible and
/// tightens only the cap, never below the optimum). Exact jobs ignore the
/// seed by engine construction, so their results are bit-identical with
/// and without it; anytime jobs just prune dominated states earlier.
struct SweepJob {
  int64_t tau = 0;
  RepairOptions opts;
};

/// One search-only job (Algorithm 2, no data materialization).
struct SearchJob {
  int64_t tau = 0;
  ModifyFdsOptions opts;
};

// Both runners schedule on `pool` (nullable, NOT owned; null = serial
// inline execution) and only read `ctx` and `inst`, whose const interfaces
// are thread-safe by design. Results come back in job order.
//
// Snapshot discipline: each call reads the context's data version
// (FdSearchContext::version()) on entry and throws std::logic_error if it
// changed by exit, so a delta that races a running sweep is detected
// instead of silently mixing pre- and post-delta answers. Nothing outlives
// a call, so a delta applied BETWEEN calls needs no re-pinning.

/// Runs Algorithm 1 (RunRepair) for every job concurrently. Each outcome
/// carries its job's wall-clock `seconds`; τ is the job's.
std::vector<RepairOutcome> RunRepairs(const FdSearchContext& ctx,
                                      const EncodedInstance& inst,
                                      const std::vector<SweepJob>& jobs,
                                      ThreadPool* pool);

/// Runs Algorithm 2 (ModifyFds) for every job concurrently.
std::vector<ModifyFdsResult> RunSearches(const FdSearchContext& ctx,
                                         const std::vector<SearchJob>& jobs,
                                         ThreadPool* pool);

/// Absolute τ grid from relative trust levels τr ∈ [0, 1] against a root
/// bound (convenience for the Figure 9-12 style sweeps).
std::vector<int64_t> TauGridFromRelative(const std::vector<double>& taus_r,
                                         int64_t root_delta_p);

}  // namespace retrust::exec

#endif  // RETRUST_EXEC_SWEEP_H_
