#include "src/exec/sweep.h"

#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

namespace retrust::exec {

namespace {

/// The search options of either job kind (const or not).
template <typename Job>
auto& SearchOptionsOf(Job& job) {
  if constexpr (std::is_same_v<std::remove_const_t<Job>, SweepJob>) {
    return job.opts.search;
  } else {
    return job.opts;
  }
}

/// Greedy jobs of a mixed sweep run as a FIRST wave so their incumbents
/// can seed the expensive jobs' pruning. Monotonicity argument: a repair
/// feasible at τ_g is feasible at every τ ≥ τ_g (the data-side budget only
/// loosens), so the cheapest greedy distc over jobs with τ_g ≤ τ upper-
/// bounds the optimal distc at τ. The engine prunes only STRICTLY above
/// the cap (engine.cc), so the seeded job can still reach every repair
/// costing ≤ the seed — including the optimum — and exact jobs ignore
/// `initial_upper_bound` entirely, so their results cannot change.
bool IsGreedy(const ModifyFdsOptions& opts) {
  return opts.policy.policy == search::SearchPolicy::kGreedy;
}

/// Best (smallest) admissible seed for a job at `tau`: the min distc over
/// wave-one repairs found at τ_g ≤ tau. 0 = no seed.
double SeedFor(int64_t tau, const std::vector<std::pair<int64_t, double>>&
                                greedy_incumbents) {
  double seed = 0.0;
  for (const auto& [tau_g, distc] : greedy_incumbents) {
    if (tau_g > tau) continue;
    if (seed <= 0.0 || distc < seed) seed = distc;
  }
  return seed;
}

void ApplySeed(ModifyFdsOptions* opts, double seed) {
  if (seed <= 0.0) return;
  double& ub = opts->policy.initial_upper_bound;
  if (ub <= 0.0 || seed < ub) ub = seed;
}

/// The one greedy-first wave scheduler behind RunRepairs and RunSearches:
/// greedy jobs run first, then every other job, seeded from their
/// incumbents. `run_one(job)` runs one job.
template <typename Outcome, typename Job, typename RunOne>
std::vector<Outcome> RunWaves(const char* name, const FdSearchContext& ctx,
                              const std::vector<Job>& jobs, ThreadPool* pool,
                              RunOne run_one) {
  const uint64_t version = ctx.version();
  std::vector<Outcome> outcomes(jobs.size());

  // A uniform-policy sweep leaves one wave empty, so it runs as one wave.
  std::vector<size_t> first_wave, second_wave;
  for (size_t i = 0; i < jobs.size(); ++i) {
    (IsGreedy(SearchOptionsOf(jobs[i])) ? first_wave : second_wave)
        .push_back(i);
  }

  auto run_wave = [&](const std::vector<size_t>& wave,
                      const std::vector<std::pair<int64_t, double>>&
                          incumbents) {
    TaskGroup group(pool);
    for (size_t i : wave) {
      const double seed = SeedFor(jobs[i].tau, incumbents);
      group.Run([&jobs, &outcomes, &run_one, i, seed] {
        Job job = jobs[i];
        ApplySeed(&SearchOptionsOf(job), seed);
        outcomes[i] = run_one(job);
      });
    }
    group.Wait();
  };

  run_wave(first_wave, {});
  std::vector<std::pair<int64_t, double>> incumbents;
  for (size_t i : first_wave) {
    if (outcomes[i].repair.has_value()) {
      incumbents.emplace_back(jobs[i].tau, outcomes[i].repair->distc);
    }
  }
  run_wave(second_wave, incumbents);

  if (ctx.version() != version) {
    throw std::logic_error(
        std::string("exec::") + name + ": context version moved from " +
        std::to_string(version) + " to " + std::to_string(ctx.version()) +
        " while the sweep ran — a delta raced it");
  }
  return outcomes;
}

}  // namespace

std::vector<RepairOutcome> RunRepairs(const FdSearchContext& ctx,
                                      const EncodedInstance& inst,
                                      const std::vector<SweepJob>& jobs,
                                      ThreadPool* pool) {
  return RunWaves<RepairOutcome>(
      "RunRepairs", ctx, jobs, pool, [&ctx, &inst](const SweepJob& job) {
        return RunRepair(ctx, inst, job.tau, job.opts);
      });
}

std::vector<ModifyFdsResult> RunSearches(const FdSearchContext& ctx,
                                         const std::vector<SearchJob>& jobs,
                                         ThreadPool* pool) {
  return RunWaves<ModifyFdsResult>(
      "RunSearches", ctx, jobs, pool, [&ctx](const SearchJob& job) {
        return ModifyFds(ctx, job.tau, job.opts);
      });
}

std::vector<int64_t> TauGridFromRelative(const std::vector<double>& taus_r,
                                         int64_t root_delta_p) {
  std::vector<int64_t> taus;
  taus.reserve(taus_r.size());
  for (double tr : taus_r) taus.push_back(TauFromRelative(tr, root_delta_p));
  return taus;
}

}  // namespace retrust::exec
