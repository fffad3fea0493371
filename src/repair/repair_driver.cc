#include "src/repair/repair_driver.h"

#include <cmath>

#include "src/util/timer.h"

namespace retrust {

RepairOutcome RunRepair(const FdSearchContext& ctx,
                        const EncodedInstance& inst, int64_t tau,
                        const RepairOptions& opts) {
  Timer timer;
  ModifyFdsResult search = ModifyFds(ctx, tau, opts.search);
  RepairOutcome outcome;
  outcome.stats = search.stats;
  outcome.termination = search.termination;
  if (!search.repair.has_value()) {  // line 5: (φ, φ)
    outcome.seconds = timer.ElapsedSeconds();
    return outcome;
  }

  const FdRepair& fd_repair = *search.repair;
  Rng rng(opts.seed);
  DataRepairResult data = RepairData(inst, fd_repair.sigma_prime, &rng);

  Repair out;
  out.sigma_prime = fd_repair.sigma_prime;
  out.extensions = fd_repair.state.ext;
  out.distc = fd_repair.distc;
  out.data = std::move(data.repaired);
  out.changed_cells = std::move(data.changed_cells);
  out.delta_p = fd_repair.delta_p;
  out.stats = search.stats;
  out.incumbents = std::move(search.incumbents);
  outcome.repair = std::move(out);
  outcome.seconds = timer.ElapsedSeconds();
  return outcome;
}

std::optional<Repair> RepairDataAndFds(const FDSet& sigma,
                                       const EncodedInstance& inst,
                                       int64_t tau,
                                       const WeightFunction& weights,
                                       const RepairOptions& opts) {
  FdSearchContext ctx(sigma, inst, weights, opts.search.heuristic);
  return RunRepair(ctx, inst, tau, opts).repair;
}

int64_t TauFromRelative(double tau_r, int64_t root_delta_p) {
  // !(tau_r > 0) also catches NaN, which would sail through ordered
  // comparisons and llround to an arbitrary τ.
  if (!(tau_r > 0)) tau_r = 0;
  if (tau_r > 1) tau_r = 1;
  if (root_delta_p < 0) root_delta_p = 0;
  return static_cast<int64_t>(
      std::llround(tau_r * static_cast<double>(root_delta_p)));
}

}  // namespace retrust
