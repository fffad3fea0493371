#include "src/repair/unified_cost.h"

#include "src/graph/vertex_cover.h"
#include "src/util/timer.h"

namespace retrust {

Repair UnifiedCostRepair(const FDSet& sigma, const EncodedInstance& inst,
                         const WeightFunction& weights,
                         const UnifiedCostOptions& opts) {
  Timer timer;
  // The greedy descent scores every candidate via ctx.DeltaP, i.e. through
  // the context's shared δP evaluation layer — candidates revisited across
  // descent rounds hit the cover memo instead of recomputing.
  FdSearchContext ctx(sigma, inst, weights);
  SearchStats stats;

  SearchState current = SearchState::Root(sigma.size());
  double current_fd_cost = 0.0;
  int64_t current_delta = ctx.DeltaP(current, &stats);
  double current_score = static_cast<double>(current_delta);

  // Greedy descent over single-attribute LHS appends.
  bool improved = true;
  while (improved && current_delta > 0) {
    improved = false;
    SearchState best_state = current;
    double best_score = current_score;
    double best_fd_cost = current_fd_cost;
    int64_t best_delta = current_delta;
    for (int i = 0; i < sigma.size(); ++i) {
      if (opts.single_attr_per_fd && !current.ext[i].Empty()) continue;
      for (AttrId a : ctx.space().allowed(i).Minus(current.ext[i])) {
        SearchState cand = current;
        cand.ext[i].Add(a);
        double fd_cost = weights.Cost(cand.ext);
        int64_t delta = ctx.DeltaP(cand, &stats);
        double score =
            static_cast<double>(delta) + opts.lambda * fd_cost;
        ++stats.states_visited;
        if (score + 1e-12 < best_score) {
          best_score = score;
          best_state = cand;
          best_fd_cost = fd_cost;
          best_delta = delta;
          improved = true;
        }
      }
    }
    if (improved) {
      current = best_state;
      current_score = best_score;
      current_fd_cost = best_fd_cost;
      current_delta = best_delta;
    }
  }

  FDSet sigma_prime = current.Apply(sigma);
  Rng rng(opts.seed);
  DataRepairResult data = RepairData(inst, sigma_prime, &rng);

  Repair out;
  out.sigma_prime = std::move(sigma_prime);
  out.extensions = current.ext;
  out.distc = current_fd_cost;
  out.data = std::move(data.repaired);
  out.changed_cells = std::move(data.changed_cells);
  out.delta_p = current_delta;
  out.stats = stats;
  out.stats.seconds = timer.ElapsedSeconds();
  return out;
}

}  // namespace retrust
