// Oracle tests for the δP evaluation pipeline (ViolationTable → group
// bitset → CoverMemo; DESIGN.md): every fast path must be BIT-IDENTICAL to
// the legacy per-state FD-set scan it replaced, across randomized
// instances, states, thread counts, and τ values. The suite is named
// Exec* so CI's TSan job exercises the memo's concurrency too.

#include <memory>

#include <gtest/gtest.h>

#include "src/eval/experiment.h"
#include "src/exec/sweep.h"
#include "src/fd/violation_table.h"
#include "src/graph/cover_memo.h"
#include "src/repair/evaluation.h"
#include "src/util/rng.h"

namespace retrust {
namespace {

ExperimentData MakeData(uint64_t seed, int num_tuples = 300) {
  CensusConfig gen;
  gen.num_tuples = num_tuples;
  gen.num_attrs = 12;
  gen.planted_lhs_sizes = {4};
  gen.seed = seed;
  PerturbOptions perturb;
  perturb.fd_error_rate = 0.5;
  perturb.data_error_rate = 0.03;
  perturb.seed = seed + 1;
  return PrepareExperiment(gen, perturb);
}

// The pre-refactor violation test, verbatim: difference set d violates FD
// i of the relaxation iff A_i ∈ d and (X_i ∪ Y_i) ∩ d = ∅.
bool LegacyGroupViolated(const FDSet& sigma, AttrSet diff,
                         const SearchState& s) {
  for (int i = 0; i < sigma.size(); ++i) {
    const FD& fd = sigma.fd(i);
    if (diff.Contains(fd.rhs) && !fd.lhs.Union(s.ext[i]).Intersects(diff)) {
      return true;
    }
  }
  return false;
}

// The pre-refactor FdSearchContext::CoverSize, verbatim: concatenate the
// edges of violated groups in canonical index order, greedy matching.
int64_t LegacyCoverSize(const FdSearchContext& ctx, const SearchState& s) {
  std::vector<Edge> edges;
  for (const DiffSetGroup& g : ctx.index().groups()) {
    if (LegacyGroupViolated(ctx.sigma(), g.diff, s)) {
      edges.insert(edges.end(), g.edges.begin(), g.edges.end());
    }
  }
  MatchingCoverScratch scratch(ctx.num_tuples());
  return scratch.CoverSize(edges);
}

// A mix of states: the root, random walks down the unique-parent tree
// (realistic search states), and uniformly random extension vectors within
// allowed() (adversarial coverage).
std::vector<SearchState> RandomStates(const FdSearchContext& ctx, Rng* rng,
                                      size_t count) {
  std::vector<SearchState> out;
  out.push_back(SearchState::Root(ctx.sigma().size()));
  while (out.size() < count / 2) {
    SearchState s = SearchState::Root(ctx.sigma().size());
    int depth = static_cast<int>(rng->NextInt(1, 4));
    for (int d = 0; d < depth; ++d) {
      std::vector<SearchState> kids = ctx.space().Children(s);
      if (kids.empty()) break;
      s = kids[rng->PickIndex(kids)];
    }
    out.push_back(std::move(s));
  }
  while (out.size() < count) {
    SearchState s(ctx.sigma().size());
    for (int i = 0; i < ctx.sigma().size(); ++i) {
      for (AttrId a : ctx.space().allowed(i)) {
        if (rng->NextBool(0.25)) s.ext[i].Add(a);
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

TEST(ExecEvaluationOracle, ViolationTableMatchesLegacyScan) {
  for (uint64_t seed : {11u, 42u, 99u}) {
    ExperimentData data = MakeData(seed);
    const FdSearchContext& ctx = data.context();
    const ViolationTable& table = ctx.evaluator().table();
    ASSERT_EQ(table.num_groups(), ctx.index().size());
    ASSERT_EQ(table.num_fds(), ctx.sigma().size());
    Rng rng(seed);
    for (const SearchState& s : RandomStates(ctx, &rng, 40)) {
      GroupBitset bits;
      table.ViolatedGroups(s.ext, &bits);
      for (int g = 0; g < ctx.index().size(); ++g) {
        bool legacy =
            LegacyGroupViolated(ctx.sigma(), ctx.index().group(g).diff, s);
        EXPECT_EQ(table.GroupViolated(g, s.ext), legacy)
            << "group " << g << " state " << s.ToString();
        EXPECT_EQ(bits.Test(g), legacy)
            << "bitset group " << g << " state " << s.ToString();
      }
    }
  }
}

TEST(ExecEvaluationOracle, MemoizedCoverMatchesLegacyScan) {
  for (uint64_t seed : {7u, 23u}) {
    ExperimentData data = MakeData(seed);
    const FdSearchContext& ctx = data.context();
    Rng rng(seed);
    std::vector<SearchState> states = RandomStates(ctx, &rng, 30);
    SearchStats stats;
    std::vector<int64_t> first_pass;
    for (const SearchState& s : states) {
      int64_t got = ctx.CoverSize(s, &stats);
      EXPECT_EQ(got, LegacyCoverSize(ctx, s)) << s.ToString();
      first_pass.push_back(got);
    }
    // Second pass re-evaluates every state: answers must be identical and
    // now come (at least partly) from the memo.
    int64_t hits_before = stats.vc_memo_hits;
    for (size_t i = 0; i < states.size(); ++i) {
      EXPECT_EQ(ctx.CoverSize(states[i], &stats), first_pass[i]);
    }
    EXPECT_GT(stats.vc_memo_hits, hits_before);
  }
}

TEST(ExecEvaluationOracle, OrderedCoverMatchesOrderSensitiveConcat) {
  ExperimentData data = MakeData(5);
  const FdSearchContext& ctx = data.context();
  const DeltaPEvaluator& ev = ctx.evaluator();
  int n = ctx.index().size();
  ASSERT_GT(n, 1);
  Rng rng(5);
  for (int trial = 0; trial < 60; ++trial) {
    // A random subset of group ids in a random ORDER — the order is part
    // of the semantics (greedy matching is order-sensitive).
    std::vector<int> groups;
    for (int g = 0; g < n; ++g) {
      if (rng.NextBool(0.3)) groups.push_back(g);
    }
    rng.Shuffle(&groups);
    int32_t got = ev.CoverOfGroups(groups, nullptr);
    std::vector<Edge> edges;
    for (int g : groups) {
      const auto& ge = ctx.index().group(g).edges;
      edges.insert(edges.end(), ge.begin(), ge.end());
    }
    MatchingCoverScratch scratch(ctx.num_tuples());
    EXPECT_EQ(got, scratch.CoverSize(edges));
    // Memo hit path answers the same.
    EXPECT_EQ(ev.CoverOfGroups(groups, nullptr), got);
  }
}

TEST(ExecEvaluationOracle, GcMatchesLegacyHeuristicPath) {
  for (uint64_t seed : {13u, 57u}) {
    ExperimentData data = MakeData(seed);
    const FdSearchContext& ctx = data.context();
    // A standalone GcHeuristic (no evaluator) keeps the pre-refactor scan
    // path; the context's heuristic runs through the table + cover memo.
    // Identical inputs must give EXACTLY identical gc values.
    GcHeuristic legacy(ctx.sigma(), ctx.space(), ctx.weights(), ctx.index(),
                       ctx.num_tuples());
    Rng rng(seed);
    std::vector<SearchState> states = RandomStates(ctx, &rng, 16);
    for (double tau_r : {0.0, 0.2, 0.6, 1.0}) {
      int64_t tau = TauFromRelative(tau_r, data.root_delta_p);
      for (const SearchState& s : states) {
        SearchStats st_new;
        SearchStats st_old;
        EXPECT_EQ(ctx.heuristic().Compute(s, tau, &st_new),
                  legacy.Compute(s, tau, &st_old))
            << "tau_r=" << tau_r << " state " << s.ToString();
      }
    }
  }
}

TEST(ExecEvaluationOracle, ModifyFdsBitIdenticalAcrossThreadsAndTaus) {
  for (uint64_t seed : {3u, 21u}) {
    ExperimentData data = MakeData(seed);
    for (double tau_r : {0.0, 0.1, 0.3, 0.7, 1.0}) {
      int64_t tau = TauFromRelative(tau_r, data.root_delta_p);
      // Warm-memo serial run on the shared context...
      ModifyFdsResult serial = ModifyFds(data.context(), tau);
      // ...must equal a cold-memo run on a fresh context (cache contents
      // can never change results).
      FdSearchContext fresh(data.dirty.fds, data.encoded(), data.weights());
      ModifyFdsResult cold = ModifyFds(fresh, tau);
      EXPECT_EQ(cold.stats.states_visited, serial.stats.states_visited);
      EXPECT_EQ(cold.stats.states_generated, serial.stats.states_generated);
      ASSERT_EQ(cold.repair.has_value(), serial.repair.has_value());
      if (serial.repair.has_value()) {
        EXPECT_EQ(cold.repair->state, serial.repair->state);
        EXPECT_EQ(cold.repair->distc, serial.repair->distc);
        EXPECT_EQ(cold.repair->cover_size, serial.repair->cover_size);
        EXPECT_EQ(cold.repair->delta_p, serial.repair->delta_p);
      }
    }
  }
}

// The sweep shares ONE evaluation layer across τ jobs: states visited by
// several jobs pay for their cover once. Checked behaviorally (results
// identical to independent serial runs — exec_determinism_test covers the
// rest) plus via the memo's effectiveness counters.
TEST(ExecEvaluationOracle, SweepSharesCoverMemoAcrossTauJobs) {
  ExperimentData data = MakeData(47, 250);
  std::vector<int64_t> taus = exec::TauGridFromRelative(
      {0.1, 0.3, 0.5, 0.7, 0.9}, data.root_delta_p);
  CoverMemo::Stats before = data.context().evaluator().memo().stats();
  std::vector<exec::SearchJob> jobs;
  for (int64_t tau : taus) jobs.push_back({tau, {}});
  std::unique_ptr<exec::ThreadPool> pool = exec::MakePool({4});
  std::vector<ModifyFdsResult> swept =
      exec::RunSearches(data.context(), jobs, pool.get());
  CoverMemo::Stats after = data.context().evaluator().memo().stats();
  ASSERT_EQ(swept.size(), taus.size());
  EXPECT_GT(after.hits, before.hits);  // cross-job (and in-job) reuse
  for (size_t i = 0; i < taus.size(); ++i) {
    FdSearchContext fresh(data.dirty.fds, data.encoded(), data.weights());
    ModifyFdsResult serial = ModifyFds(fresh, taus[i]);
    EXPECT_EQ(swept[i].stats.states_visited, serial.stats.states_visited);
    ASSERT_EQ(swept[i].repair.has_value(), serial.repair.has_value());
    if (serial.repair.has_value()) {
      EXPECT_EQ(swept[i].repair->state, serial.repair->state);
      EXPECT_EQ(swept[i].repair->delta_p, serial.repair->delta_p);
    }
  }
}

}  // namespace
}  // namespace retrust
