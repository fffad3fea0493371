// The shared δP evaluation layer: incidence table → group bitset →
// memoized cover (DESIGN.md "The δP evaluation pipeline").
//
// Single source of truth for "which difference-set groups does state S
// violate" and "what does a greedy cover of those groups cost":
// FdSearchContext::CoverSize, the gc heuristic's group tests and
// Algorithm 3 covers, and the unified-cost baseline all evaluate through
// the one DeltaPEvaluator owned by their FdSearchContext — so one
// ViolationTable and one CoverMemo serve every search, and every τ job of
// an exec/ sweep, over a given (Σ, I).
//
// Every query method is const and thread-safe, and every result is
// bit-identical to the legacy per-state FD-set scans this layer replaced
// (tests/evaluator_oracle_test.cc enforces the equivalence against
// re-implementations of the legacy path). The evaluator is built one way,
// over an index: after a delta it is rebuilt over the patched index
// (Reset), and a snapshot restore builds it over the restored index and
// preloads the saved covers.

#ifndef RETRUST_REPAIR_EVALUATION_H_
#define RETRUST_REPAIR_EVALUATION_H_

#include <memory>
#include <mutex>
#include <vector>

#include "src/fd/violation_table.h"
#include "src/graph/cover_memo.h"
#include "src/repair/state.h"

namespace retrust {

/// Evaluates δP building blocks for the states of one (Σ, I) search.
class DeltaPEvaluator {
 public:
  /// Builds the violation table and a cover memo over the index's groups,
  /// seeded with `covers` (a snapshot's cached covers; empty for a cold
  /// build). `index` must outlive the evaluator (FdSearchContext owns
  /// both, index first). Answers are bit-identical whatever `covers` holds:
  /// cached cover values are pure functions of their keys.
  DeltaPEvaluator(const FDSet& sigma, const DifferenceSetIndex& index,
                  int num_tuples, CoverMemo::SnapshotEntries covers = {});

  /// Rebuilds the evaluator over `index` after a delta patched it in place
  /// (the SAME index this evaluator was built over): a new violation table
  /// and an empty cover memo, exactly what a fresh build holds. Requires
  /// external exclusion against concurrent queries (the session's version
  /// layer provides it).
  void Reset(const FDSet& sigma, const DifferenceSetIndex& index,
             int num_tuples);

  const ViolationTable& table() const { return table_; }
  const CoverMemo& memo() const { return memo_; }

  /// True iff diff-set group g is violated under `s`.
  bool GroupViolated(int g, const SearchState& s) const {
    return table_.GroupViolated(g, s.ext);
  }

  /// Indices of the groups violated under `s`, ascending.
  std::vector<int> ViolatedGroupIds(const SearchState& s) const;

  /// |C2opt(Σ', I)| for the relaxation `s`: memoized greedy cover of the
  /// violated groups in canonical order. Counts a recomputation in
  /// stats->vc_computations and a memo answer in stats->vc_memo_hits
  /// (their sum is what the legacy path counted as vc_computations).
  int32_t CoverSize(const SearchState& s, SearchStats* stats) const;

  /// Greedy cover over `groups` in the GIVEN order (Algorithm 3
  /// accumulates unresolved groups in selection order, and greedy covers
  /// are order-sensitive); memoized with the order as part of the key.
  int32_t CoverOfGroups(const std::vector<int>& groups,
                        SearchStats* stats) const;

 private:
  /// Pooled per-call key buffers (no process-lifetime thread_local state;
  /// the pool dies with the evaluator).
  struct KeyScratch {
    GroupBitset set_key;
    std::vector<int32_t> seq_key;
  };
  std::unique_ptr<KeyScratch> AcquireKey() const;
  void ReleaseKey(std::unique_ptr<KeyScratch> key) const;

  ViolationTable table_;
  CoverMemo memo_;
  mutable std::mutex mu_;
  mutable std::vector<std::unique_ptr<KeyScratch>> key_pool_;
};

}  // namespace retrust

#endif  // RETRUST_REPAIR_EVALUATION_H_
