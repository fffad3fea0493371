// Difference sets (paper §5.2): for a conflict-graph edge (t_i, t_j), the
// set of attributes on which the two tuples disagree.
//
// Key property (the gc heuristic's atomicity trick): whether an edge
// violates an FD X -> A depends only on its difference set d —
// the pair agrees on X iff X ∩ d = ∅ and disagrees on A iff A ∈ d.
// DifferenceSetIndex therefore groups conflict edges by difference set and
// treats each group atomically.
//
// Two builders produce the same index (DESIGN.md "Blocked difference-set
// construction"):
//   * naive  — all O(n²) pairs through the conflict graph (the oracle);
//   * blocked — per-attribute equivalence-class partitions enumerate only
//     pairs that agree on at least one attribute, deduped by the
//     first-agreeing-attribute ownership rule. The residual pairs that
//     disagree EVERYWHERE are conflict edges only under an empty-LHS FD;
//     then one all-pairs scan stores them as the universe group.
// Both are bit-identical at any thread count; blocked is the default.

#ifndef RETRUST_FD_DIFFERENCE_SET_H_
#define RETRUST_FD_DIFFERENCE_SET_H_

#include <string>
#include <vector>

#include "src/fd/conflict_graph.h"

namespace retrust {

/// Difference set of a tuple pair: attributes with unequal codes. Exits as
/// soon as the set reaches all attributes.
AttrSet DiffSetOfPair(const EncodedInstance& inst, TupleId t1, TupleId t2);

/// Column-pointer overload for the blocked build and delta discovery:
/// `cols[a]` is inst.ColumnData(a), so each cell test is one indexed load
/// with no Flat(t, a) multiply.
AttrSet DiffSetOfPair(const int32_t* const* cols, int num_attrs, TupleId t1,
                      TupleId t2);

/// One group of conflict edges sharing a difference set, in canonical
/// ascending (u, v) order. `edges.size()` is the group's frequency, the
/// heuristic's ranking key.
struct DiffSetGroup {
  AttrSet diff;
  std::vector<Edge> edges;
};

/// Per-phase observability of one index build (the --timing surface of
/// csv_repair_tool and the scaling bench).
struct DiffSetBuildStats {
  int64_t pairs_candidate = 0;     ///< pairs enumerated inside classes
  int64_t pairs_owned = 0;         ///< pairs passing the ownership rule
  int64_t pairs_materialized = 0;  ///< conflict edges stored in groups
  /// Pairs that agree on no attribute. The partition phase never
  /// enumerates them; they are stored only when Σ has an empty-LHS FD.
  int64_t pairs_counted = 0;
  double partition_seconds = 0.0;  ///< per-attribute partition phase
  double enumerate_seconds = 0.0;  ///< in-class pair enumeration phase
  double group_seconds = 0.0;      ///< merge + group + rank phase
  double total_seconds = 0.0;
};

/// Which front door BuildDifferenceSetIndex uses. kNaive (all pairs via
/// the conflict graph) stays available as the oracle the blocked build is
/// tested and benchmarked against.
enum class DiffSetBuildMode { kBlocked, kNaive };

/// How a delta landed on a DifferenceSetIndex: the group-id translation
/// consumers of the canonical group order (violation table, cover memo)
/// need to stay warm, plus blast-radius counters for observability.
struct IndexPatch {
  /// Pre-patch group id -> post-patch group id for groups whose difference
  /// set AND edge list survived the delta untouched; -1 for groups that
  /// gained/lost edges or were dropped. Preserved groups keep their
  /// relative order (the (frequency, diff) sort key is a total order and
  /// their keys did not change), which is what lets cover-memo entries
  /// over preserved groups be remapped instead of recomputed.
  std::vector<int32_t> old_to_new;
  int64_t edges_removed = 0;
  int64_t edges_added = 0;
  int groups_preserved = 0;  ///< old groups with old_to_new[g] >= 0
  int groups_changed = 0;    ///< post-patch groups that are new or changed
};

/// Conflict edges grouped by difference set, ordered by descending edge
/// frequency (ties: smaller attribute mask first) — the order in which the
/// heuristic prefers to pick them.
class DifferenceSetIndex {
 public:
  DifferenceSetIndex() = default;

  /// Builds the index from a conflict graph (the naive front door).
  DifferenceSetIndex(const EncodedInstance& inst, const ConflictGraph& cg);

  /// Sharded variant: per-edge difference sets are computed on `pool`
  /// (nullable = serial) by index, then grouped serially in the graph's
  /// canonical edge order — the index is BIT-IDENTICAL to the serial
  /// overload for any thread count.
  DifferenceSetIndex(const EncodedInstance& inst, const ConflictGraph& cg,
                     exec::ThreadPool* pool);

  /// Restores an index from its serialized groups (src/persist/). The
  /// groups must already be in the canonical (descending frequency,
  /// smaller mask) order a live index produced — snapshots save them in
  /// that order and the loader trusts it (the file checksum guards against
  /// corruption).
  explicit DifferenceSetIndex(std::vector<DiffSetGroup> groups);

  /// Incrementally maintains the index after `inst` had a delta applied
  /// (delta.h). `dirty` is the plan's post-delta dirty id set (ascending)
  /// and `remap` its old->new id map; the index must have been built over
  /// the pre-delta instance with the same `sigma`. Surviving clean edges
  /// are kept as-is, only pairs with a dirty endpoint are (re)examined —
  /// O(Δ·n·m) comparisons sharded on `pool` (nullable = serial) — and the
  /// result is BIT-IDENTICAL to BuildDifferenceSetIndex over the
  /// post-delta instance for any thread count (the index is a pure
  /// function of {pair -> difference set}, and the delta only changes
  /// pairs with a dirty endpoint).
  IndexPatch ApplyDelta(const EncodedInstance& inst, const FDSet& sigma,
                        const std::vector<TupleId>& dirty,
                        const std::vector<TupleId>& remap,
                        exec::ThreadPool* pool);

  int size() const { return static_cast<int>(groups_.size()); }
  bool empty() const { return groups_.empty(); }
  const DiffSetGroup& group(int i) const { return groups_[i]; }
  const std::vector<DiffSetGroup>& groups() const { return groups_; }

  std::string ToString(const Schema& schema) const;

 private:
  std::vector<DiffSetGroup> groups_;
};

/// True iff difference set `diff` violates at least one FD in `fds`.
bool DiffSetViolates(AttrSet diff, const FDSet& fds);

/// The one front door to the difference-set index of (inst, sigma),
/// sharded on `pool` (nullable = serial, not owned). The result is
/// BIT-IDENTICAL for any pool size and for either build mode. Shared by
/// the search context (build and delta rebuild) and Algorithm 4's
/// data-repair pass. `stats`, when non-null, receives the build's
/// per-phase breakdown.
///
/// kBlocked: per-attribute partitions (PartitionBy) restrict pair
/// enumeration to equivalence classes, the first-agreeing-attribute
/// ownership rule emits each agree-somewhere pair exactly once, and the
/// residual disagree-everywhere pairs are counted, not enumerated. Work
/// is sharded over (attribute, class) units with canonical merge order.
/// O(Σ_classes |c|²·m) instead of O(n²·m); sub-quadratic whenever
/// per-attribute classes stay small. Only an empty-LHS FD makes the
/// residual pairs conflict edges; then an all-pairs scan, sharded over
/// u-ranges, stores them as the universe group. kNaive scans all C(n,2)
/// pairs.
DifferenceSetIndex BuildDifferenceSetIndex(
    const EncodedInstance& inst, const FDSet& sigma,
    exec::ThreadPool* pool = nullptr,
    DiffSetBuildMode mode = DiffSetBuildMode::kBlocked,
    DiffSetBuildStats* stats = nullptr);

}  // namespace retrust

#endif  // RETRUST_FD_DIFFERENCE_SET_H_
