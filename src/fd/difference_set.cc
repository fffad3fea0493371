#include "src/fd/difference_set.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <stdexcept>
#include <unordered_map>

#include "src/exec/parallel_for.h"
#include "src/fd/partition.h"
#include "src/fd/violation.h"

namespace retrust {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The canonical group order: descending frequency, ties broken by the
/// smaller attribute mask. Shared by every builder and by ApplyDelta.
template <typename Group>
void RankGroups(std::vector<Group>* groups) {
  std::sort(groups->begin(), groups->end(),
            [](const Group& a, const Group& b) {
              if (a.edges.size() != b.edges.size()) {
                return a.edges.size() > b.edges.size();
              }
              return a.diff < b.diff;
            });
}

/// Groups edges[k] under diffs[k] into DiffSetGroups, preserving the
/// edges' order inside each group (callers pass canonical ascending edge
/// order). An empty diff marks a pair that is not stored. One hash probe
/// per edge assigns its group; each group's edge vector is pre-sized
/// before the second, probe-free pass fills it.
std::vector<DiffSetGroup> GroupEdges(const std::vector<Edge>& edges,
                                     const std::vector<AttrSet>& diffs) {
  std::unordered_map<AttrSet, int32_t, AttrSetHash> group_of;
  std::vector<DiffSetGroup> groups;
  std::vector<size_t> sizes;
  std::vector<int32_t> slot(edges.size(), -1);
  for (size_t k = 0; k < edges.size(); ++k) {
    if (diffs[k].Empty()) continue;
    auto [it, inserted] =
        group_of.emplace(diffs[k], static_cast<int32_t>(groups.size()));
    if (inserted) {
      groups.push_back({diffs[k], {}});
      sizes.push_back(0);
    }
    slot[k] = it->second;
    ++sizes[it->second];
  }
  for (size_t g = 0; g < groups.size(); ++g) groups[g].edges.reserve(sizes[g]);
  for (size_t k = 0; k < edges.size(); ++k) {
    if (slot[k] >= 0) groups[slot[k]].edges.push_back(edges[k]);
  }
  return groups;
}

}  // namespace

AttrSet DiffSetOfPair(const EncodedInstance& inst, TupleId t1, TupleId t2) {
  const int m = inst.NumAttrs();
  const AttrSet universe = AttrSet::Universe(m);
  AttrSet diff;
  for (AttrId a = 0; a < m; ++a) {
    if (inst.At(t1, a) != inst.At(t2, a)) {
      diff.Add(a);
      if (diff == universe) break;
    }
  }
  return diff;
}

AttrSet DiffSetOfPair(const int32_t* const* cols, int num_attrs, TupleId t1,
                      TupleId t2) {
  const AttrSet universe = AttrSet::Universe(num_attrs);
  AttrSet diff;
  for (AttrId a = 0; a < num_attrs; ++a) {
    if (cols[a][t1] != cols[a][t2]) {
      diff.Add(a);
      if (diff == universe) break;
    }
  }
  return diff;
}

DifferenceSetIndex::DifferenceSetIndex(const EncodedInstance& inst,
                                       const ConflictGraph& cg)
    : DifferenceSetIndex(inst, cg, nullptr) {}

DifferenceSetIndex::DifferenceSetIndex(const EncodedInstance& inst,
                                       const ConflictGraph& cg,
                                       exec::ThreadPool* pool) {
  const std::vector<Edge>& edges = cg.graph.edges();

  // Sharded O(E·m) phase: the difference set of each edge, written by edge
  // index (disjoint slots, trivially deterministic). Grouping then runs
  // serially in the graph's canonical edge order.
  std::vector<AttrSet> diffs(edges.size());
  exec::ParallelFor(pool, static_cast<int64_t>(edges.size()),
                    [&](int64_t begin, int64_t end, int /*chunk*/) {
                      for (int64_t i = begin; i < end; ++i) {
                        diffs[i] = DiffSetOfPair(inst, edges[i].u, edges[i].v);
                      }
                    });
  groups_ = GroupEdges(edges, diffs);
  RankGroups(&groups_);
}

DifferenceSetIndex::DifferenceSetIndex(std::vector<DiffSetGroup> groups)
    : groups_(std::move(groups)) {}

IndexPatch DifferenceSetIndex::ApplyDelta(const EncodedInstance& inst,
                                          const FDSet& sigma,
                                          const std::vector<TupleId>& dirty,
                                          const std::vector<TupleId>& remap,
                                          exec::ThreadPool* pool) {
  IndexPatch patch;
  const int new_n = inst.NumTuples();
  std::vector<char> is_dirty(new_n, 0);
  for (TupleId t : dirty) is_dirty[t] = 1;

  // 1. Filter: drop every edge with a deleted or dirty endpoint. Relocated
  // tuples are dirty by construction (delta.h), so every kept edge's
  // endpoints still carry their old ids and the kept lists stay sorted.
  struct Work {
    AttrSet diff;
    std::vector<Edge> edges;
    int old_id = -1;
    bool changed = false;
  };
  std::vector<Work> work;
  work.reserve(groups_.size());
  for (size_t g = 0; g < groups_.size(); ++g) {
    Work w;
    w.diff = groups_[g].diff;
    w.old_id = static_cast<int>(g);
    w.edges.reserve(groups_[g].edges.size());
    for (const Edge& e : groups_[g].edges) {
      if (remap[e.u] < 0 || remap[e.v] < 0 || is_dirty[remap[e.u]] ||
          is_dirty[remap[e.v]]) {
        ++patch.edges_removed;
        w.changed = true;
      } else {
        w.edges.push_back(e);
      }
    }
    work.push_back(std::move(w));
  }

  // 2. Discover the edges in the delta's blast radius: every pair with a
  // dirty endpoint, each unordered pair examined exactly once. Sharded
  // over the relation; the canonical sort below erases chunk boundaries,
  // so the result is identical for any thread count.
  const int m = inst.NumAttrs();
  std::vector<const int32_t*> cols(m);
  for (AttrId a = 0; a < m; ++a) cols[a] = inst.ColumnData(a);
  std::vector<std::pair<Edge, AttrSet>> found;
  {
    exec::ChunkPlan chunks = exec::PlanChunks(new_n, pool);
    std::vector<std::vector<std::pair<Edge, AttrSet>>> per_chunk(
        std::max(chunks.num_chunks, 1));
    exec::ParallelFor(pool, chunks,
                      [&](int64_t begin, int64_t end, int chunk) {
                        auto& out = per_chunk[chunk];
                        for (int64_t s = begin; s < end; ++s) {
                          for (TupleId t : dirty) {
                            if (is_dirty[s] && s >= t) continue;
                            AttrSet diff = DiffSetOfPair(
                                cols.data(), m, t, static_cast<TupleId>(s));
                            if (DiffSetViolates(diff, sigma)) {
                              out.emplace_back(
                                  Edge(t, static_cast<TupleId>(s)), diff);
                            }
                          }
                        }
                      });
    for (auto& buf : per_chunk) {
      found.insert(found.end(), buf.begin(), buf.end());
    }
    std::sort(found.begin(), found.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }
  patch.edges_added = static_cast<int64_t>(found.size());

  // 3. Merge the new edges into their groups (kept and new lists are both
  // sorted, and all pairs are distinct, so the merge reproduces the
  // canonical ascending edge order of a from-scratch build).
  std::unordered_map<AttrSet, int, AttrSetHash> by_diff;
  by_diff.reserve(work.size());
  for (size_t i = 0; i < work.size(); ++i) by_diff.emplace(work[i].diff, i);
  std::vector<std::vector<Edge>> added(work.size());
  for (const auto& [edge, diff] : found) {
    auto [it, inserted] = by_diff.emplace(diff, static_cast<int>(work.size()));
    if (inserted) {
      work.push_back(Work{diff, {}, -1, true});
      added.emplace_back();
    }
    work[it->second].changed = true;
    added[it->second].push_back(edge);
  }
  for (size_t i = 0; i < work.size(); ++i) {
    if (added[i].empty()) continue;
    std::vector<Edge> merged;
    merged.reserve(work[i].edges.size() + added[i].size());
    std::merge(work[i].edges.begin(), work[i].edges.end(), added[i].begin(),
               added[i].end(), std::back_inserter(merged));
    work[i].edges = std::move(merged);
  }

  // 4. Re-rank in the canonical (frequency desc, diff asc) order and
  // count the preserved groups.
  work.erase(std::remove_if(work.begin(), work.end(),
                            [](const Work& w) { return w.edges.empty(); }),
             work.end());
  RankGroups(&work);
  groups_.clear();
  groups_.reserve(work.size());
  for (size_t i = 0; i < work.size(); ++i) {
    if (work[i].old_id >= 0 && !work[i].changed) ++patch.groups_preserved;
    groups_.push_back({work[i].diff, std::move(work[i].edges)});
  }
  patch.groups_changed = static_cast<int>(groups_.size()) -
                         patch.groups_preserved;
  return patch;
}

std::string DifferenceSetIndex::ToString(const Schema& schema) const {
  std::string out;
  for (const DiffSetGroup& g : groups_) {
    out += g.diff.ToString(schema.Names());
    out += " x" + std::to_string(g.edges.size());
    out += "\n";
  }
  return out;
}

namespace {

// The blocked build (see BuildDifferenceSetIndex in the header).
DifferenceSetIndex BuildDifferenceSetIndexBlocked(const EncodedInstance& inst,
                                                  const FDSet& sigma,
                                                  exec::ThreadPool* pool,
                                                  DiffSetBuildStats* stats) {
  const auto t_start = std::chrono::steady_clock::now();
  const int m = inst.NumAttrs();
  std::vector<const int32_t*> cols(m);
  for (AttrId a = 0; a < m; ++a) cols[a] = inst.ColumnData(a);

  DiffSetBuildStats out;
  std::vector<DiffSetGroup> groups;
  FDSet earlier;  // the FDs before the current one, in Σ order
  for (const FD& fd : sigma.fds()) {
    // Partition — the stripped X-classes (an empty X is one class).
    auto t_phase = std::chrono::steady_clock::now();
    const StrippedPartition lhs_classes =
        StripClasses(PartitionBy(inst, fd.lhs));
    out.partition_seconds += SecondsSince(t_phase);

    // Enumerate — the FD's violating pairs, ascending, sharded over
    // classes. A pair is OWNED by the first FD in Σ order that it
    // violates; ownership depends only on its diff, so the pair keeps its
    // diff here iff it violates no earlier FD (an empty diff = not stored).
    t_phase = std::chrono::steady_clock::now();
    const std::vector<Edge> pairs =
        ViolatingPairs(inst, lhs_classes, fd.rhs, pool);
    std::vector<AttrSet> diffs(pairs.size());
    exec::ParallelFor(pool, static_cast<int64_t>(pairs.size()),
                      [&](int64_t begin, int64_t end, int /*chunk*/) {
                        for (int64_t k = begin; k < end; ++k) {
                          const AttrSet diff = DiffSetOfPair(
                              cols.data(), m, pairs[k].u, pairs[k].v);
                          if (!DiffSetViolates(diff, earlier)) diffs[k] = diff;
                        }
                      });
    out.pairs_candidate += static_cast<int64_t>(pairs.size());
    out.enumerate_seconds += SecondsSince(t_phase);

    // Group — a diff has one owner, so the FD's groups hold every edge of
    // their diff, already in ascending order.
    t_phase = std::chrono::steady_clock::now();
    for (DiffSetGroup& group : GroupEdges(pairs, diffs)) {
      out.pairs_materialized += static_cast<int64_t>(group.edges.size());
      groups.push_back(std::move(group));
    }
    out.group_seconds += SecondsSince(t_phase);
    earlier.Add(fd);
  }
  const auto t_rank = std::chrono::steady_clock::now();
  RankGroups(&groups);
  out.group_seconds += SecondsSince(t_rank);
  out.pairs_owned = out.pairs_materialized;
  out.total_seconds = SecondsSince(t_start);
  if (stats != nullptr) *stats = out;
  return DifferenceSetIndex(std::move(groups));
}

}  // namespace

DifferenceSetIndex BuildDifferenceSetIndex(const EncodedInstance& inst,
                                           const FDSet& sigma,
                                           exec::ThreadPool* pool,
                                           DiffSetBuildMode mode,
                                           DiffSetBuildStats* stats) {
  if (sigma.size() > 64) {
    throw std::invalid_argument("conflict graph supports at most 64 FDs");
  }
  if (mode == DiffSetBuildMode::kBlocked) {
    return BuildDifferenceSetIndexBlocked(inst, sigma, pool, stats);
  }

  // kNaive: the quadratic oracle — a direct scan over all C(n,2) tuple
  // pairs, each difference set computed from the columns. Deliberately free
  // of the partition machinery so the blocked builder has an independent
  // witness and the scaling bench an honest baseline; shares the
  // grouping/ranking conventions so the two builders emit bit-identical
  // indexes.
  const auto t_start = std::chrono::steady_clock::now();
  const int n = inst.NumTuples();
  const int m = inst.NumAttrs();
  std::vector<const int32_t*> cols(m);
  for (AttrId a = 0; a < m; ++a) cols[a] = inst.ColumnData(a);
  const AttrSet universe = AttrSet::Universe(m);

  struct ChunkOut {
    std::vector<Edge> edges;
    std::vector<AttrSet> diffs;
    int64_t full = 0;  ///< disagree-everywhere pairs (stats only)
  };
  exec::ChunkPlan plan = exec::PlanChunks(n, pool);
  std::vector<ChunkOut> per_chunk(
      static_cast<size_t>(std::max(plan.num_chunks, 1)));
  exec::ParallelFor(
      pool, plan, [&](int64_t begin, int64_t end, int chunk) {
    ChunkOut& out = per_chunk[chunk];
    for (TupleId u = static_cast<TupleId>(begin);
         u < static_cast<TupleId>(end); ++u) {
      for (TupleId v = u + 1; v < n; ++v) {
        AttrSet diff = DiffSetOfPair(cols.data(), m, u, v);
        if (diff == universe) ++out.full;
        if (DiffSetViolates(diff, sigma)) {
          out.edges.emplace_back(u, v);
          out.diffs.push_back(diff);
        }
      }
    }
  });
  // Chunks are contiguous u-ranges and each inner loop ascends, so plain
  // chunk-order concatenation is already the canonical ascending edge order.
  std::vector<Edge> edges;
  std::vector<AttrSet> diffs;
  int64_t full_disagreement = 0;
  for (const ChunkOut& c : per_chunk) {
    edges.insert(edges.end(), c.edges.begin(), c.edges.end());
    diffs.insert(diffs.end(), c.diffs.begin(), c.diffs.end());
    full_disagreement += c.full;
  }
  const double enumerate_seconds = SecondsSince(t_start);

  const auto t_group = std::chrono::steady_clock::now();
  std::vector<DiffSetGroup> groups = GroupEdges(edges, diffs);
  RankGroups(&groups);
  DifferenceSetIndex index(std::move(groups));
  const double group_seconds = SecondsSince(t_group);

  if (stats != nullptr) {
    *stats = DiffSetBuildStats{};
    stats->pairs_candidate = static_cast<int64_t>(n) * (n - 1) / 2;
    stats->pairs_owned = stats->pairs_candidate - full_disagreement;
    stats->pairs_materialized = static_cast<int64_t>(edges.size());
    stats->pairs_counted = full_disagreement;
    stats->enumerate_seconds = enumerate_seconds;
    stats->group_seconds = group_seconds;
    stats->total_seconds = SecondsSince(t_start);
  }
  return index;
}

bool DiffSetViolates(AttrSet diff, const FDSet& fds) {
  for (const FD& fd : fds.fds()) {
    if (fd.ViolatedByDiffSet(diff)) return true;
  }
  return false;
}

}  // namespace retrust
