#include "src/fd/difference_set.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <stdexcept>
#include <unordered_map>

#include "src/exec/parallel_for.h"
#include "src/fd/partition.h"

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

/// Groups (edge, diff) records — already in canonical ascending edge
/// order — into DiffSetGroups, preserving that order inside each group.
/// Pre-sizes the map and each group's edge vector (one counting pass) so
/// the serial phase never rehashes or reallocates on large inputs.
std::vector<DiffSetGroup> GroupEdges(
    const std::vector<std::pair<Edge, AttrSet>>& records) {
  std::unordered_map<AttrSet, int64_t, AttrSetHash> freq;
  freq.reserve(64);
  for (const auto& [edge, diff] : records) ++freq[diff];

  std::vector<DiffSetGroup> groups;
  groups.reserve(freq.size());
  std::unordered_map<AttrSet, int, AttrSetHash> index;
  index.reserve(freq.size());
  for (const auto& [edge, diff] : records) {
    auto [it, inserted] = index.emplace(diff, static_cast<int>(groups.size()));
    if (inserted) {
      groups.push_back({diff, {}});
      groups.back().edges.reserve(static_cast<size_t>(freq[diff]));
    }
    groups[it->second].edges.push_back(edge);
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
  std::vector<std::pair<Edge, AttrSet>> records(edges.size());
  exec::ParallelFor(pool, static_cast<int64_t>(edges.size()),
                    [&](int64_t begin, int64_t end, int /*chunk*/) {
                      for (int64_t i = begin; i < end; ++i) {
                        records[i] = {edges[i], DiffSetOfPair(inst, edges[i].u,
                                                              edges[i].v)};
                      }
                    });
  groups_ = GroupEdges(records);
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
  // translate preserved group ids.
  work.erase(std::remove_if(work.begin(), work.end(),
                            [](const Work& w) { return w.edges.empty(); }),
             work.end());
  RankGroups(&work);
  patch.old_to_new.assign(groups_.size(), -1);
  groups_.clear();
  groups_.reserve(work.size());
  for (size_t i = 0; i < work.size(); ++i) {
    if (work[i].old_id >= 0 && !work[i].changed) {
      patch.old_to_new[work[i].old_id] = static_cast<int32_t>(i);
      ++patch.groups_preserved;
    }
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

/// Every pair that disagrees on all attributes, in ascending (u, v) order:
/// an all-pairs scan sharded on `pool` over contiguous u-ranges, so
/// chunk-order concatenation is already canonical.
std::vector<Edge> FullDisagreementEdges(const std::vector<const int32_t*>& cols,
                                        int n, exec::ThreadPool* pool) {
  const int m = static_cast<int>(cols.size());
  exec::ChunkPlan plan = exec::PlanChunks(n, pool);
  std::vector<std::vector<Edge>> per_chunk(
      static_cast<size_t>(std::max(plan.num_chunks, 1)));
  exec::ParallelFor(pool, plan, [&](int64_t begin, int64_t end, int chunk) {
    for (TupleId u = static_cast<TupleId>(begin);
         u < static_cast<TupleId>(end); ++u) {
      for (TupleId v = u + 1; v < n; ++v) {
        bool all_differ = true;
        for (AttrId a = 0; a < m && all_differ; ++a) {
          all_differ = cols[a][u] != cols[a][v];
        }
        if (all_differ) per_chunk[chunk].emplace_back(u, v);
      }
    }
  });
  std::vector<Edge> edges;
  for (const std::vector<Edge>& c : per_chunk) {
    edges.insert(edges.end(), c.begin(), c.end());
  }
  return edges;
}

// The blocked build (see BuildDifferenceSetIndex in the header).
DifferenceSetIndex BuildDifferenceSetIndexBlocked(const EncodedInstance& inst,
                                                  const FDSet& sigma,
                                                  exec::ThreadPool* pool,
                                                  DiffSetBuildStats* stats) {
  if (sigma.size() > 64) {
    throw std::invalid_argument("conflict graph supports at most 64 FDs");
  }
  const auto t_start = std::chrono::steady_clock::now();
  const int n = inst.NumTuples();
  const int m = inst.NumAttrs();
  std::vector<const int32_t*> cols(m);
  for (AttrId a = 0; a < m; ++a) cols[a] = inst.ColumnData(a);

  // Phase 1 — blocking structure: one partition per attribute, stripped to
  // classes of >= 2 tuples. Work units are (attribute, class) spans in a
  // flat deterministic order: attributes ascending, classes in label
  // (first-occurrence) order, members ascending.
  struct Unit {
    AttrId attr;
    int32_t begin;  ///< span into members[attr]
    int32_t end;
  };
  std::vector<std::vector<TupleId>> members(m);
  std::vector<Unit> units;
  for (AttrId a = 0; a < m; ++a) {
    std::vector<std::vector<TupleId>> classes =
        PartitionBy(inst, AttrSet::Single(a)).StrippedClasses();
    size_t total = 0;
    for (const auto& c : classes) total += c.size();
    members[a].reserve(total);
    for (const auto& c : classes) {
      units.push_back({a, static_cast<int32_t>(members[a].size()),
                       static_cast<int32_t>(members[a].size() + c.size())});
      members[a].insert(members[a].end(), c.begin(), c.end());
    }
  }
  const double partition_seconds = SecondsSince(t_start);

  // Phase 2 — in-class pair enumeration, sharded over units. A pair inside
  // attribute a's class is OWNED by a iff the two tuples disagree on every
  // attribute before a (the first-agreeing-attribute rule): each pair that
  // agrees somewhere is emitted by exactly one unit, so the concatenated
  // chunk buffers hold globally distinct edges and one canonical sort makes
  // the order thread-count independent.
  const auto t_enumerate = std::chrono::steady_clock::now();
  struct ChunkOut {
    std::vector<std::pair<Edge, AttrSet>> records;
    int64_t candidate = 0;
    int64_t owned = 0;
  };
  exec::ChunkPlan plan =
      exec::PlanChunks(static_cast<int64_t>(units.size()), pool);
  std::vector<ChunkOut> per_chunk(
      static_cast<size_t>(std::max(plan.num_chunks, 1)));
  exec::ParallelFor(
      pool, plan, [&](int64_t begin, int64_t end, int chunk) {
        ChunkOut& out = per_chunk[chunk];
        for (int64_t ui = begin; ui < end; ++ui) {
          const Unit& unit = units[ui];
          const AttrId a = unit.attr;
          const TupleId* cls = members[a].data();
          for (int32_t i = unit.begin; i < unit.end; ++i) {
            const TupleId u = cls[i];
            for (int32_t j = i + 1; j < unit.end; ++j) {
              const TupleId v = cls[j];
              ++out.candidate;
              bool owned = true;
              for (AttrId b = 0; b < a; ++b) {
                if (cols[b][u] == cols[b][v]) {
                  owned = false;
                  break;
                }
              }
              if (!owned) continue;
              ++out.owned;
              // Ownership already proved every attribute before a differs
              // (and a itself agrees), so only the tail needs comparing.
              AttrSet diff = AttrSet::Universe(a);
              for (AttrId b = a + 1; b < m; ++b) {
                if (cols[b][u] != cols[b][v]) diff.Add(b);
              }
              if (DiffSetViolates(diff, sigma)) {
                out.records.emplace_back(Edge(u, v), diff);
              }
            }
          }
        }
      });
  std::vector<std::pair<Edge, AttrSet>> records;
  int64_t candidate = 0, owned = 0;
  {
    size_t total = 0;
    for (const ChunkOut& c : per_chunk) total += c.records.size();
    records.reserve(total);
    for (ChunkOut& c : per_chunk) {
      records.insert(records.end(), c.records.begin(), c.records.end());
      candidate += c.candidate;
      owned += c.owned;
    }
  }
  std::sort(records.begin(), records.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  const double enumerate_seconds = SecondsSince(t_enumerate);

  // Phase 3 — group in canonical edge order, add the full-disagreement
  // group, and rank. Every pair NOT owned by some attribute disagrees
  // everywhere; those pairs share diff = universe and enter the index only
  // when an empty-LHS FD makes the universe diff violating at all.
  const auto t_group = std::chrono::steady_clock::now();
  std::vector<DiffSetGroup> groups = GroupEdges(records);
  int64_t stored = static_cast<int64_t>(records.size());
  const int64_t total_pairs = static_cast<int64_t>(n) * (n - 1) / 2;
  const int64_t full_disagreement = total_pairs - owned;
  const AttrSet universe = AttrSet::Universe(m);
  if (full_disagreement > 0 && DiffSetViolates(universe, sigma)) {
    std::vector<Edge> edges = FullDisagreementEdges(cols, n, pool);
    if (static_cast<int64_t>(edges.size()) != full_disagreement) {
      throw std::logic_error(
          "full-disagreement scan disagrees with the ownership count");
    }
    stored += full_disagreement;
    groups.push_back({universe, std::move(edges)});
  }
  RankGroups(&groups);
  DifferenceSetIndex index(std::move(groups));
  const double group_seconds = SecondsSince(t_group);

  if (stats != nullptr) {
    stats->pairs_candidate = candidate;
    stats->pairs_owned = owned;
    stats->pairs_materialized = stored;
    stats->pairs_counted = full_disagreement;
    stats->partition_seconds = partition_seconds;
    stats->enumerate_seconds = enumerate_seconds;
    stats->group_seconds = group_seconds;
    stats->total_seconds = SecondsSince(t_start);
  }
  return index;
}

}  // namespace

DifferenceSetIndex BuildDifferenceSetIndex(const EncodedInstance& inst,
                                           const FDSet& sigma,
                                           exec::ThreadPool* pool,
                                           DiffSetBuildMode mode,
                                           DiffSetBuildStats* stats) {
  if (mode == DiffSetBuildMode::kBlocked) {
    return BuildDifferenceSetIndexBlocked(inst, sigma, pool, stats);
  }

  // kNaive: the quadratic oracle — a direct scan over all C(n,2) tuple
  // pairs, each difference set computed from the columns. Deliberately free
  // of the blocking machinery (partitions, ownership) so the blocked
  // builder has an independent witness and the scaling bench an honest
  // baseline; shares the grouping/ranking conventions of phase 3 so the two
  // builders emit bit-identical indexes.
  if (sigma.size() > 64) {
    throw std::invalid_argument("conflict graph supports at most 64 FDs");
  }
  const auto t_start = std::chrono::steady_clock::now();
  const int n = inst.NumTuples();
  const int m = inst.NumAttrs();
  std::vector<const int32_t*> cols(m);
  for (AttrId a = 0; a < m; ++a) cols[a] = inst.ColumnData(a);
  const AttrSet universe = AttrSet::Universe(m);

  struct ChunkOut {
    std::vector<std::pair<Edge, AttrSet>> records;
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
          out.records.emplace_back(Edge(u, v), diff);
        }
      }
    }
  });
  // Chunks are contiguous u-ranges and each inner loop ascends, so plain
  // chunk-order concatenation is already the canonical ascending edge order.
  std::vector<std::pair<Edge, AttrSet>> records;
  int64_t full_disagreement = 0;
  {
    size_t total = 0;
    for (const ChunkOut& c : per_chunk) total += c.records.size();
    records.reserve(total);
    for (ChunkOut& c : per_chunk) {
      records.insert(records.end(), c.records.begin(), c.records.end());
      full_disagreement += c.full;
    }
  }
  const double enumerate_seconds = SecondsSince(t_start);

  const auto t_group = std::chrono::steady_clock::now();
  std::vector<DiffSetGroup> groups = GroupEdges(records);
  RankGroups(&groups);
  DifferenceSetIndex index(std::move(groups));
  const double group_seconds = SecondsSince(t_group);

  if (stats != nullptr) {
    *stats = DiffSetBuildStats{};
    stats->pairs_candidate = static_cast<int64_t>(n) * (n - 1) / 2;
    stats->pairs_owned = stats->pairs_candidate - full_disagreement;
    stats->pairs_materialized = static_cast<int64_t>(records.size());
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
