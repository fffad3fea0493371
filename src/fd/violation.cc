#include "src/fd/violation.h"

#include <algorithm>
#include <unordered_set>

#include "src/exec/parallel_for.h"

namespace retrust {
namespace {

// Emits all violating pairs of one LHS class: order its members by RHS code
// (`by_code` is the chunk's reusable buffer), then every pair across two
// runs of equal code.
void EmitClassPairs(const int32_t* rhs_col, const TupleId* tuples, int count,
                    std::vector<std::pair<int32_t, TupleId>>* by_code,
                    std::vector<Edge>* out) {
  by_code->clear();
  for (int i = 0; i < count; ++i) {
    by_code->emplace_back(rhs_col[tuples[i]], tuples[i]);
  }
  std::sort(by_code->begin(), by_code->end());
  for (int begin = 0, end; begin < count; begin = end) {
    end = begin + 1;
    while (end < count && (*by_code)[end].first == (*by_code)[begin].first) {
      ++end;
    }
    for (int i = begin; i < end; ++i) {
      for (int j = end; j < count; ++j) {
        out->emplace_back((*by_code)[i].second, (*by_code)[j].second);
      }
    }
  }
}

// Sorts `edges` (endpoints in [0, n)) into canonical ascending order in
// O(E + n): two stable counting passes, by v and then by u.
void SortEdges(std::vector<Edge>* edges, int n) {
  std::vector<Edge> by_v(edges->size());
  std::vector<int64_t> start(static_cast<size_t>(n) + 1);
  auto pass = [&](const std::vector<Edge>& from, std::vector<Edge>* to,
                  int32_t Edge::*key) {
    std::fill(start.begin(), start.end(), 0);
    for (const Edge& e : from) ++start[e.*key + 1];
    for (int t = 0; t < n; ++t) start[t + 1] += start[t];
    for (const Edge& e : from) (*to)[start[e.*key]++] = e;
  };
  pass(*edges, &by_v, &Edge::v);
  pass(by_v, edges, &Edge::u);
}

}  // namespace

bool Satisfies(const EncodedInstance& inst, const FD& fd) {
  if (fd.IsTrivial()) return true;
  Partition p = PartitionBy(inst, fd.lhs);
  const int32_t* rhs_col = inst.ColumnData(fd.rhs);
  // X -> A holds iff every X-class sees a single RHS code: one streaming
  // pass recording the first code per class.
  std::vector<int32_t> first(p.num_classes);
  std::vector<char> seen(p.num_classes, 0);
  for (TupleId t = 0; t < inst.NumTuples(); ++t) {
    const int32_t label = p.labels[t];
    if (!seen[label]) {
      seen[label] = 1;
      first[label] = rhs_col[t];
    } else if (first[label] != rhs_col[t]) {
      return false;
    }
  }
  return true;
}

bool Satisfies(const EncodedInstance& inst, const FDSet& fds) {
  for (const FD& fd : fds.fds()) {
    if (!Satisfies(inst, fd)) return false;
  }
  return true;
}

std::vector<Edge> ViolatingPairs(const EncodedInstance& inst, const FD& fd) {
  return ViolatingPairs(inst, fd, nullptr);
}

std::vector<Edge> ViolatingPairs(const EncodedInstance& inst, const FD& fd,
                                 exec::ThreadPool* pool) {
  if (fd.IsTrivial()) return {};
  // The violating pairs of X -> A are exactly the same-X-class,
  // different-A pairs, so the partition machinery (partition.h) does the
  // heavy lifting: no pair outside an X-class is ever looked at.
  return ViolatingPairs(inst, StripClasses(PartitionBy(inst, fd.lhs)), fd.rhs,
                        pool);
}

std::vector<Edge> ViolatingPairs(const EncodedInstance& inst,
                                 const StrippedPartition& lhs_classes,
                                 AttrId rhs, exec::ThreadPool* pool) {
  const int32_t* rhs_col = inst.ColumnData(rhs);
  // Sharded quadratic phase over classes: each chunk emits into its own
  // buffer; buffers are concatenated in chunk order and the final sort
  // makes the output canonical for any thread count.
  exec::ChunkPlan plan =
      exec::PlanChunks(static_cast<int64_t>(lhs_classes.num_classes()), pool);
  std::vector<std::vector<Edge>> buffers(
      static_cast<size_t>(std::max(plan.num_chunks, 0)));
  exec::ParallelFor(pool, plan,
                    [&](int64_t begin, int64_t end, int chunk) {
                      std::vector<std::pair<int32_t, TupleId>> by_code;
                      for (int64_t c = begin; c < end; ++c) {
                        EmitClassPairs(rhs_col, lhs_classes.class_begin(c),
                                       lhs_classes.class_size(c), &by_code,
                                       &buffers[chunk]);
                      }
                    });
  std::vector<Edge> out;
  size_t total = 0;
  for (const auto& b : buffers) total += b.size();
  out.reserve(total);
  for (const auto& b : buffers) out.insert(out.end(), b.begin(), b.end());
  SortEdges(&out, inst.NumTuples());
  return out;
}

int64_t CountViolatingTuples(const EncodedInstance& inst, const FDSet& fds) {
  std::unordered_set<TupleId> violating;
  for (const FD& fd : fds.fds()) {
    if (fd.IsTrivial()) continue;
    const StrippedPartition classes = StripClasses(PartitionBy(inst, fd.lhs));
    const int32_t* rhs_col = inst.ColumnData(fd.rhs);
    for (int c = 0; c < classes.num_classes(); ++c) {
      const TupleId* tuples = classes.class_begin(c);
      const int count = classes.class_size(c);
      bool mixed = false;
      for (int i = 1; i < count && !mixed; ++i) {
        mixed = rhs_col[tuples[i]] != rhs_col[tuples[0]];
      }
      if (mixed) {
        for (int i = 0; i < count; ++i) violating.insert(tuples[i]);
      }
    }
  }
  return static_cast<int64_t>(violating.size());
}

}  // namespace retrust
