#include "src/fd/partition.h"

#include <unordered_map>

#include "src/util/hash.h"

namespace retrust {

StrippedPartition StripClasses(const Partition& p) {
  const int n = static_cast<int>(p.labels.size());
  std::vector<int32_t> counts(p.num_classes, 0);
  for (int32_t label : p.labels) ++counts[label];

  // Dense class ids for the classes that survive the >= 2 filter.
  std::vector<int32_t> slot(p.num_classes, -1);
  StrippedPartition stripped;
  stripped.offsets.push_back(0);
  int32_t total = 0;
  for (int32_t label = 0; label < p.num_classes; ++label) {
    if (counts[label] < 2) continue;
    slot[label] = stripped.num_classes();
    total += counts[label];
    stripped.offsets.push_back(total);
  }
  stripped.members.resize(total);
  std::vector<int32_t> fill(stripped.num_classes(), 0);
  for (TupleId t = 0; t < n; ++t) {
    const int32_t s = slot[p.labels[t]];
    if (s < 0) continue;
    stripped.members[stripped.offsets[s] + fill[s]++] = t;
  }
  return stripped;
}

Partition PartitionBy(const EncodedInstance& inst, AttrSet attrs) {
  Partition p;
  int n = inst.NumTuples();
  p.labels.resize(n);
  if (attrs.Empty()) {
    // Single class.
    std::fill(p.labels.begin(), p.labels.end(), 0);
    p.num_classes = n > 0 ? 1 : 0;
    return p;
  }
  // First attribute: dense labels straight off one contiguous column.
  // Labels are assigned in first-occurrence order, and every Refine pass
  // below also assigns in first-occurrence scan order, so the final labels
  // are identical to hashing the full key vector per tuple — at a fraction
  // of the hashing cost (one int32 per cell, streamed per column).
  auto it = attrs.begin();
  {
    const int32_t* col = inst.ColumnData(*it);
    std::unordered_map<int32_t, int32_t> index;
    index.reserve(static_cast<size_t>(n));
    for (TupleId t = 0; t < n; ++t) {
      auto [slot, inserted] = index.emplace(col[t], p.num_classes);
      if (inserted) ++p.num_classes;
      p.labels[t] = slot->second;
    }
  }
  for (++it; it != attrs.end(); ++it) {
    p = Refine(inst, p, *it);
  }
  return p;
}

Partition Refine(const EncodedInstance& inst, const Partition& base,
                 AttrId a) {
  Partition p;
  int n = inst.NumTuples();
  p.labels.resize(n);
  const int32_t* col = inst.ColumnData(a);
  // Key: (base label, code of a) -> new dense label.
  std::unordered_map<uint64_t, int32_t> index;
  index.reserve(static_cast<size_t>(n));
  for (TupleId t = 0; t < n; ++t) {
    uint64_t key = (static_cast<uint64_t>(base.labels[t]) << 32) |
                   static_cast<uint32_t>(col[t]);
    auto [it, inserted] = index.emplace(Mix64(key), p.num_classes);
    if (inserted) ++p.num_classes;
    p.labels[t] = it->second;
  }
  return p;
}

bool HoldsExactly(const EncodedInstance& inst, AttrSet x, AttrId a) {
  Partition px = PartitionBy(inst, x);
  Partition pxa = Refine(inst, px, a);
  return px.Error() == pxa.Error();
}

}  // namespace retrust
