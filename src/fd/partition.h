// Equivalence-class partitions of tuples under attribute-set projections —
// the workhorse of exact FD checking and TANE-style discovery (paper §8.1
// uses an FD discovery pass to seed the experiments).
//
// We use the "error" measure from TANE: e(X) = Σ over classes (|c| - 1)
// = n - #classes. X -> A holds exactly iff e(X) = e(X ∪ {A}), i.e.
// refining by A does not split any class.

#ifndef RETRUST_FD_PARTITION_H_
#define RETRUST_FD_PARTITION_H_

#include <cstdint>
#include <vector>

#include "src/relational/dictionary.h"

namespace retrust {

/// Partition of tuple ids by equality on an attribute set.
struct Partition {
  /// Dense class label per tuple, in [0, num_classes).
  std::vector<int32_t> labels;
  int32_t num_classes = 0;

  /// TANE error: number of tuples minus number of classes.
  int64_t Error() const {
    return static_cast<int64_t>(labels.size()) - num_classes;
  }
};

/// The "stripped" representation of a partition: its classes of >= 2
/// tuples in CSR layout, in label order. Labels are assigned in
/// first-occurrence order, so class c's smallest tuple id ascends in c — a
/// deterministic work-unit order for sharded kernels. `members` holds each
/// class's tuple ids ascending, classes back to back.
struct StrippedPartition {
  std::vector<TupleId> members;
  /// Class c is members[offsets[c], offsets[c + 1]).
  std::vector<int32_t> offsets;

  int num_classes() const { return static_cast<int>(offsets.size()) - 1; }
  const TupleId* class_begin(int c) const {
    return members.data() + offsets[c];
  }
  int class_size(int c) const { return offsets[c + 1] - offsets[c]; }
};

/// Strips `p` to its classes of >= 2 tuples. O(n).
StrippedPartition StripClasses(const Partition& p);

/// Partition of `inst` on `attrs` (empty set => single class).
Partition PartitionBy(const EncodedInstance& inst, AttrSet attrs);

/// Refines `base` (a partition on X) by attribute `a`, producing the
/// partition on X ∪ {a}. O(n).
Partition Refine(const EncodedInstance& inst, const Partition& base,
                 AttrId a);

/// True iff X -> A holds exactly on `inst` (via partition refinement).
bool HoldsExactly(const EncodedInstance& inst, AttrSet x, AttrId a);

}  // namespace retrust

#endif  // RETRUST_FD_PARTITION_H_
