// FD satisfaction checks and violating-pair enumeration over encoded
// instances.
//
// The kernels follow the paper's partition scheme (§6): hash-partition the
// tuples on the FD's LHS codes, sub-partition each class on the RHS code;
// an FD is violated exactly by pairs in the same partition but different
// sub-partitions. Variable codes participate like constants (a variable
// equals only itself), so V-instance semantics hold throughout.

#ifndef RETRUST_FD_VIOLATION_H_
#define RETRUST_FD_VIOLATION_H_

#include <vector>

#include "src/fd/fdset.h"
#include "src/fd/partition.h"
#include "src/graph/graph.h"
#include "src/relational/dictionary.h"

namespace retrust::exec {
class ThreadPool;
}  // namespace retrust::exec

namespace retrust {

/// True iff `inst` |= `fd`.
bool Satisfies(const EncodedInstance& inst, const FD& fd);

/// True iff `inst` |= every FD in `fds`.
bool Satisfies(const EncodedInstance& inst, const FDSet& fds);

/// All tuple pairs violating `fd` (u < v, lexicographic order): the one
/// pair enumerator behind the conflict graph and the difference-set index
/// (difference_set.h). Costs O(n·|X| + n log n) to partition and order
/// the classes, plus O(1) per pair returned.
std::vector<Edge> ViolatingPairs(const EncodedInstance& inst, const FD& fd);

/// Sharded variant: the quadratic pair-emission phase is block-partitioned
/// over the violating LHS classes and run on `pool` (nullable = serial).
/// Per-chunk edge buffers are merged in chunk order and the result is
/// canonically sorted, so the output is BIT-IDENTICAL to the serial
/// overload for any thread count.
std::vector<Edge> ViolatingPairs(const EncodedInstance& inst, const FD& fd,
                                 exec::ThreadPool* pool);

/// The kernel under both overloads, for a caller that already holds the
/// LHS's stripped partition (the difference-set index build times the
/// partition phase on its own): the pairs of `lhs_classes` that disagree on
/// `rhs`, in the same canonical order, sharded on `pool` over classes.
std::vector<Edge> ViolatingPairs(const EncodedInstance& inst,
                                 const StrippedPartition& lhs_classes,
                                 AttrId rhs, exec::ThreadPool* pool);

/// Number of tuples involved in at least one violation of `fds`.
int64_t CountViolatingTuples(const EncodedInstance& inst, const FDSet& fds);

}  // namespace retrust

#endif  // RETRUST_FD_VIOLATION_H_
