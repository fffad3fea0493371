// The group×FD violation incidence table (the δP evaluation pipeline's
// first stage; see DESIGN.md).
//
// Whether difference-set group g violates FD i of a relaxation Σ' factors
// into a state-independent part and a state-dependent part:
//
//   violates(g, i, S)  ⟺  A_i ∈ d_g ∧ X_i ∩ d_g = ∅      (precomputed here)
//                        ∧ Y_i ∩ d_g = ∅                  (two word ops)
//
// where d_g is the group's difference set and Y_i = S.ext[i]. The table
// stores, per group, the mask of FDs whose precomputed part holds plus the
// "deactivating" attribute mask d_g — so "is group g violated under S"
// becomes a handful of bitset tests instead of an FD-set scan, and the
// full violated-group set of a state materializes as a compact GroupBitset
// (the cover memo's cache key).
//
// The table is a pure function of Σ and each group's difference set, and
// building it is one pass over the groups (microseconds at the group
// counts seen in practice). So it is built one way: a delta or a snapshot
// restore builds it again over the patched or restored index.
//
// Layering: the table takes raw extension vectors (std::vector<AttrSet>),
// not SearchState — fd/ sits below repair/; the repair-side DeltaPEvaluator
// adapts.

#ifndef RETRUST_FD_VIOLATION_TABLE_H_
#define RETRUST_FD_VIOLATION_TABLE_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "src/fd/difference_set.h"
#include "src/graph/group_bitset.h"

namespace retrust {

/// Precomputed incidence between difference-set groups and the FDs of one
/// Σ (at most 64 FDs, matching the conflict graph's edge-mask cap). Every
/// const method is thread-safe (the table is immutable after build).
class ViolationTable {
 public:
  /// Builds the incidence table over `index`'s groups in one serial pass
  /// (per-group masks and per-FD candidate lists, in canonical group order).
  ViolationTable(const FDSet& sigma, const DifferenceSetIndex& index);

  int num_fds() const { return num_fds_; }
  int num_groups() const { return num_groups_; }

  /// True iff group g is violated under extensions `ext` (`ext.size()`
  /// must equal num_fds()). Identical to the legacy FD-set scan
  ///   ∃i: A_i ∈ d_g ∧ (X_i ∪ Y_i) ∩ d_g = ∅.
  bool GroupViolated(int g, const std::vector<AttrSet>& ext) const {
    uint64_t fds = fd_mask_[g];
    const uint64_t d = diff_bits_[g];
    while (fds != 0) {
      int i = std::countr_zero(fds);
      fds &= fds - 1;
      if ((ext[i].bits() & d) == 0) return true;
    }
    return false;
  }

  /// Fills `out` with the violated-group set under `ext` (resized to
  /// num_groups()). FDs with empty extensions contribute their whole
  /// candidate mask in one OR pass; the rest scan their candidate list.
  void ViolatedGroups(const std::vector<AttrSet>& ext,
                      GroupBitset* out) const;

  /// Groups that can violate FD i regardless of extensions (Y_i = ∅).
  const GroupBitset& candidates(int i) const { return cand_mask_[i]; }

  /// Per-group precomputed FD masks in canonical group order.
  const std::vector<uint64_t>& fd_masks() const { return fd_mask_; }

 private:
  int num_fds_ = 0;
  int num_groups_ = 0;
  std::vector<uint64_t> fd_mask_;    // per group: FDs it can violate
  std::vector<uint64_t> diff_bits_;  // per group: d_g's attribute mask
  std::vector<std::vector<int32_t>> cand_groups_;  // per FD, ascending ids
  std::vector<GroupBitset> cand_mask_;             // per FD, same content
};

}  // namespace retrust

#endif  // RETRUST_FD_VIOLATION_TABLE_H_
