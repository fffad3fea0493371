#include "src/fd/violation_table.h"

#include <stdexcept>

namespace retrust {

namespace {

/// The state-independent incidence of one difference set with Σ:
/// bit i set iff A_i ∈ d ∧ X_i ∩ d = ∅.
uint64_t IncidenceMask(const FDSet& sigma, AttrSet diff) {
  uint64_t mask = 0;
  for (int i = 0; i < sigma.size(); ++i) {
    const FD& fd = sigma.fd(i);
    if (diff.Contains(fd.rhs) && !fd.lhs.Intersects(diff)) {
      mask |= uint64_t{1} << i;
    }
  }
  return mask;
}

}  // namespace

ViolationTable::ViolationTable(const FDSet& sigma,
                               const DifferenceSetIndex& index)
    : num_fds_(sigma.size()), num_groups_(index.size()) {
  if (num_fds_ > 64) {
    throw std::invalid_argument("ViolationTable supports at most 64 FDs");
  }
  fd_mask_.resize(num_groups_);
  diff_bits_.resize(num_groups_);
  cand_groups_.resize(num_fds_);
  cand_mask_.assign(num_fds_, GroupBitset(num_groups_));
  for (int g = 0; g < num_groups_; ++g) {
    const AttrSet diff = index.group(g).diff;
    diff_bits_[g] = diff.bits();
    fd_mask_[g] = IncidenceMask(sigma, diff);
    for (uint64_t mask = fd_mask_[g]; mask != 0; mask &= mask - 1) {
      const int i = std::countr_zero(mask);
      cand_groups_[i].push_back(g);
      cand_mask_[i].Set(g);
    }
  }
}

void ViolationTable::ViolatedGroups(const std::vector<AttrSet>& ext,
                                    GroupBitset* out) const {
  out->Reset(num_groups_);
  for (int i = 0; i < num_fds_; ++i) {
    if (ext[i].Empty()) {
      out->OrWith(cand_mask_[i]);
      continue;
    }
    const uint64_t e = ext[i].bits();
    for (int32_t g : cand_groups_[i]) {
      if ((e & diff_bits_[g]) == 0) out->Set(g);
    }
  }
}

}  // namespace retrust
