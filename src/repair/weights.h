// Weighting functions w(Y) for the FD-distance distc(Σ, Σ') =
// Σ_i w(Y_i), where Y_i is the attribute set appended to the i-th FD's LHS
// (paper §3.1).
//
// Requirements from the paper: w is non-negative and monotone
// (X ⊆ Y ⇒ w(X) ≤ w(Y)), and w(∅) = 0. The paper's experiments use the
// number of distinct values of the appended attribute set in the *initial*
// instance (more informative attributes are more expensive to append);
// weights are frozen against the initial I (§3.1 simplifying assumption),
// which the memoizing implementations here rely on. Under the incremental
// update engine "initial" means "as of the last delta": Session::Apply
// calls Invalidate() after mutating the instance, so memoized projections
// refresh lazily against the post-delta data.

#ifndef RETRUST_REPAIR_WEIGHTS_H_
#define RETRUST_REPAIR_WEIGHTS_H_

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/relational/dictionary.h"

namespace retrust {

/// Interface for monotone extension weights.
class WeightFunction {
 public:
  virtual ~WeightFunction() = default;

  /// w(Y). Must be non-negative, monotone, and 0 for the empty set.
  virtual double Weight(AttrSet y) const = 0;

  /// Drops any memoized state derived from the underlying instance; called
  /// after the instance mutates (Session::Apply). Instance-independent
  /// weights are a no-op. Requires external exclusion against concurrent
  /// Weight() calls.
  virtual void Invalidate() {}

  /// distc contribution of a whole extension vector: Σ_i w(Y_i).
  double Cost(const std::vector<AttrSet>& extensions) const;
};

/// w(Y) = |Y| — the simple cardinality weight.
class CardinalityWeight final : public WeightFunction {
 public:
  double Weight(AttrSet y) const override { return y.Count(); }
};

/// w(Y) = |π_Y(I)| (number of distinct Y-projections in the initial
/// instance), w(∅) = 0 — the paper's experimental choice. Memoized; the
/// memo is mutex-guarded so one weight instance may serve concurrent
/// searches (the τ jobs of an exec/ sweep).
class DistinctCountWeight final : public WeightFunction {
 public:
  /// Keeps a reference to `inst`; the instance must outlive the weight.
  explicit DistinctCountWeight(const EncodedInstance& inst) : inst_(inst) {}

  double Weight(AttrSet y) const override;
  void Invalidate() override;

 private:
  const EncodedInstance& inst_;
  mutable std::mutex mu_;
  mutable std::unordered_map<AttrSet, double, AttrSetHash> cache_;
};

/// w(Y) = H(Y), the empirical joint entropy (bits) of the Y-projection in
/// the initial instance; w(∅) = 0. Monotone since H(Y ∪ B) >= H(Y).
class EntropyWeight final : public WeightFunction {
 public:
  explicit EntropyWeight(const EncodedInstance& inst) : inst_(inst) {}

  double Weight(AttrSet y) const override;
  void Invalidate() override;

 private:
  const EncodedInstance& inst_;
  mutable std::mutex mu_;
  mutable std::unordered_map<AttrSet, double, AttrSetHash> cache_;
};

}  // namespace retrust

#endif  // RETRUST_REPAIR_WEIGHTS_H_
