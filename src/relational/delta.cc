#include "src/relational/delta.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace retrust {

namespace {

/// A variable's index must leave its successor representable: encoding
/// maps index i to code -(i + 1) and bumps the fresh-variable counter to
/// i + 1.
void CheckVariableIndex(const Value& v) {
  if (!v.is_variable()) return;
  const int32_t index = v.AsVariable().index;
  if (index < 0 || index == std::numeric_limits<int32_t>::max()) {
    throw std::invalid_argument("delta variable index " +
                                std::to_string(index) + " out of range");
  }
}

}  // namespace

DeltaPlan PlanDelta(const DeltaBatch& delta, int num_tuples, int num_attrs) {
  DeltaPlan plan;
  plan.old_num_tuples = num_tuples;

  for (const Tuple& t : delta.inserts) {
    if (static_cast<int>(t.size()) != num_attrs) {
      throw std::invalid_argument(
          "delta insert arity " + std::to_string(t.size()) +
          " does not match the " + std::to_string(num_attrs) +
          "-attribute schema");
    }
    for (const Value& v : t) CheckVariableIndex(v);
  }
  for (const CellUpdate& u : delta.updates) {
    if (u.tuple < 0 || u.tuple >= num_tuples) {
      throw std::invalid_argument("delta update tuple id " +
                                  std::to_string(u.tuple) + " out of range");
    }
    if (u.attr < 0 || u.attr >= num_attrs) {
      throw std::invalid_argument("delta update attribute " +
                                  std::to_string(u.attr) + " out of range");
    }
    CheckVariableIndex(u.value);
  }
  std::vector<TupleId> dels = delta.deletes;
  std::sort(dels.begin(), dels.end(), std::greater<TupleId>());
  for (size_t i = 0; i < dels.size(); ++i) {
    if (dels[i] < 0 || dels[i] >= num_tuples) {
      throw std::invalid_argument("delta delete tuple id " +
                                  std::to_string(dels[i]) + " out of range");
    }
    if (i > 0 && dels[i] == dels[i - 1]) {
      throw std::invalid_argument("duplicate delete of tuple id " +
                                  std::to_string(dels[i]));
    }
  }

  // Simulate the swap-removes (descending ids): slot_of tracks where each
  // pre-delta tuple currently lives, owner the reverse.
  std::vector<TupleId> slot_of(num_tuples);
  std::vector<TupleId> owner(num_tuples);
  for (TupleId t = 0; t < num_tuples; ++t) slot_of[t] = owner[t] = t;
  int live = num_tuples;
  for (TupleId d : dels) {
    TupleId hole = slot_of[d];
    TupleId last = owner[live - 1];
    if (hole != live - 1) {
      plan.moves.emplace_back(hole, live - 1);
      owner[hole] = last;
      slot_of[last] = hole;
    }
    slot_of[d] = -1;
    --live;
  }
  plan.remap = std::move(slot_of);

  plan.new_num_tuples = live + static_cast<int>(delta.inserts.size());

  // Dirty = updated survivors + relocated survivors + inserts, in
  // post-delta ids.
  std::vector<char> dirty(plan.new_num_tuples, 0);
  for (const CellUpdate& u : delta.updates) {
    TupleId t = plan.remap[u.tuple];
    if (t >= 0) dirty[t] = 1;
  }
  for (TupleId t = 0; t < num_tuples; ++t) {
    TupleId nt = plan.remap[t];
    if (nt >= 0 && nt != t) dirty[nt] = 1;
  }
  for (int i = 0; i < static_cast<int>(delta.inserts.size()); ++i) {
    dirty[live + i] = 1;
  }
  for (TupleId t = 0; t < plan.new_num_tuples; ++t) {
    if (dirty[t]) plan.dirty.push_back(t);
  }
  return plan;
}

}  // namespace retrust
