// Typed cell values with V-instance variable semantics (paper Definition 1).
//
// A cell holds either a constant (null / int64 / double / string) or an
// attribute-scoped variable v^A_i. Equality follows the V-instance rules:
//   * constants compare by type and content (doubles by bit pattern, so
//     NaN equals NaN and 0.0 differs from -0.0);
//   * a variable equals another variable iff they have the same attribute
//     and index (the same variable);
//   * a variable never equals a constant (variables instantiate to fresh
//     values outside the attribute's active domain);
//   * distinct variables can never be instantiated to equal values, so
//     distinct variables compare unequal.

#ifndef RETRUST_RELATIONAL_VALUE_H_
#define RETRUST_RELATIONAL_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "src/relational/attrset.h"

namespace retrust {

/// Identifies variable v^A_i: the i-th fresh variable of attribute A.
struct VarRef {
  AttrId attr = -1;
  int32_t index = -1;

  friend bool operator==(const VarRef& a, const VarRef& b) {
    return a.attr == b.attr && a.index == b.index;
  }
};

/// A single cell value (constant or variable).
class Value {
 public:
  enum class Kind { kNull, kInt, kDouble, kString, kVariable };

  Value() : rep_(std::monostate{}) {}
  explicit Value(int64_t v) : rep_(v) {}
  explicit Value(double v) : rep_(v) {}
  explicit Value(std::string v) : rep_(std::move(v)) {}
  explicit Value(const char* v) : rep_(std::string(v)) {}
  explicit Value(VarRef v) : rep_(v) {}

  /// The null constant.
  static Value Null() { return Value(); }
  /// The variable v^{attr}_{index}.
  static Value Variable(AttrId attr, int32_t index) {
    return Value(VarRef{attr, index});
  }

  Kind kind() const { return static_cast<Kind>(rep_.index()); }
  bool is_null() const { return kind() == Kind::kNull; }
  bool is_variable() const { return kind() == Kind::kVariable; }
  bool is_constant() const { return !is_variable(); }

  int64_t AsInt() const { return std::get<int64_t>(rep_); }
  double AsDouble() const { return std::get<double>(rep_); }
  const std::string& AsString() const { return std::get<std::string>(rep_); }
  VarRef AsVariable() const { return std::get<VarRef>(rep_); }

  /// V-instance equality (see file comment).
  friend bool operator==(const Value& a, const Value& b);
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }

  /// Human-readable rendering; variables render as "?A3" style with the
  /// attribute id, or "?Name3" when a name is supplied.
  std::string ToString() const;
  std::string ToString(const std::string& attr_name) const;

  /// Hash compatible with operator==.
  size_t Hash() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string, VarRef> rep_;
};

/// Hasher for unordered containers.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace retrust

#endif  // RETRUST_RELATIONAL_VALUE_H_
