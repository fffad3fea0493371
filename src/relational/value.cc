#include "src/relational/value.h"

#include <bit>
#include <cstdint>

#include "src/util/hash.h"

namespace retrust {

bool operator==(const Value& a, const Value& b) {
  if (a.rep_.index() != b.rep_.index()) return false;
  // Doubles compare by bit pattern, the key Hash() uses: NaN equals
  // itself (a NaN cell must intern to one dictionary code) and 0.0 and
  // -0.0 stay distinct values.
  if (a.kind() == Value::Kind::kDouble) {
    return std::bit_cast<uint64_t>(a.AsDouble()) ==
           std::bit_cast<uint64_t>(b.AsDouble());
  }
  return a.rep_ == b.rep_;
}

std::string Value::ToString() const {
  switch (kind()) {
    case Kind::kNull:
      return "NULL";
    case Kind::kInt:
      return std::to_string(AsInt());
    case Kind::kDouble: {
      std::string s = std::to_string(AsDouble());
      return s;
    }
    case Kind::kString:
      return AsString();
    case Kind::kVariable: {
      VarRef v = AsVariable();
      return "?" + std::to_string(v.attr) + "_" + std::to_string(v.index);
    }
  }
  return "";
}

std::string Value::ToString(const std::string& attr_name) const {
  if (kind() != Kind::kVariable) return ToString();
  VarRef v = AsVariable();
  return "?" + attr_name + std::to_string(v.index);
}

size_t Value::Hash() const {
  uint64_t seed = static_cast<uint64_t>(rep_.index());
  switch (kind()) {
    case Kind::kNull:
      break;
    case Kind::kInt:
      HashCombine(&seed, static_cast<uint64_t>(AsInt()));
      break;
    case Kind::kDouble:
      HashCombine(&seed, std::bit_cast<uint64_t>(AsDouble()));
      break;
    case Kind::kString:
      HashCombine(&seed, std::hash<std::string>{}(AsString()));
      break;
    case Kind::kVariable: {
      VarRef v = AsVariable();
      HashCombine(&seed, static_cast<uint64_t>(v.attr));
      HashCombine(&seed, static_cast<uint64_t>(v.index));
      break;
    }
  }
  return static_cast<size_t>(seed);
}

}  // namespace retrust
