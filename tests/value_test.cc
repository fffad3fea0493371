#include "src/relational/value.h"

#include <gtest/gtest.h>

#include <limits>

namespace retrust {
namespace {

TEST(Value, KindsAndAccessors) {
  EXPECT_EQ(Value().kind(), Value::Kind::kNull);
  EXPECT_EQ(Value(int64_t{7}).kind(), Value::Kind::kInt);
  EXPECT_EQ(Value(1.5).kind(), Value::Kind::kDouble);
  EXPECT_EQ(Value("x").kind(), Value::Kind::kString);
  EXPECT_EQ(Value::Variable(2, 3).kind(), Value::Kind::kVariable);
  EXPECT_EQ(Value(int64_t{7}).AsInt(), 7);
  EXPECT_EQ(Value(1.5).AsDouble(), 1.5);
  EXPECT_EQ(Value("x").AsString(), "x");
  EXPECT_EQ(Value::Variable(2, 3).AsVariable().attr, 2);
  EXPECT_EQ(Value::Variable(2, 3).AsVariable().index, 3);
}

TEST(Value, ConstantEquality) {
  EXPECT_EQ(Value(int64_t{5}), Value(int64_t{5}));
  EXPECT_NE(Value(int64_t{5}), Value(int64_t{6}));
  EXPECT_EQ(Value("abc"), Value("abc"));
  EXPECT_NE(Value("abc"), Value("abd"));
  EXPECT_EQ(Value::Null(), Value::Null());
}

TEST(Value, CrossKindInequality) {
  // int 5 and double 5.0 and string "5" are all distinct values.
  EXPECT_NE(Value(int64_t{5}), Value(5.0));
  EXPECT_NE(Value(int64_t{5}), Value("5"));
  EXPECT_NE(Value::Null(), Value(int64_t{0}));
  EXPECT_NE(Value::Null(), Value(""));
}

TEST(Value, VInstanceVariableSemantics) {
  Value v1 = Value::Variable(0, 1);
  Value v1_again = Value::Variable(0, 1);
  Value v2 = Value::Variable(0, 2);
  Value other_attr = Value::Variable(1, 1);
  // A variable equals exactly itself.
  EXPECT_EQ(v1, v1_again);
  // Distinct variables are never equal (they instantiate distinctly).
  EXPECT_NE(v1, v2);
  EXPECT_NE(v1, other_attr);
  // A variable never equals a constant.
  EXPECT_NE(v1, Value(int64_t{1}));
  EXPECT_NE(v1, Value("v1"));
  EXPECT_NE(v1, Value::Null());
}

TEST(Value, HashConsistentWithEquality) {
  EXPECT_EQ(Value(int64_t{42}).Hash(), Value(int64_t{42}).Hash());
  EXPECT_EQ(Value("q").Hash(), Value("q").Hash());
  EXPECT_EQ(Value::Variable(3, 4).Hash(), Value::Variable(3, 4).Hash());
  // Not required, but catches degenerate implementations:
  EXPECT_NE(Value(int64_t{1}).Hash(), Value(int64_t{2}).Hash());
  EXPECT_NE(Value::Variable(0, 0).Hash(), Value::Variable(0, 1).Hash());
}

// Doubles compare by bit pattern, the key Hash() uses, so equality stays an
// equivalence relation that agrees with the hash: NaN equals itself, and
// 0.0 and -0.0 (equal under ==, different bits) are distinct values.
TEST(Value, DoublesCompareByBitPattern) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(Value(nan), Value(nan));
  EXPECT_EQ(Value(nan).Hash(), Value(nan).Hash());
  EXPECT_NE(Value(0.0), Value(-0.0));
  EXPECT_EQ(Value(-0.0), Value(-0.0));
  EXPECT_EQ(Value(-0.0).Hash(), Value(-0.0).Hash());
  EXPECT_EQ(Value(1.5), Value(1.5));
  EXPECT_NE(Value(nan), Value(1.5));
}

TEST(Value, ToString) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value(int64_t{3}).ToString(), "3");
  EXPECT_EQ(Value("hi").ToString(), "hi");
  EXPECT_EQ(Value::Variable(2, 5).ToString(), "?2_5");
  EXPECT_EQ(Value::Variable(2, 5).ToString("Zip"), "?Zip5");
  EXPECT_EQ(Value("hi").ToString("Zip"), "hi");
}

}  // namespace
}  // namespace retrust
