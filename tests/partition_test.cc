#include "src/fd/partition.h"

#include <gtest/gtest.h>

namespace retrust {
namespace {

Instance Sample() {
  // A B C
  // 1 1 1
  // 1 2 1
  // 2 2 1
  // 2 2 2
  Instance inst(Schema::FromNames({"A", "B", "C"}));
  auto add = [&](const char* a, const char* b, const char* c) {
    inst.AddTuple({Value(a), Value(b), Value(c)});
  };
  add("1", "1", "1");
  add("1", "2", "1");
  add("2", "2", "1");
  add("2", "2", "2");
  return inst;
}

TEST(Partition, ByOneAttribute) {
  EncodedInstance enc(Sample());
  Partition p = PartitionBy(enc, AttrSet{0});
  EXPECT_EQ(p.num_classes, 2);
  EXPECT_EQ(p.labels[0], p.labels[1]);
  EXPECT_EQ(p.labels[2], p.labels[3]);
  EXPECT_NE(p.labels[0], p.labels[2]);
  EXPECT_EQ(p.Error(), 2);  // 4 tuples - 2 classes
}

TEST(Partition, ByEmptySetIsSingleClass) {
  EncodedInstance enc(Sample());
  Partition p = PartitionBy(enc, AttrSet());
  EXPECT_EQ(p.num_classes, 1);
  EXPECT_EQ(p.Error(), 3);
}

TEST(Partition, ByAllAttributes) {
  EncodedInstance enc(Sample());
  Partition p = PartitionBy(enc, AttrSet{0, 1, 2});
  EXPECT_EQ(p.num_classes, 4);
  EXPECT_EQ(p.Error(), 0);
}

TEST(Partition, RefineMatchesDirectPartition) {
  EncodedInstance enc(Sample());
  Partition pa = PartitionBy(enc, AttrSet{0});
  Partition pab = Refine(enc, pa, 1);
  Partition direct = PartitionBy(enc, AttrSet{0, 1});
  EXPECT_EQ(pab.num_classes, direct.num_classes);
  EXPECT_EQ(pab.Error(), direct.Error());
}

TEST(Partition, StrippedClassesDropSingletons) {
  EncodedInstance enc(Sample());
  Partition p = PartitionBy(enc, AttrSet{0, 1});
  // Classes: {t0}, {t1}, {t2,t3} -> stripped keeps one class of size 2.
  StrippedPartition stripped = StripClasses(p);
  ASSERT_EQ(stripped.num_classes(), 1);
  EXPECT_EQ(stripped.class_size(0), 2);
  EXPECT_EQ(stripped.members, (std::vector<TupleId>{2, 3}));
  EXPECT_EQ(stripped.offsets, (std::vector<int32_t>{0, 2}));
}

TEST(Partition, HoldsExactly) {
  EncodedInstance enc(Sample());
  // A -> C? classes of A: {t0,t1} C=1,1 ok; {t2,t3} C=1,2 no.
  EXPECT_FALSE(HoldsExactly(enc, AttrSet{0}, 2));
  // AB -> C? {t2,t3} still split: no.
  EXPECT_FALSE(HoldsExactly(enc, AttrSet{0, 1}, 2));
  // C -> A? C=1: A=1,1,2 no.
  EXPECT_FALSE(HoldsExactly(enc, AttrSet{2}, 0));
  // A -> nothing else holds; but AC -> B? classes {t0,t1} (A=1,C=1): B=1,2
  // no. Try B -> ... B=2: A=1,2,2 no. AB -> itself trivially: skip.
  // ABC superkey: ABC -> anything holds.
  EXPECT_TRUE(HoldsExactly(enc, AttrSet{0, 1, 2}, 0));
  // Planted: attribute C equals 1 unless (A,B) = (2,2)&row4 — no clean FD
  // here; verify one that DOES hold: does B=1 only when A=1? B -> A fails
  // (checked); A -> B fails; but {A,C} -> B? classes: (1,1):{t0,t1} B=1,2
  // fails. So assert a known-true one on a constant column:
  Instance with_const(Schema::FromNames({"X", "Y"}));
  with_const.AddTuple({Value("1"), Value("k")});
  with_const.AddTuple({Value("2"), Value("k")});
  EncodedInstance enc2(with_const);
  EXPECT_TRUE(HoldsExactly(enc2, AttrSet(), 1));   // Y is constant
  EXPECT_FALSE(HoldsExactly(enc2, AttrSet(), 0));  // X is not
  EXPECT_TRUE(HoldsExactly(enc2, AttrSet{0}, 1));
}

}  // namespace
}  // namespace retrust
