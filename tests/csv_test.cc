#include "src/relational/csv.h"

#include <gtest/gtest.h>

#include <sstream>

#include "tests/temp_path.h"

namespace retrust {
namespace {

TEST(Csv, ReadsHeaderAndRowsWithTypeInference) {
  std::istringstream in("id,name,score\n1,alice,1.5\n2,bob,2\n");
  Instance inst = ReadCsv(in);
  EXPECT_EQ(inst.NumAttrs(), 3);
  EXPECT_EQ(inst.NumTuples(), 2);
  EXPECT_EQ(inst.schema().type(0), AttrType::kInt);
  EXPECT_EQ(inst.schema().type(1), AttrType::kString);
  EXPECT_EQ(inst.schema().type(2), AttrType::kDouble);
  EXPECT_EQ(inst.At(0, 0), Value(int64_t{1}));
  EXPECT_EQ(inst.At(1, 1), Value("bob"));
  EXPECT_EQ(inst.At(1, 2), Value(2.0));
}

TEST(Csv, QuotedFieldsWithCommasAndQuotes) {
  std::istringstream in("a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n");
  Instance inst = ReadCsv(in);
  EXPECT_EQ(inst.At(0, 0), Value("x,y"));
  EXPECT_EQ(inst.At(0, 1), Value("he said \"hi\""));
}

TEST(Csv, EmptyFieldsBecomeNull) {
  std::istringstream in("a,b\n1,\n,2\n");
  Instance inst = ReadCsv(in);
  EXPECT_TRUE(inst.At(0, 1).is_null());
  EXPECT_TRUE(inst.At(1, 0).is_null());
}

TEST(Csv, CrLfLineEndings) {
  std::istringstream in("a,b\r\n1,2\r\n");
  Instance inst = ReadCsv(in);
  EXPECT_EQ(inst.NumTuples(), 1);
  EXPECT_EQ(inst.At(0, 1), Value(int64_t{2}));
}

TEST(Csv, RejectsArityMismatch) {
  std::istringstream in("a,b\n1\n");
  EXPECT_THROW(ReadCsv(in), std::runtime_error);
}

TEST(Csv, RejectsEmptyInput) {
  std::istringstream in("");
  EXPECT_THROW(ReadCsv(in), std::runtime_error);
}

TEST(Csv, RoundTrip) {
  std::istringstream in("a,b,c\n1,x y,3.5\n2,\"q,r\",4.5\n");
  Instance inst = ReadCsv(in);
  std::ostringstream out;
  WriteCsv(inst, out);
  std::istringstream in2(out.str());
  Instance again = ReadCsv(in2);
  EXPECT_EQ(inst.DistdTo(again), 0);
}

TEST(Csv, WriteEscapesSpecialCharacters) {
  Instance inst(Schema({{"a", AttrType::kString}}));
  inst.AddTuple({Value("needs,quote")});
  inst.AddTuple({Value("has\"quote")});
  std::ostringstream out;
  WriteCsv(inst, out);
  EXPECT_NE(out.str().find("\"needs,quote\""), std::string::npos);
  EXPECT_NE(out.str().find("\"has\"\"quote\""), std::string::npos);
}

TEST(Csv, FileRoundTrip) {
  Instance inst(Schema({{"a", AttrType::kInt}, {"b", AttrType::kString}}));
  inst.AddTuple({Value(int64_t{5}), Value("hello")});
  std::string path = TempPath("round_trip.csv");
  WriteCsvFile(inst, path);
  Instance back = ReadCsvFile(path);
  EXPECT_EQ(inst.DistdTo(back), 0);
  EXPECT_THROW(ReadCsvFile("/nonexistent/nope.csv"), std::runtime_error);
}

TEST(Csv, NegativeNumbersInferred) {
  std::istringstream in("a\n-3\n7\n");
  Instance inst = ReadCsv(in);
  EXPECT_EQ(inst.schema().type(0), AttrType::kInt);
  EXPECT_EQ(inst.At(0, 0), Value(int64_t{-3}));
}

}  // namespace
}  // namespace retrust
