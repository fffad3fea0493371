#include "src/relational/csv.h"

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <random>
#include <sstream>

#include "src/api/session.h"
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

// strtod reads "nan", so NaN cells reach the dictionary from CSV (and the
// wire). The two NaN cells must intern to ONE code, or the A->B conflict
// between rows 0 and 1 is invisible; 0.0 and -0.0 keep distinct codes.
TEST(Csv, NanCellsShareOneCode) {
  std::istringstream in("A,B\nnan,1\nnan,2\n0,3\n-0,4\n");
  Instance inst = ReadCsv(in);
  ASSERT_EQ(inst.schema().type(0), AttrType::kDouble);
  EncodedInstance enc(inst);
  EXPECT_EQ(enc.At(0, 0), enc.At(1, 0));
  EXPECT_NE(enc.At(2, 0), enc.At(3, 0));
  EXPECT_EQ(enc.DictionarySize(0), 3);
  Result<Session> session = Session::Open(std::move(inst), {"A->B"});
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_GT(session->RootDeltaP(), 0);
}

// --- Seeded mutation fuzz through Session::OpenCsv ------------------------

/// One seeded mutation of a CSV text: a bit flip, a truncation, a
/// duplicated span, a stray quote or '\r', an over-long line, or a field
/// overwritten with a special float spelling.
std::string MutateCsv(std::string text, std::mt19937_64& rng) {
  static const char* const kSpecial[] = {"nan", "-nan", "inf", "-inf",
                                         "1e999", "-0", "NaN", "0x1p3"};
  if (text.empty()) return text;
  const size_t pos = rng() % text.size();
  switch (rng() % 7) {
    case 0:
      text[pos] = static_cast<char>(text[pos] ^ (1 << (rng() % 8)));
      break;
    case 1:
      text.resize(pos);
      break;
    case 2: {
      const size_t len = 1 + rng() % std::min<size_t>(64, text.size() - pos);
      text.insert(pos, text.substr(pos, len));
      break;
    }
    case 3:
      text.insert(pos, 1, rng() % 2 == 0 ? '"' : '\r');
      break;
    case 4: {
      const size_t len = 1 + rng() % 8192;
      text.insert(pos, std::string(len, rng() % 2 == 0 ? '9' : 'x'));
      break;
    }
    default: {
      // Overwrite the field under `pos` (up to the next separator).
      size_t begin = pos;
      while (begin > 0 && text[begin - 1] != ',' && text[begin - 1] != '\n') {
        --begin;
      }
      size_t end = text.find_first_of(",\n", pos);
      if (end == std::string::npos) end = text.size();
      text.replace(begin, end - begin, kSpecial[rng() % std::size(kSpecial)]);
      break;
    }
  }
  return text;
}

TEST(CsvFuzz, MutantsFailCleanlyOrRepair) {
  const std::string seed =
      "Name,City,Zip,Score\n"
      "Alice,Springfield,11111,1.5\n"
      "Bob,Springfield,22222,2\n"
      "Carol,Shelbyville,33333,nan\n"
      "\"Dan, Jr.\",Springfield,11111,-0\n"
      "Eve,Shelbyville,33333,inf\r\n"
      "Fay,Shelbyville,44444,\n";
  const std::string path = TempPath("fuzz.csv");
  std::mt19937_64 rng(0xc5f022);
  constexpr int kMutants = 10000;
  int rejected = 0;
  int opened = 0;
  for (int i = 0; i < kMutants; ++i) {
    std::string mutant = seed;
    for (int k = 1 + static_cast<int>(rng() % 3); k > 0; --k) {
      mutant = MutateCsv(std::move(mutant), rng);
    }
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << mutant;
    }
    Result<Session> session = Session::OpenCsv(path, {"City->Zip"});
    if (!session.ok()) {
      ++rejected;
      continue;
    }
    ++opened;
    // τr = 1 admits the unrelaxed Σ, so a repair always exists.
    Result<RepairResponse> full =
        session->Repair(RepairRequest::AtRelative(1.0));
    EXPECT_TRUE(full.ok()) << full.status().ToString() << "\n" << mutant;
    (void)session->Repair(RepairRequest::AtRelative(0.0));
  }
  EXPECT_EQ(rejected + opened, kMutants);
  EXPECT_GT(rejected, 0);
  EXPECT_GT(opened, kMutants / 4);
}

}  // namespace
}  // namespace retrust
