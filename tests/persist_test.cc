// The persistence subsystem (src/persist/): snapshot round trips that are
// bit-identical at any thread count, hostile-bytes handling (truncation,
// bit flips, future format versions, foreign fingerprints, seeded mutants
// behind a recomputed checksum — every failure a clean Status, never a
// crash), the delta journal's encode/replay oracle and torn-tail
// tolerance, and the tenant registry's snapshot-backed unload/reload
// lifecycle with byte-budget eviction.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/session.h"
#include "src/eval/generator.h"
#include "src/eval/perturb.h"
#include "src/persist/io.h"
#include "src/persist/journal.h"
#include "src/persist/snapshot.h"
#include "src/service/tenant_registry.h"
#include "tests/temp_path.h"

namespace retrust {
namespace {

/// The quickstart table: City -> Zip violated by Carol's Zip.
Instance SmallInstance() {
  Schema schema(std::vector<Attribute>{{"Name", AttrType::kString},
                                       {"City", AttrType::kString},
                                       {"Zip", AttrType::kString}});
  Instance inst(schema);
  inst.AddTuple({Value("Alice"), Value("Springfield"), Value("11111")});
  inst.AddTuple({Value("Bob"), Value("Springfield"), Value("11111")});
  inst.AddTuple({Value("Carol"), Value("Springfield"), Value("22222")});
  inst.AddTuple({Value("Dave"), Value("Shelbyville"), Value("33333")});
  return inst;
}

/// A perturbed census-like workload — big enough that the search makes
/// real choices (variable allocation, cover memoization) a sloppy
/// serializer would get wrong.
struct WorkloadData {
  Instance dirty;
  FDSet sigma;
};

WorkloadData MakeWorkload(int num_tuples = 200) {
  CensusConfig gen;
  gen.num_tuples = num_tuples;
  gen.num_attrs = 8;
  gen.planted_lhs_sizes = {3};
  gen.seed = 17;
  PerturbOptions perturb;
  perturb.fd_error_rate = 0.5;
  perturb.data_error_rate = 0.03;
  perturb.seed = 23;
  GeneratedData clean = GenerateCensusLike(gen);
  PerturbedData dirty = Perturb(clean.instance, clean.planted_fds, perturb);
  return {dirty.data, dirty.fds};
}

std::string Fingerprint(const Repair& repair, const Schema& schema) {
  std::string fp = repair.sigma_prime.ToString(schema);
  fp += "|distc=" + std::to_string(repair.distc);
  fp += "|deltaP=" + std::to_string(repair.delta_p);
  for (const AttrSet& ext : repair.extensions) fp += "|" + ext.ToString();
  fp += "|cells:";
  for (const CellRef& c : repair.changed_cells) {
    fp += std::to_string(c.tuple) + "," + std::to_string(c.attr) + ";";
  }
  fp += "|data:" + repair.data.Decode().ToTable();
  return fp;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// The τ-grid every oracle comparison runs: both endpoints plus interior
/// points where the FD/data trade-off actually pivots.
std::vector<RepairRequest> OracleRequests() {
  std::vector<RepairRequest> reqs;
  for (double tau_r : {0.0, 0.3, 0.7, 1.0}) {
    reqs.push_back(RepairRequest::AtRelative(tau_r));
  }
  return reqs;
}

void ExpectSameAnswers(Session& want, Session& got, const char* label) {
  ASSERT_EQ(want.RootDeltaP(), got.RootDeltaP()) << label;
  ASSERT_EQ(want.NumTuples(), got.NumTuples()) << label;
  std::vector<RepairRequest> reqs = OracleRequests();
  std::vector<Result<RepairResponse>> a = want.RepairMany(reqs);
  std::vector<Result<RepairResponse>> b = got.RepairMany(reqs);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].ok(), b[i].ok()) << label << " slot " << i;
    if (!a[i].ok()) {
      EXPECT_EQ(a[i].status().code(), b[i].status().code()) << label;
      continue;
    }
    EXPECT_EQ(Fingerprint(a[i]->repair, want.schema()),
              Fingerprint(b[i]->repair, got.schema()))
        << label << " slot " << i;
  }
}

// --- Snapshot round trip --------------------------------------------------

// Acceptance criterion: a session opened from a snapshot answers the τ
// grid bit-identically to the session that saved it, at EVERY thread
// count — the snapshot fingerprint excludes execution configuration by
// design.
TEST(SnapshotRoundTrip, BitIdenticalAtEveryThreadCount) {
  WorkloadData data = MakeWorkload();
  Result<Session> original = Session::Open(data.dirty, data.sigma);
  ASSERT_TRUE(original.ok()) << original.status().ToString();
  const std::string path = TempPath("roundtrip.snap");
  ASSERT_TRUE(original->SaveSnapshot(path).ok());

  for (int threads : {1, 2, 4, 8}) {
    SessionOptions opts;
    opts.exec.num_threads = threads;
    Result<Session> restored = Session::OpenSnapshot(path, opts);
    ASSERT_TRUE(restored.ok())
        << threads << ": " << restored.status().ToString();
    ExpectSameAnswers(*original, *restored,
                      ("threads=" + std::to_string(threads)).c_str());
  }
}

// A restored session is fully live, not read-only: deltas apply on top of
// it and the post-delta answers still match a never-persisted session
// that took the same path.
TEST(SnapshotRoundTrip, RestoredSessionAcceptsDeltas) {
  WorkloadData data = MakeWorkload(120);
  Result<Session> original = Session::Open(data.dirty, data.sigma);
  ASSERT_TRUE(original.ok());
  const std::string path = TempPath("live_restore.snap");
  ASSERT_TRUE(original->SaveSnapshot(path).ok());
  Result<Session> restored = Session::OpenSnapshot(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  DeltaBatch delta;
  delta.Insert(data.dirty.row(0)).Insert(data.dirty.row(5));
  delta.Update(3, 1, data.dirty.At(7, 1));
  delta.Delete(11);
  ASSERT_TRUE(original->Apply(delta).ok());
  ASSERT_TRUE(restored->Apply(delta).ok());
  EXPECT_EQ(restored->DataVersion(), original->DataVersion());
  ExpectSameAnswers(*original, *restored, "post-delta");
}

// DataVersion travels with the snapshot: a session that applied deltas
// before saving restores at the same version, so journals and the tenant
// registry's dirty tracking stay consistent across a reload.
TEST(SnapshotRoundTrip, DataVersionSurvivesTheFile) {
  Result<Session> session = Session::Open(SmallInstance(), {"City->Zip"});
  ASSERT_TRUE(session.ok());
  DeltaBatch delta;
  delta.Insert({Value("Erin"), Value("Shelbyville"), Value("33333")});
  ASSERT_TRUE(session->Apply(delta).ok());
  const uint64_t version = session->DataVersion();
  EXPECT_GT(version, 1u);

  const std::string path = TempPath("versioned.snap");
  ASSERT_TRUE(session->SaveSnapshot(path).ok());
  Result<Session> restored = Session::OpenSnapshot(path);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->DataVersion(), version);
  EXPECT_EQ(restored->NumTuples(), 5);
}

// The encoded instance's fresh-variable counters are the only ones a
// snapshot carries, and they alone must drive variable allocation after a
// restore. Deltas leave every counter at 10 although the cells only hold
// variable 7 (indices 0-6 were never used, and variable 9 was overwritten),
// so counters recomputed from the cells would allocate differently.
TEST(SnapshotRoundTrip, FreshVariableCountersSurviveTheFile) {
  WorkloadData data = MakeWorkload(120);
  Result<Session> original = Session::Open(data.dirty, data.sigma);
  ASSERT_TRUE(original.ok()) << original.status().ToString();
  const int m = data.dirty.NumAttrs();
  DeltaBatch gap;
  for (AttrId a = 0; a < m; ++a) {
    gap.Update(a + 1, a, Value::Variable(a, 7));
    gap.Update(a + 40, a, Value::Variable(a, 9));
  }
  DeltaBatch overwrite;
  for (AttrId a = 0; a < m; ++a) {
    overwrite.Update(a + 40, a, data.dirty.At(a + 40, a));
  }
  ASSERT_TRUE(original->Apply(gap).ok());
  ASSERT_TRUE(original->Apply(overwrite).ok());

  // The grid must actually allocate past the gap, or the comparison
  // below would not exercise the counters.
  bool allocated = false;
  for (const Result<RepairResponse>& r :
       original->RepairMany(OracleRequests())) {
    if (!r.ok()) continue;
    for (const CellRef& c : r->repair.changed_cells) {
      const int32_t code = r->repair.data.At(c.tuple, c.attr);
      allocated |= IsVariableCode(code) && VariableIndexOfCode(code) >= 10;
    }
  }
  ASSERT_TRUE(allocated);

  const std::string path = TempPath("variables.snap");
  ASSERT_TRUE(original->SaveSnapshot(path).ok());
  for (int threads : {1, 4}) {
    SessionOptions opts;
    opts.exec.num_threads = threads;
    Result<Session> restored = Session::OpenSnapshot(path, opts);
    ASSERT_TRUE(restored.ok())
        << threads << ": " << restored.status().ToString();
    ExpectSameAnswers(*original, *restored,
                      ("threads=" + std::to_string(threads)).c_str());
  }
}

// Under an empty-LHS FD the pairs that disagree on every attribute are
// conflict edges, and the snapshot stores them like any other group's. A
// restored session answers like the one that saved it, and after one
// insert on both sides like a session opened fresh over the new data.
TEST(SnapshotRoundTrip, EmptyLhsSessionRoundTrips) {
  Instance inst(Schema::FromNames({"A", "B", "C"}));
  for (const char* row : {"111", "222", "123", "311", "432", "234", "545",
                          "141"}) {
    inst.AddTuple({Value(std::string(1, row[0])),
                   Value(std::string(1, row[1])),
                   Value(std::string(1, row[2]))});
  }
  const std::vector<std::string> fds = {"->A", "B->C"};
  Result<Session> original = Session::Open(inst, fds);
  ASSERT_TRUE(original.ok()) << original.status().ToString();
  const AttrSet universe = AttrSet::Universe(3);
  bool has_universe_group = false;
  for (const DiffSetGroup& g : original->context().index().groups()) {
    has_universe_group |= g.diff == universe && !g.edges.empty();
  }
  ASSERT_TRUE(has_universe_group);

  const std::string path = TempPath("empty_lhs.snap");
  ASSERT_TRUE(original->SaveSnapshot(path).ok());

  const std::vector<Value> insert = {Value("6"), Value("6"), Value("6")};
  DeltaBatch delta;
  delta.Insert(insert);
  Instance grown = inst;
  grown.AddTuple(insert);
  Result<Session> fresh = Session::Open(grown, fds);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();

  for (int threads : {1, 4}) {
    SessionOptions opts;
    opts.exec.num_threads = threads;
    Result<Session> restored = Session::OpenSnapshot(path, opts);
    ASSERT_TRUE(restored.ok())
        << threads << ": " << restored.status().ToString();
    const std::string label = "threads=" + std::to_string(threads);
    ExpectSameAnswers(*original, *restored, label.c_str());
    ASSERT_TRUE(restored->Apply(delta).ok());
    ExpectSameAnswers(*fresh, *restored, (label + " post-delta").c_str());
  }
  ASSERT_TRUE(original->Apply(delta).ok());
  ExpectSameAnswers(*fresh, *original, "original post-delta");
}

// --- Hostile bytes --------------------------------------------------------

class SnapshotCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<Session> session = Session::Open(SmallInstance(), {"City->Zip"});
    ASSERT_TRUE(session.ok());
    path_ = TempPath("corrupt.snap");
    ASSERT_TRUE(session->SaveSnapshot(path_).ok());
    bytes_ = ReadAll(path_);
    ASSERT_GT(bytes_.size(), 16u);
  }

  std::string path_;
  std::string bytes_;
};

TEST_F(SnapshotCorruption, MissingFileIsIoError) {
  Result<Session> r = Session::OpenSnapshot(TempPath("nonexistent.snap"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST_F(SnapshotCorruption, NotASnapshotIsIoError) {
  WriteAll(path_, "Name,City,Zip\nAlice,Springfield,11111\n");
  Result<Session> r = Session::OpenSnapshot(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST_F(SnapshotCorruption, TruncationIsIoError) {
  for (size_t keep : {bytes_.size() - 1, bytes_.size() / 2, size_t{4}}) {
    WriteAll(path_, bytes_.substr(0, keep));
    Result<Session> r = Session::OpenSnapshot(path_);
    ASSERT_FALSE(r.ok()) << "kept " << keep;
    EXPECT_EQ(r.status().code(), StatusCode::kIoError) << "kept " << keep;
  }
}

TEST_F(SnapshotCorruption, BitFlipAnywhereIsIoError) {
  // A flip in the header, early payload, middle, and trailing checksum —
  // every position must be caught by the CRC (or the magic check).
  for (size_t pos : {size_t{2}, size_t{20}, bytes_.size() / 2,
                     bytes_.size() - 2}) {
    std::string flipped = bytes_;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x40);
    WriteAll(path_, flipped);
    Result<Session> r = Session::OpenSnapshot(path_);
    ASSERT_FALSE(r.ok()) << "pos " << pos;
    EXPECT_EQ(r.status().code(), StatusCode::kIoError) << "pos " << pos;
  }
}

TEST_F(SnapshotCorruption, FutureFormatVersionIsVersionMismatch) {
  // Patch the version field and RE-COMPUTE the checksum, so the only
  // thing wrong with the file is the version — the reader must classify
  // it as kVersionMismatch, not generic corruption. The previous version
  // (v4, which carried the violation table's per-group FD-mask rows) is
  // refused the same way: such a file must be re-saved.
  for (uint32_t version : {persist::kSnapshotFormatVersion + 1,
                           persist::kSnapshotFormatVersion - 1}) {
    std::string patched = bytes_;
    for (int i = 0; i < 4; ++i) {
      patched[8 + i] = static_cast<char>((version >> (8 * i)) & 0xff);
    }
    const uint32_t crc = persist::Crc32(patched.data(), patched.size() - 4);
    for (int i = 0; i < 4; ++i) {
      patched[patched.size() - 4 + i] =
          static_cast<char>((crc >> (8 * i)) & 0xff);
    }
    WriteAll(path_, patched);
    Result<Session> r = Session::OpenSnapshot(path_);
    ASSERT_FALSE(r.ok()) << "version " << version;
    EXPECT_EQ(r.status().code(), StatusCode::kVersionMismatch)
        << "version " << version;
  }
}

TEST_F(SnapshotCorruption, ForeignConfigurationIsSchemaMismatch) {
  // The file is intact; the CALLER's configuration differs (weight
  // model). Session::OpenSnapshot owns the fingerprint policy.
  SessionOptions opts;
  opts.weights = WeightModel::kCardinality;
  Result<Session> r = Session::OpenSnapshot(path_, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kSchemaMismatch);

  SessionOptions heuristic_opts;
  heuristic_opts.heuristic.max_diffsets =
      heuristic_opts.heuristic.max_diffsets / 2 + 1;
  Result<Session> h = Session::OpenSnapshot(path_, heuristic_opts);
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.status().code(), StatusCode::kSchemaMismatch);
}

// --- Delta journal --------------------------------------------------------

TEST(Journal, DeltaBatchEncodingRoundTrips) {
  DeltaBatch batch;
  batch.Insert({Value("Erin"), Value("Ogdenville"), Value("44444")});
  batch.Insert({Value(int64_t{7}), Value(2.5), Value()});
  batch.Update(3, 1, Value("Shelbyville"));
  batch.Update(0, 2, Value(VarRef{2, 9}));
  batch.Delete(1).Delete(4);

  std::string payload = persist::EncodeDeltaBatch(batch);
  Result<DeltaBatch> decoded = persist::DecodeDeltaBatch(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->inserts.size(), batch.inserts.size());
  for (size_t i = 0; i < batch.inserts.size(); ++i) {
    EXPECT_EQ(decoded->inserts[i], batch.inserts[i]) << i;
  }
  ASSERT_EQ(decoded->updates.size(), batch.updates.size());
  for (size_t i = 0; i < batch.updates.size(); ++i) {
    EXPECT_EQ(decoded->updates[i].tuple, batch.updates[i].tuple);
    EXPECT_EQ(decoded->updates[i].attr, batch.updates[i].attr);
    EXPECT_EQ(decoded->updates[i].value, batch.updates[i].value);
  }
  EXPECT_EQ(decoded->deletes, batch.deletes);

  // Hostile payloads: truncation and garbage decode to errors, not UB.
  EXPECT_FALSE(
      persist::DecodeDeltaBatch(payload.substr(0, payload.size() / 2)).ok());
  EXPECT_FALSE(persist::DecodeDeltaBatch("not a delta batch").ok());
}

// Acceptance criterion: base snapshot + journal replay reconstructs a
// session bit-identical to one that was built from the original data and
// had the same batches applied directly.
TEST(Journal, ReplayOracleMatchesDirectApplication) {
  WorkloadData data = MakeWorkload(150);
  Result<Session> writer = Session::Open(data.dirty, data.sigma);
  ASSERT_TRUE(writer.ok());
  const std::string snap = TempPath("journal_base.snap");
  const std::string journal = TempPath("journal_base.journal");
  ASSERT_TRUE(writer->SaveSnapshot(snap).ok());
  ASSERT_TRUE(writer->EnableJournal(journal).ok());

  std::vector<DeltaBatch> batches(3);
  batches[0].Insert(data.dirty.row(2)).Insert(data.dirty.row(9));
  batches[1].Update(4, 2, data.dirty.At(8, 2)).Delete(13);
  batches[2].Insert(data.dirty.row(1)).Update(0, 3, data.dirty.At(6, 3));
  for (const DeltaBatch& batch : batches) {
    ASSERT_TRUE(writer->Apply(batch).ok());
  }

  Result<Session> replayed = Session::OpenSnapshot(snap);
  ASSERT_TRUE(replayed.ok());
  Result<int> applied = replayed->ReplayJournal(journal);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(*applied, 3);
  EXPECT_EQ(replayed->DataVersion(), writer->DataVersion());
  ExpectSameAnswers(*writer, *replayed, "journal replay");

  // The replayed session can now continue the SAME journal — version
  // continuity holds — and a further delta round-trips through it.
  ASSERT_TRUE(replayed->EnableJournal(journal).ok());
  DeltaBatch more;
  more.Insert(data.dirty.row(4));
  ASSERT_TRUE(replayed->Apply(more).ok());
  ASSERT_TRUE(writer->Apply(more).ok());
  Result<Session> again = Session::OpenSnapshot(snap);
  ASSERT_TRUE(again.ok());
  Result<int> reapplied = again->ReplayJournal(journal);
  ASSERT_TRUE(reapplied.ok());
  EXPECT_EQ(*reapplied, 4);
  ExpectSameAnswers(*writer, *again, "continued journal");
}

TEST(Journal, TornTailIsToleratedAndTruncatedOnAppend) {
  Result<Session> session = Session::Open(SmallInstance(), {"City->Zip"});
  ASSERT_TRUE(session.ok());
  const std::string snap = TempPath("torn.snap");
  const std::string journal = TempPath("torn.journal");
  ASSERT_TRUE(session->SaveSnapshot(snap).ok());
  ASSERT_TRUE(session->EnableJournal(journal).ok());
  DeltaBatch batch;
  batch.Insert({Value("Erin"), Value("Ogdenville"), Value("44444")});
  ASSERT_TRUE(session->Apply(batch).ok());

  // Simulate a crash mid-append: a length prefix promising more bytes
  // than exist. Readers keep the complete prefix and flag the tear.
  std::string bytes = ReadAll(journal);
  std::string torn = bytes + std::string("\x40\x00\x00\x00half", 8);
  WriteAll(journal, torn);
  Result<persist::JournalContents> contents =
      persist::ReadJournalFile(journal);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_TRUE(contents->torn_tail);
  ASSERT_EQ(contents->batches.size(), 1u);

  // Replay sees only the complete record...
  Result<Session> replayed = Session::OpenSnapshot(snap);
  ASSERT_TRUE(replayed.ok());
  Result<int> applied = replayed->ReplayJournal(journal);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 1);
  // ...and re-attaching truncates the tear before the next append.
  ASSERT_TRUE(replayed->EnableJournal(journal).ok());
  DeltaBatch next;
  next.Insert({Value("Frank"), Value("Ogdenville"), Value("44444")});
  ASSERT_TRUE(replayed->Apply(next).ok());
  contents = persist::ReadJournalFile(journal);
  ASSERT_TRUE(contents.ok());
  EXPECT_FALSE(contents->torn_tail);
  EXPECT_EQ(contents->batches.size(), 2u);
}

TEST(Journal, CorruptCompleteRecordIsIoError) {
  Result<Session> session = Session::Open(SmallInstance(), {"City->Zip"});
  ASSERT_TRUE(session.ok());
  const std::string journal = TempPath("flip.journal");
  ASSERT_TRUE(session->EnableJournal(journal).ok());
  DeltaBatch batch;
  batch.Insert({Value("Erin"), Value("Ogdenville"), Value("44444")});
  ASSERT_TRUE(session->Apply(batch).ok());

  // A bit flip INSIDE a complete record is corruption, not a torn write.
  std::string bytes = ReadAll(journal);
  bytes[bytes.size() - 10] = static_cast<char>(bytes[bytes.size() - 10] ^ 1);
  WriteAll(journal, bytes);
  Result<persist::JournalContents> contents =
      persist::ReadJournalFile(journal);
  ASSERT_FALSE(contents.ok());
  EXPECT_EQ(contents.status().code(), StatusCode::kIoError);
}

TEST(Journal, MismatchedBaseIsRejected) {
  Result<Session> session = Session::Open(SmallInstance(), {"City->Zip"});
  ASSERT_TRUE(session.ok());
  const std::string journal = TempPath("foreign.journal");

  // Fingerprint from a different configuration → kSchemaMismatch.
  persist::JournalHeader header;
  header.fingerprint = 0xdeadbeef;
  header.base_stamp = 0;
  header.base_version = session->DataVersion();
  ASSERT_TRUE(persist::JournalWriter::Create(journal, header).ok());
  Result<int> replayed = session->ReplayJournal(journal);
  ASSERT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.status().code(), StatusCode::kSchemaMismatch);

  // Replay is refused while a journal is attached (it would re-log).
  const std::string attached = TempPath("attached.journal");
  ASSERT_TRUE(session->EnableJournal(attached).ok());
  Result<int> blocked = session->ReplayJournal(attached);
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), StatusCode::kInvalidArgument);
}

// --- Mutation fuzz: hostile bytes behind a valid checksum ----------------
//
// A CRC catches accidents, not crafted input. These mutants are resealed
// (snapshot trailer or per-record journal CRC recomputed) so every one of
// them reaches the payload decoders. The claim: each returns a Status, or
// opens a session that answers requests — never a crash. Seeded, so a
// failure reproduces; run it under -DRETRUST_SANITIZE=address,undefined
// to catch out-of-bounds reads that do not crash a plain build.

constexpr int kMutantsPerDecoder = 10000;

void PutLe(std::string* bytes, size_t pos, uint64_t value, int width) {
  for (int i = 0; i < width; ++i) {
    (*bytes)[pos + i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
}

uint64_t GetLe(const std::string& bytes, size_t pos, int width) {
  uint64_t value = 0;
  for (int i = 0; i < width; ++i) {
    value |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[pos + i]))
             << (8 * i);
  }
  return value;
}

/// One seeded mutation of `bytes` (non-empty): a bit flip, an overwritten
/// 1/4/8-byte word (an extreme or small count, or random bits), a
/// truncation, or a duplicated or deleted span.
std::string Mutate(std::string bytes, std::mt19937_64& rng) {
  static constexpr uint64_t kExtremes[] = {
      0, 1, 2, 3, 4, 5, 7, 63, 64, 65, 255,
      0x7fffffff, 0x80000000, 0xffffffff, 0x100000000,
      ~uint64_t{0}, uint64_t{1} << 63};
  const size_t size = bytes.size();
  const size_t pos = rng() % size;
  switch (rng() % 6) {
    case 0:
      bytes[pos] = static_cast<char>(bytes[pos] ^ (1 << (rng() % 8)));
      break;
    case 1:
    case 2: {
      const int widths[] = {1, 4, 8};
      const int width = widths[rng() % 3];
      if (pos + width > size) break;
      const uint64_t value = rng() % 3 == 0
                                 ? rng()
                                 : kExtremes[rng() % std::size(kExtremes)];
      PutLe(&bytes, pos, value, width);
      break;
    }
    case 3:
      bytes.resize(pos);
      break;
    case 4: {
      const size_t len = 1 + rng() % std::min<size_t>(16, size - pos);
      bytes.insert(pos, bytes.substr(pos, len));
      break;
    }
    default: {
      const size_t len = 1 + rng() % std::min<size_t>(16, size - pos);
      bytes.erase(pos, len);
      break;
    }
  }
  return bytes;
}

/// A session that opened from hostile bytes must still answer: every
/// request comes back as a Result, whatever it holds.
void ExpectAnswers(const Session& session) {
  for (double tau_r : {0.0, 0.5, 1.0}) {
    (void)session.Repair(RepairRequest::AtRelative(tau_r));
    (void)session.Search(RepairRequest::AtRelative(tau_r));
  }
}

TEST(PersistFuzz, SnapshotMutantsFailCleanlyOrAnswer) {
  Result<Session> origin = Session::Open(SmallInstance(), {"City->Zip"});
  ASSERT_TRUE(origin.ok());
  // Warm the cover memo so the snapshot carries set and sequence keys.
  for (const Result<RepairResponse>& r : origin->RepairMany(OracleRequests())) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  const std::string path = TempPath("fuzz.snap");
  ASSERT_TRUE(origin->SaveSnapshot(path).ok());
  const std::string seed = ReadAll(path);
  // Mutate only the payload: magic and version have their own checks.
  const size_t prefix = sizeof(persist::kSnapshotMagic) + sizeof(uint32_t);
  const std::string header = seed.substr(0, prefix);
  const std::string payload = seed.substr(prefix, seed.size() - prefix - 4);

  std::mt19937_64 rng(0x5eed5a4);
  int rejected = 0;
  int opened = 0;
  for (int i = 0; i < kMutantsPerDecoder; ++i) {
    std::string mutant = header + Mutate(payload, rng);
    const uint32_t crc = persist::Crc32(mutant.data(), mutant.size());
    mutant.resize(mutant.size() + 4);
    PutLe(&mutant, mutant.size() - 4, crc, 4);
    WriteAll(path, mutant);
    Result<Session> session = Session::OpenSnapshot(path);
    if (!session.ok()) {
      ++rejected;
      continue;
    }
    ++opened;
    ExpectAnswers(*session);
  }
  EXPECT_EQ(rejected + opened, kMutantsPerDecoder);
  EXPECT_GT(rejected, 0);
}

TEST(PersistFuzz, JournalMutantsFailCleanlyOrAnswer) {
  Result<Session> writer = Session::Open(SmallInstance(), {"City->Zip"});
  ASSERT_TRUE(writer.ok());
  const std::string path = TempPath("fuzz.journal");
  ASSERT_TRUE(writer->EnableJournal(path).ok());
  std::vector<DeltaBatch> batches(3);
  batches[0].Insert({Value("Erin"), Value("Springfield"), Value("33333")});
  batches[1].Update(3, 1, Value("Springfield")).Update(0, 2, Value(VarRef{2, 0}));
  batches[2].Insert({Value(int64_t{7}), Value(2.5), Value()}).Delete(1);
  for (const DeltaBatch& batch : batches) {
    ASSERT_TRUE(writer->Apply(batch).ok());
  }
  const std::string seed = ReadAll(path);

  // Split the file into its header and records (u32 len, payload, u32 CRC).
  const size_t header_size =
      sizeof(persist::kJournalMagic) + sizeof(uint32_t) + 3 * sizeof(uint64_t);
  std::vector<std::string> records;
  for (size_t pos = header_size; pos < seed.size();) {
    const size_t len = GetLe(seed, pos, 4);
    records.push_back(seed.substr(pos + 4, len));
    pos += 4 + len + 4;
  }
  ASSERT_EQ(records.size(), batches.size());

  std::mt19937_64 rng(0x10a7a1);
  int rejected = 0;
  int replayed = 0;
  for (int i = 0; i < kMutantsPerDecoder; ++i) {
    const size_t victim = rng() % records.size();
    std::string mutant = seed.substr(0, header_size);
    for (size_t r = 0; r < records.size(); ++r) {
      const std::string payload =
          r == victim ? Mutate(records[r], rng) : records[r];
      const size_t at = mutant.size();
      mutant.resize(at + 4 + payload.size() + 4);
      PutLe(&mutant, at, payload.size(), 4);
      mutant.replace(at + 4, payload.size(), payload);
      PutLe(&mutant, at + 4 + payload.size(),
            persist::Crc32(payload.data(), payload.size()), 4);
    }
    WriteAll(path, mutant);
    Result<Session> session = Session::Open(SmallInstance(), {"City->Zip"});
    ASSERT_TRUE(session.ok());
    Result<int> applied = session->ReplayJournal(path);
    if (applied.ok()) {
      ++replayed;
    } else {
      ++rejected;
    }
    // Replay stops at the first bad record; what it applied must answer.
    ExpectAnswers(*session);
  }
  EXPECT_EQ(rejected + replayed, kMutantsPerDecoder);
  EXPECT_GT(rejected, 0);
}

// --- Tenant registry lifecycle --------------------------------------------

std::string WriteSmallCsv(const std::string& name) {
  std::string path = TempPath(name);
  std::ofstream out(path);
  out << "Name,City,Zip\n"
         "Alice,Springfield,11111\n"
         "Bob,Springfield,11111\n"
         "Carol,Springfield,22222\n"
         "Dave,Shelbyville,33333\n";
  return path;
}

TEST(RegistryLifecycle, SnapshotBackedTenantRestoresLazily) {
  Result<Session> origin = Session::Open(SmallInstance(), {"City->Zip"});
  ASSERT_TRUE(origin.ok());
  const std::string snap = TempPath("tenant.snap");
  ASSERT_TRUE(origin->SaveSnapshot(snap).ok());

  service::TenantRegistry registry(SessionOptions{}, nullptr);
  ASSERT_TRUE(registry.AddSnapshot("t", snap).ok());
  Result<service::TenantStats> before = registry.StatsFor("t");
  ASSERT_TRUE(before.ok());
  EXPECT_FALSE(before->loaded);  // registration did not read the file

  Result<std::shared_ptr<Session>> session = registry.Get("t");
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ((*session)->RootDeltaP(), origin->RootDeltaP());
  EXPECT_GT(registry.LoadedBytes(), 0u);
}

TEST(RegistryLifecycle, SaveUnloadReloadRoundTrip) {
  service::TenantRegistry registry(SessionOptions{}, nullptr);
  ASSERT_TRUE(
      registry.Add("t", SmallInstance(), {"City->Zip"}).ok());

  // Eager tenants have no reload spec, so unloading them would strand
  // their state — refused until a snapshot gives them one.
  Status refused = registry.Unload("t");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);

  const std::string snap = TempPath("reloadable.snap");
  ASSERT_TRUE(registry.SaveSnapshot("t", snap).ok());
  int64_t root = 0;
  {
    Result<std::shared_ptr<Session>> session = registry.Get("t");
    ASSERT_TRUE(session.ok());
    root = (*session)->RootDeltaP();
  }
  ASSERT_TRUE(registry.Unload("t").ok());
  Result<service::TenantStats> unloaded = registry.StatsFor("t");
  ASSERT_TRUE(unloaded.ok());
  EXPECT_FALSE(unloaded->loaded);
  EXPECT_EQ(registry.LoadedBytes(), 0u);

  // The next Get transparently restores from the snapshot.
  Result<std::shared_ptr<Session>> reloaded = registry.Get("t");
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ((*reloaded)->RootDeltaP(), root);
}

TEST(RegistryLifecycle, DirtyUnloadRefusedWithoutSnapshotDir) {
  service::TenantRegistry registry(SessionOptions{}, nullptr);
  ASSERT_TRUE(
      registry.AddCsv("t", WriteSmallCsv("dirty.csv"), {"City->Zip"}).ok());
  {
    Result<std::shared_ptr<Session>> session = registry.Get("t");
    ASSERT_TRUE(session.ok());
    DeltaBatch delta;
    delta.Insert({Value("Erin"), Value("Ogdenville"), Value("44444")});
    ASSERT_TRUE((*session)->Apply(delta).ok());
  }
  // The CSV cannot reproduce the applied delta; without an auto-save
  // directory the unload must refuse rather than silently lose it.
  Status refused = registry.Unload("t");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  Result<service::TenantStats> stats = registry.StatsFor("t");
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->loaded);
}

TEST(RegistryLifecycle, DirtyUnloadAutoSavesWithSnapshotDir) {
  service::TenantRegistry registry(SessionOptions{}, nullptr,
                                   TempDirPath());
  ASSERT_TRUE(
      registry.AddCsv("auto", WriteSmallCsv("auto.csv"), {"City->Zip"}).ok());
  uint64_t version = 0;
  {
    Result<std::shared_ptr<Session>> session = registry.Get("auto");
    ASSERT_TRUE(session.ok());
    DeltaBatch delta;
    delta.Insert({Value("Erin"), Value("Ogdenville"), Value("44444")});
    ASSERT_TRUE((*session)->Apply(delta).ok());
    version = (*session)->DataVersion();
  }
  ASSERT_TRUE(registry.Unload("auto").ok());

  // The reload comes from the auto-saved snapshot: the delta survived.
  Result<std::shared_ptr<Session>> reloaded = registry.Get("auto");
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ((*reloaded)->DataVersion(), version);
  EXPECT_EQ((*reloaded)->NumTuples(), 5);
}

TEST(RegistryLifecycle, ByteBudgetEvictsIdleTenants) {
  // A 1-byte budget is unreachable, so every load must evict the other,
  // idle tenant — previously both would stay resident forever.
  service::TenantRegistry registry(SessionOptions{}, nullptr,
                                   TempDirPath(), /*max_loaded_bytes=*/1);
  ASSERT_TRUE(
      registry.AddCsv("a", WriteSmallCsv("budget_a.csv"), {"City->Zip"}).ok());
  ASSERT_TRUE(
      registry.AddCsv("b", WriteSmallCsv("budget_b.csv"), {"City->Zip"}).ok());

  ASSERT_TRUE(registry.Get("a").ok());  // shared_ptr dropped: "a" is idle
  ASSERT_TRUE(registry.Get("b").ok());
  Result<service::TenantStats> a = registry.StatsFor("a");
  Result<service::TenantStats> b = registry.StatsFor("b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(a->loaded);  // LRU victim of b's load
  EXPECT_TRUE(b->loaded);   // the tenant being served is exempt

  // The evicted tenant is not gone — the next request reloads it (and
  // evicts "b" in turn).
  ASSERT_TRUE(registry.Get("a").ok());
  a = registry.StatsFor("a");
  b = registry.StatsFor("b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->loaded);
  EXPECT_FALSE(b->loaded);
}

}  // namespace
}  // namespace retrust
