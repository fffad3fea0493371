// A small command-line cleaner over CSV files — the "downstream user"
// entry point to the library, built entirely on the public facade
// (retrust::Session + Status/Result).
//
//   example_csv_repair_tool <file.csv> <tau_r> <fd> [<fd> ...]
//                           [--append <more.csv>]
//                           [--save-snapshot <file.snap>]
//                           [--policy exact|anytime|greedy] [--weight <w>]
//                           [--timing]
//   example_csv_repair_tool --from-snapshot <file.snap> <tau_r>
//
//   file.csv  header + rows; column types are inferred. The file is read
//             in streaming passes (one record in memory at a time), never
//             slurped into a raw-text copy.
//   tau_r     relative trust in [0, 1]: 0 = trust the data fully
//             (only the FDs may change), 1 = trust the FDs fully
//   fd        e.g. "City->Zip" or "Surname,GivenName->Income"
//   --append  stream the rows of a second CSV (same header arity) into
//             the session as chunked DeltaBatches via Session::Apply —
//             the incremental engine patches the indexes in place instead
//             of rebuilding them — then repair the grown dataset.
//   --save-snapshot  after loading (and appending), write the session —
//             data, FDs, difference sets, conflict graph, warm covers —
//             to a src/persist/ snapshot file before repairing.
//   --from-snapshot  restore a session from such a file instead of
//             building one from CSV: the O(n^2) context build is skipped,
//             so no <fd> arguments are taken — the FDs travel in the file.
//   --policy  search policy for the FD step (default exact): "anytime"
//             surfaces a first repair fast (within --weight times the
//             optimal cost) and refines it; "greedy" takes the first
//             feasible relaxation with no optimality claim.
//   --weight  weighted-A* factor w >= 1 for --policy anytime (default 2).
//   --timing  report the difference-set index build: per-phase wall times
//             (partition / enumerate / group), how many conflict pairs
//             were materialized, and how many pairs agree on no attribute
//             (never enumerated by blocking; stored only under an
//             empty-LHS FD).
//             Also prints the search's incumbent trajectory — when each
//             best-so-far repair was found, at what cost — and the proven
//             suboptimality bound (the anytime quality-vs-time curve).
//
// Prints the chosen FD relaxation, the cell edits, and the repaired table.
// Run with no arguments for a built-in demo.
//
// Exit codes (one per failure class, so scripts can branch):
//   0  repaired
//   1  no repair within the budget (raise tau_r)
//   2  bad FD (parse error or schema mismatch)
//   3  I/O error (file missing/malformed CSV/append row not parsing,
//      corrupt/truncated snapshot)
//   4  bad arguments (tau_r out of range, ...)
//   5  snapshot format version mismatch (file from a different build)
//   6  snapshot fingerprint mismatch (saved under a different Σ/weight
//      configuration than this tool uses)

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/api/session.h"
#include "src/relational/csv.h"

using namespace retrust;

namespace {

/// Maps a Status to the tool's exit-code classes above.
int ExitCodeFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk: return 0;
    case StatusCode::kNoRepairWithinTau:
    case StatusCode::kBudgetExceeded: return 1;
    case StatusCode::kInvalidFd:
    case StatusCode::kSchemaMismatch: return 2;
    case StatusCode::kIoError: return 3;
    case StatusCode::kVersionMismatch: return 5;
    default: return 4;
  }
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return ExitCodeFor(status);
}

/// Like Fail, but for the snapshot-open phase, where kSchemaMismatch
/// means "the snapshot's fingerprint does not match this configuration"
/// (exit 6) rather than a CSV/FD schema problem (exit 2).
int FailSnapshotOpen(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  if (status.code() == StatusCode::kSchemaMismatch) return 6;
  return ExitCodeFor(status);
}

int FailIo(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 3;
}

/// Streams `path`'s rows into the session as chunked DeltaBatches through
/// Session::Apply. Returns 0 or an exit code.
int AppendRows(Session& session, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return FailIo("csv: cannot open " + path);
  const Schema& schema = session.schema();

  constexpr size_t kChunkRows = 256;
  // Rows, edges, and wall time are additive across batches; the group and
  // cover counts are per-batch snapshots of the index, so only the LAST
  // batch's snapshot describes the final state.
  int rows_appended = 0;
  long long edges_added = 0;
  double seconds = 0.0;
  int batches = 0;
  ApplyStats last;
  auto flush = [&](DeltaBatch& batch) -> int {
    if (batch.Empty()) return 0;
    Result<ApplyStats> stats = session.Apply(batch);
    if (!stats.ok()) return Fail(stats.status());
    rows_appended += stats->tuples_inserted;
    edges_added += stats->edges_added;
    seconds += stats->seconds;
    last = *stats;
    ++batches;
    batch = DeltaBatch{};
    return 0;
  };

  DeltaBatch batch;
  std::vector<std::string> fields;
  int line = 1;
  try {
    CsvReader reader(in);  // throws on a missing/empty header
    if (reader.num_fields() != schema.NumAttrs()) {
      return FailIo("append file has " +
                    std::to_string(reader.num_fields()) +
                    " columns, dataset has " +
                    std::to_string(schema.NumAttrs()));
    }
    while (reader.Next(&fields)) {
      ++line;
      Tuple t(schema.NumAttrs());
      for (AttrId a = 0; a < schema.NumAttrs(); ++a) {
        // The append file must conform to the base file's inferred types.
        if (!TryParseCsvField(fields[a], schema.type(a), &t[a])) {
          return FailIo(path + " row " + std::to_string(line) + ": '" +
                        fields[a] + "' is not a valid " + schema.name(a) +
                        " value");
        }
      }
      batch.Insert(std::move(t));
      if (batch.inserts.size() >= kChunkRows) {
        if (int rc = flush(batch); rc != 0) return rc;
      }
    }
  } catch (const std::exception& e) {
    return FailIo(e.what());
  }
  if (int rc = flush(batch); rc != 0) return rc;

  std::printf("appended %d rows in %d delta batch(es), %.1f ms total "
              "(index patched in place: %lld conflict edges added; last "
              "batch left %d/%d diff-set groups untouched, kept %zu warm "
              "covers)\n\n",
              rows_appended, batches, seconds * 1e3, edges_added,
              last.groups_preserved,
              last.groups_preserved + last.groups_changed,
              last.covers_kept);
  return 0;
}

int RunRepair(Result<Session> session, double tau_r,
              const std::string& append_path,
              const std::string& save_snapshot_path = {},
              bool from_snapshot = false, bool timing = false,
              search::SearchPolicy policy = search::SearchPolicy::kExact,
              double weight = 2.0) {
  if (!session.ok()) {
    return from_snapshot ? FailSnapshotOpen(session.status())
                         : Fail(session.status());
  }
  const Schema& schema = session->schema();

  if (!append_path.empty()) {
    if (int rc = AppendRows(*session, append_path); rc != 0) return rc;
  }

  if (timing) {
    // context() is the non-stable escape hatch; the stats describe the
    // build that produced the active context (zeros after a snapshot
    // restore, which skips the build on purpose).
    const DiffSetBuildStats& b = session->context().build_stats();
    if (b.total_seconds == 0.0) {
      std::printf("index build timing: n/a (context restored from a "
                  "snapshot; no difference-set build ran)\n\n");
    } else {
      std::printf(
          "index build: %.2f ms (partition %.2f ms, pair enumeration "
          "%.2f ms, group+rank %.2f ms)\n"
          "  pairs: %lld candidates in equivalence classes, %lld owned, "
          "%lld materialized as conflict edges, %lld agreeing on no "
          "attribute (not enumerated; stored only under an empty-LHS FD)"
          "\n\n",
          b.total_seconds * 1e3, b.partition_seconds * 1e3,
          b.enumerate_seconds * 1e3, b.group_seconds * 1e3,
          static_cast<long long>(b.pairs_candidate),
          static_cast<long long>(b.pairs_owned),
          static_cast<long long>(b.pairs_materialized),
          static_cast<long long>(b.pairs_counted));
    }
  }

  if (!save_snapshot_path.empty()) {
    Status saved = session->SaveSnapshot(save_snapshot_path);
    if (!saved.ok()) return Fail(saved);
    std::printf("snapshot saved to %s (restore with --from-snapshot)\n\n",
                save_snapshot_path.c_str());
  }

  int64_t root = session->RootDeltaP();
  Result<int64_t> tau = CheckedTauFromRelative(tau_r, root);
  if (!tau.ok()) return Fail(tau.status());

  std::printf("tuples: %d   FDs: %s\n", session->NumTuples(),
              session->fds().ToString(schema).c_str());
  std::printf("cell-change budget: tau = %lld (tau_r = %.0f%% of deltaP = "
              "%lld)\n\n",
              static_cast<long long>(*tau), tau_r * 100,
              static_cast<long long>(root));

  RepairRequest request = RepairRequest::At(*tau);
  request.policy = policy;
  request.weight = weight;
  if (policy == search::SearchPolicy::kAnytime) {
    std::printf("search policy: anytime (w = %.2f)\n\n", weight);
  } else if (policy == search::SearchPolicy::kGreedy) {
    std::printf("search policy: greedy\n\n");
  }
  Result<RepairResponse> response = session->Repair(request);
  if (!response.ok()) {
    if (response.status().code() == StatusCode::kNoRepairWithinTau) {
      std::printf("No repair exists within %lld cell changes — the "
                  "remaining violations differ only on right-hand sides. "
                  "Raise tau_r.\n",
                  static_cast<long long>(*tau));
      return 1;
    }
    return Fail(response.status());
  }

  const Repair& repair = response->repair;
  if (timing && !repair.incumbents.empty()) {
    std::printf("incumbent trajectory (best repair over time):\n");
    for (const search::IncumbentPoint& p : repair.incumbents) {
      std::printf("  %8.3f ms  distc = %-6.1f deltaP = %-5lld after %lld "
                  "states\n",
                  p.seconds * 1e3, p.distc,
                  static_cast<long long>(p.delta_p),
                  static_cast<long long>(p.states_visited));
    }
    if (repair.stats.suboptimality_bound > 0) {
      std::printf("  proven cost within %.2fx of optimal\n",
                  repair.stats.suboptimality_bound);
    } else {
      std::printf("  no optimality claim (greedy policy)\n");
    }
    std::printf("\n");
  }
  std::printf("Sigma' = %s   (distc = %.1f)\n",
              repair.sigma_prime.ToString(schema).c_str(), repair.distc);
  std::printf("cell edits: %zu\n", repair.changed_cells.size());
  Instance repaired = repair.data.Decode();
  const EncodedInstance& original = session->data();
  for (const CellRef& c : repair.changed_cells) {
    std::printf("  row %d, %s: %s -> %s\n", c.tuple + 1,
                schema.name(c.attr).c_str(),
                original.DecodeCell(c.tuple, c.attr).ToString().c_str(),
                repaired.At(c.tuple, c.attr)
                    .ToString(schema.name(c.attr))
                    .c_str());
  }
  std::printf("\nrepaired table ('?Attr<i>' marks \"any fresh value\"):\n%s",
              repaired.ToTable().c_str());
  return 0;
}

int Demo() {
  std::printf("(no arguments: running the built-in demo; usage: "
              "csv_repair_tool <file.csv> <tau_r> <fd> [...] "
              "[--append <more.csv>])\n\n");
  std::istringstream csv(
      "Name,City,Zip\n"
      "Alice,Springfield,11111\n"
      "Bob,Springfield,11111\n"
      "Carol,Springfield,22222\n"
      "Dave,Shelbyville,33333\n");
  Instance inst = ReadCsv(csv);
  return RunRepair(Session::Open(std::move(inst), {"City->Zip"}), 1.0, "");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args;
  std::string append_path;
  std::string save_snapshot_path;
  std::string from_snapshot_path;
  bool timing = false;
  search::SearchPolicy policy = search::SearchPolicy::kExact;
  double weight = 2.0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto flag_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a file argument\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--policy") {
      const char* v = flag_value("--policy");
      if (v == nullptr) return 4;
      if (!search::ParseSearchPolicy(v, &policy)) {
        std::fprintf(stderr,
                     "error: unknown policy '%s' (exact|anytime|greedy)\n",
                     v);
        return 4;
      }
    } else if (arg == "--weight") {
      const char* v = flag_value("--weight");
      if (v == nullptr) return 4;
      weight = std::atof(v);
      if (!(weight >= 1.0)) {
        std::fprintf(stderr, "error: --weight must be a number >= 1\n");
        return 4;
      }
    } else if (arg == "--append") {
      const char* v = flag_value("--append");
      if (v == nullptr) return 4;
      append_path = v;
    } else if (arg == "--save-snapshot") {
      const char* v = flag_value("--save-snapshot");
      if (v == nullptr) return 4;
      save_snapshot_path = v;
    } else if (arg == "--from-snapshot") {
      const char* v = flag_value("--from-snapshot");
      if (v == nullptr) return 4;
      from_snapshot_path = v;
    } else if (arg == "--timing") {
      timing = true;
    } else {
      args.emplace_back(std::move(arg));
    }
  }
  if (!from_snapshot_path.empty()) {
    // The snapshot carries the data AND the FDs, so only tau_r remains.
    if (args.size() != 1) {
      std::fprintf(stderr, "error: usage: --from-snapshot <file.snap> "
                           "<tau_r>\n");
      return 4;
    }
    double tau_r = std::atof(args[0].c_str());
    return RunRepair(Session::OpenSnapshot(from_snapshot_path), tau_r,
                     append_path, save_snapshot_path,
                     /*from_snapshot=*/true, timing, policy, weight);
  }
  if (args.size() < 3) {
    if (!append_path.empty() || !save_snapshot_path.empty()) {
      std::fprintf(stderr, "error: flags need the full positional "
                           "arguments too: <file.csv> <tau_r> <fd> [...]\n");
      return 4;
    }
    return Demo();
  }
  double tau_r = std::atof(args[1].c_str());
  std::vector<std::string> fds(args.begin() + 2, args.end());
  return RunRepair(Session::OpenCsv(args[0], fds), tau_r, append_path,
                   save_snapshot_path, /*from_snapshot=*/false, timing,
                   policy, weight);
}
