// Difference-set index construction vs tuple count.
//
// The naive builder walks all C(n,2) tuple pairs; the blocked builder
// enumerates, for each FD X -> A, only its violating pairs (the stripped
// X-classes split by A) and stores each pair once, under the first FD it
// violates — so its work scales with the output, not with n². This bench
// measures both:
//
//   * a blocked-only scaling sweep at n = 10k/100k/500k (·scale) with the
//     per-phase breakdown, the candidate-vs-all-pairs ratio that shows the
//     enumeration staying sub-quadratic, and the candidate-vs-materialized
//     ratio that shows it staying output-sensitive;
//   * a head-to-head blocked-vs-naive comparison at n = 50k (·scale),
//     asserting the two indexes are bit-identical — the naive path stays
//     available behind DiffSetBuildMode::kNaive exactly so it can serve as
//     this oracle.
//
// Writes BENCH_diffset.json; CI's Release smoke step asserts the headline
// speedup_x >= 5 and pairs_candidate <= 1.5 * pairs_materialized per row.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "src/eval/generator.h"
#include "src/eval/perturb.h"
#include "src/fd/difference_set.h"
#include "src/util/timer.h"

using namespace retrust;

namespace {

struct Dataset {
  EncodedInstance encoded;
  FDSet sigma;
};

/// Census-like data: every attribute informative (no flag-like noise
/// columns), near-uniform value popularity, and a domain that grows with
/// n — so equivalence classes stay around dup_factor·archetype size
/// instead of Θ(n). Entity clusters plus the perturbation still guarantee
/// plenty of violating (materialized) pairs.
Dataset MakeDataset(int n, uint64_t seed) {
  CensusConfig gen;
  gen.num_tuples = n;
  gen.num_attrs = 8;
  gen.planted_lhs_sizes = {2, 2};
  gen.num_base_attrs = 6;  // base + derived = 8: no low-cardinality noise
  gen.domain_size = std::max(64, n / 8);
  gen.zipf_s = 0.15;
  gen.seed = seed;
  GeneratedData clean = GenerateCensusLike(gen);
  PerturbOptions perturb;
  perturb.data_error_rate = 0.01;
  perturb.fd_error_rate = 0.5;
  PerturbedData dirty = Perturb(clean.instance, clean.planted_fds, perturb);
  return {EncodedInstance(dirty.data), std::move(dirty.fds)};
}

struct Row {
  int n = 0;
  DiffSetBuildStats stats;
  int64_t groups = 0;
};

Row MeasureBlocked(int n, int reps) {
  Dataset data = MakeDataset(n, /*seed=*/42);
  Row row;
  row.n = n;
  row.stats.total_seconds = 1e100;
  for (int r = 0; r < reps; ++r) {
    DiffSetBuildStats stats;
    DifferenceSetIndex index = BuildDifferenceSetIndex(
        data.encoded, data.sigma, {}, DiffSetBuildMode::kBlocked, &stats);
    if (stats.total_seconds < row.stats.total_seconds) {
      row.stats = stats;
      row.groups = index.size();
    }
  }
  return row;
}

void ExpectIdentical(const DifferenceSetIndex& a, const DifferenceSetIndex& b) {
  bool same = a.size() == b.size();
  for (int g = 0; same && g < a.size(); ++g) {
    same = a.group(g).diff.bits() == b.group(g).diff.bits() &&
           a.group(g).edges == b.group(g).edges;
  }
  if (!same) {
    std::fprintf(stderr,
                 "FATAL: blocked and naive builders disagree (oracle check "
                 "failed)\n");
    std::exit(1);
  }
}

}  // namespace

int main() {
  bench::Banner("diffset-scaling",
                "blocked vs naive difference-set construction");

  // Blocked-only sweep: the naive builder would take minutes at these n.
  const std::vector<int> sizes = {bench::ScaledN(10000),
                                  bench::ScaledN(100000),
                                  bench::ScaledN(500000)};
  std::printf("%9s %11s %11s %11s %11s %14s %13s %9s\n", "n", "total(s)",
              "part(s)", "enum(s)", "group(s)", "candidates", "materialized",
              "cand/mat");
  std::vector<Row> rows;
  for (int n : sizes) {
    Row row = MeasureBlocked(n, /*reps=*/n <= 100000 ? 3 : 1);
    rows.push_back(row);
    std::printf("%9d %11.3f %11.3f %11.3f %11.3f %14lld %13lld %9.3f\n",
                row.n, row.stats.total_seconds, row.stats.partition_seconds,
                row.stats.enumerate_seconds, row.stats.group_seconds,
                static_cast<long long>(row.stats.pairs_candidate),
                static_cast<long long>(row.stats.pairs_materialized),
                static_cast<double>(row.stats.pairs_candidate) /
                    std::max<int64_t>(1, row.stats.pairs_materialized));
  }

  // Head-to-head at a size where the naive build is still bearable.
  const int n_head = bench::ScaledN(50000);
  Dataset head = MakeDataset(n_head, /*seed=*/7);
  double blocked_s = 1e100;
  DifferenceSetIndex blocked;
  for (int r = 0; r < 3; ++r) {
    DiffSetBuildStats stats;
    blocked = BuildDifferenceSetIndex(head.encoded, head.sigma, {},
                                      DiffSetBuildMode::kBlocked, &stats);
    blocked_s = std::min(blocked_s, stats.total_seconds);
  }
  DiffSetBuildStats naive_stats;
  DifferenceSetIndex naive =
      BuildDifferenceSetIndex(head.encoded, head.sigma, {},
                              DiffSetBuildMode::kNaive, &naive_stats);
  ExpectIdentical(blocked, naive);
  const double naive_s = naive_stats.total_seconds;
  const double speedup = blocked_s > 0 ? naive_s / blocked_s : 0.0;
  std::printf("\nhead-to-head at n = %d (indexes bit-identical):\n", n_head);
  std::printf("  blocked %.3fs   naive %.3fs   speedup %.1fx\n", blocked_s,
              naive_s, speedup);

  FILE* json = bench::OpenBenchJson("diffset");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n"
                 "  \"n_headline\": %d,\n"
                 "  \"blocked_seconds\": %.6f,\n"
                 "  \"naive_seconds\": %.6f,\n"
                 "  \"speedup_x\": %.2f,\n"
                 "  \"rows\": [\n",
                 n_head, blocked_s, naive_s, speedup);
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      const long long all_pairs =
          static_cast<long long>(r.n) * (r.n - 1) / 2;
      std::fprintf(
          json,
          "    {\"n\": %d, \"total_seconds\": %.6f, "
          "\"partition_seconds\": %.6f, \"enumerate_seconds\": %.6f, "
          "\"group_seconds\": %.6f, \"pairs_all\": %lld, "
          "\"pairs_candidate\": %lld, \"pairs_materialized\": %lld, "
          "\"groups\": %lld}%s\n",
          r.n, r.stats.total_seconds, r.stats.partition_seconds,
          r.stats.enumerate_seconds, r.stats.group_seconds, all_pairs,
          static_cast<long long>(r.stats.pairs_candidate),
          static_cast<long long>(r.stats.pairs_materialized),
          static_cast<long long>(r.groups),
          i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
  }
  return 0;
}
