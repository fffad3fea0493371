// The output check and the layer replay.
//
// After the timed window, each tenant's requests are replayed in send
// order through an in-process serial retrust::Session; every wire reply
// must equal what that Session answers (tau, distc, delta_p, sigma_prime,
// changed_cells and termination for repairs; every field but "seconds" for
// deltas). The determinism contract makes this exact.
//
// In the traced run the same replay also calls each layer's public
// functions directly (CSV read, encode, difference-set build, violation
// table, search context, ModifyFds, RepairData, snapshot read/open) inside
// the benchmark's own spans, and cross-checks their counts against the
// Session's: the counts must repeat exactly.

#ifndef PERFBENCH_SRC_REPLAY_H_
#define PERFBENCH_SRC_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "src/obs/trace.h"
#include "workload.h"

namespace perfbench {

/// What the load generator saw for one op.
struct Outcome {
  const Op* op = nullptr;
  double due = 0.0;
  double sent = 0.0;
  double received = 0.0;
  double cpu_sent = 0.0;      ///< CpuNow() when sent
  double cpu_received = 0.0;  ///< CpuNow() when the reply arrived
  bool transport_ok = false;
  std::string transport_error;
  /// The reply's "ok" and "error" only; a traced reply in full.
  Json reply;
  /// Normalize(op->kind, <the full reply>), taken on receipt.
  std::string normalized;
  uint64_t snapshot_bytes = 0;  ///< kSave: file size right after the reply
  bool traced = false;

  double latency() const { return received - due; }
  /// Process CPU seconds between send and reply: the request's cost when
  /// nothing else is in flight (the serial phase).
  double cpu() const { return cpu_received - cpu_sent; }
  bool ok() const;
  /// The server shed the request (admission or quota); it never ran.
  bool refused() const;
};

/// The comparable content of a reply: the fields the determinism contract
/// covers, as one canonical string ("error:<code>" for error replies).
std::string Normalize(OpKind kind, const Json& reply);
std::string Normalize(const Outcome& o);

/// Totals the layer replay gathers; every count is a pure function of the
/// seed.
struct LayerTotals {
  std::vector<double> partition_s, enumerate_s, group_s;
  int64_t pairs_candidate = 0, pairs_materialized = 0, pairs_counted = 0;
  retrust::obs::SearchPhaseStats phases;
  int64_t searches = 0;
  int64_t states_visited = 0, expansions = 0, heuristic_calls = 0;
  int64_t lb_prunes = 0, vc_computations = 0, vc_memo_hits = 0;
  int64_t snapshot_bytes = 0;
  std::vector<double> reuse_ratio;
  int64_t covers_kept = 0, covers_dropped = 0;

  void Merge(const LayerTotals& o);
};

struct ReplayResult {
  std::vector<std::string> errors;  ///< output-check failures
  size_t failed = 0;                ///< refusals, transport errors
  LayerTotals layers;
};

/// Replays one tenant's ops (in send order) against a serial Session over
/// `data`. A non-null `log` turns on the layer replay for the tenant's
/// first `layer_prefix` distinct repairs (after a delta the standalone
/// context is rebuilt over the Session's post-delta data).
/// `scratch` is a path prefix for the replay's own snapshot files.
ReplayResult ReplayTenant(const TenantData& data,
                          const std::vector<const Outcome*>& seq,
                          SpanLog* log, int layer_prefix,
                          const std::string& scratch);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REPLAY_H_
