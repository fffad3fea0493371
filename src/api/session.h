// retrust::Session — the library's public entry point.
//
// Algorithm 1 is a service-shaped computation: one τ-independent context
// (conflict graph, difference-set index, violation table, cover memo)
// answers many (τ, options) repair requests. A Session owns that shape so
// callers do not wire it by hand: it holds ONE (Σ, I) pair — the dataset
// and the Σ and weight model it was opened or restored with — and the one
// FdSearchContext built over it. The paper's relative-trust workflow fixes
// (Σ, I) and varies τ; a caller that wants another Σ opens another Session.
// The dataset is held once, as the EncodedInstance the algorithms read;
// no decoded Value table is kept (data().Decode() makes one on demand).
//
// All failures surface through the Status/Result<T> model (status.h); the
// facade translates internal exceptions and optionals at the boundary, so
// Session callers never need a try/catch.
//
// Layering (DESIGN.md "Public API layering"): api/ sits on top of repair/
// and exec/'s sweep runners; everything below api/ stays exception/
// optional-based and remains the internal layer the facade calls.
//
// Thread safety: const methods (Repair, RepairMany, Search, ...) are safe
// to call concurrently. A session schedules on exactly one long-lived pool
// (SessionOptions::shared_pool, or its own): the context is built on it,
// batched requests fan out on it and Apply() patches the context on it;
// single requests run inline on the caller's thread. Apply() may ALSO run
// concurrently with the const request methods: requests take a shared
// snapshot lock and a delta takes it exclusively, so every request
// observes either the whole pre-delta or the whole post-delta state,
// never a mix (the sweep runners' version check double-checks this).
// EnableJournal and ReplayJournal take the same lock.

#ifndef RETRUST_API_SESSION_H_
#define RETRUST_API_SESSION_H_

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "src/api/status.h"
#include "src/exec/cancel.h"
#include "src/exec/sweep.h"
#include "src/obs/trace.h"
#include "src/persist/journal.h"
#include "src/relational/delta.h"
#include "src/repair/multi_repair.h"
#include "src/search/policy.h"

namespace retrust {

/// Which w(Y) weighting the session's distc uses (weights.h).
enum class WeightModel { kDistinctCount, kCardinality, kEntropy };

/// Session-wide configuration.
struct SessionOptions {
  WeightModel weights = WeightModel::kDistinctCount;
  HeuristicOptions heuristic;
  /// Sizes the session's own pool, which the context build, batched
  /// requests (RepairMany/SearchMany) and Apply() run on. Results are
  /// bit-identical for any thread count (DESIGN.md).
  exec::Options exec;
  /// Optional externally-owned pool (nullable) the session's context
  /// build, batches and Apply() schedule on instead of its own pool of
  /// `exec` threads — a process holding many sessions (one per tenant,
  /// src/service/) shares ONE pool across all of them. Must outlive the
  /// session.
  exec::ThreadPool* shared_pool = nullptr;
};

/// What one Session::Apply did — the delta's blast radius vs what stayed
/// warm. `reuse_ratio` close to 1 is the incremental engine's win: the
/// fraction of the context's difference-set groups that survived the delta
/// untouched (their incidence rows and cached covers were carried over).
struct ApplyStats {
  int tuples_inserted = 0;
  int tuples_updated = 0;   ///< update entries applied (cells, not tuples)
  int tuples_deleted = 0;
  int num_tuples = 0;       ///< post-delta cardinality
  uint64_t data_version = 0;  ///< post-delta Session::DataVersion()
  int64_t edges_removed = 0;  ///< conflict edges dropped by the delta
  int64_t edges_added = 0;    ///< conflict edges the delta discovered
  int groups_preserved = 0;   ///< diff-set groups carried over untouched
  int groups_changed = 0;     ///< diff-set groups rebuilt or new
  size_t covers_kept = 0;     ///< memoized covers remapped and kept warm
  size_t covers_dropped = 0;  ///< memoized covers invalidated
  double seconds = 0.0;       ///< wall-clock of the whole Apply

  double reuse_ratio() const {
    int total = groups_preserved + groups_changed;
    return total == 0 ? 1.0
                      : static_cast<double>(groups_preserved) / total;
  }
};

/// One repair request. Exactly one of `tau` (absolute cell-change budget)
/// or `tau_r` (relative trust in [0, 1], resolved against the session's
/// root δP) must be set; use At()/AtRelative().
struct RepairRequest {
  int64_t tau = -1;     ///< absolute τ; negative = use tau_r
  double tau_r = -1.0;  ///< relative τr; ignored when tau >= 0
  SearchMode mode = SearchMode::kAStar;
  /// Engine policy for the FD search (src/search/policy.h): kExact (the
  /// default — Algorithm 2's optimality guarantee), kAnytime (weighted-A*,
  /// first repair fast, refined until interrupted), or kGreedy. The
  /// quality-vs-time knob of the service wire ("policy"/"weight" fields).
  search::SearchPolicy policy = search::SearchPolicy::kExact;
  /// Weighted-A* factor w >= 1 (kAnytime only): first incumbent costs at
  /// most w·optimal.
  double weight = 2.0;
  /// Known cost cap for kAnytime/kGreedy pruning (0 = none).
  double upper_bound = 0.0;
  uint64_t seed = 1;    ///< drives Algorithm 4's random orders
  /// Visit budget for the search (0 = unlimited). Exceeding it without a
  /// repair fails the request with kBudgetExceeded.
  int64_t budget = 0;
  /// Wall-clock deadline in seconds (0 = none); kBudgetExceeded on expiry.
  double deadline_seconds = 0.0;
  /// Optional cooperative cancellation; kCancelled when it fires first.
  /// Not owned — must outlive the request's execution.
  const exec::CancelToken* cancel = nullptr;
  /// Per-request trace (src/obs/trace.h). Null (the default) disables
  /// tracing entirely; when set, the Session attaches session/search
  /// spans and the engine fills the phase accumulators. Shared so the
  /// trace survives the request being copied into service closures.
  std::shared_ptr<obs::RequestTrace> trace;

  static RepairRequest At(int64_t tau) {
    RepairRequest r;
    r.tau = tau;
    return r;
  }
  static RepairRequest AtRelative(double tau_r) {
    RepairRequest r;
    r.tau_r = tau_r;
    return r;
  }
};

/// A successful end-to-end repair (Algorithm 1).
struct RepairResponse {
  Repair repair;        ///< (Σ', I') plus stats (repair.stats)
  int64_t tau = 0;      ///< the resolved absolute τ this ran at
  double seconds = 0.0; ///< wall-clock of this request
  /// Why the search stopped. Only kCompleted guarantees the repair is
  /// cost-minimal; a budget/deadline/cancel interruption that already
  /// held a τ-feasible repair returns it with the interruption recorded
  /// here, so truncated answers are detectable.
  SearchTermination termination = SearchTermination::kCompleted;
};

/// A search probe (Algorithm 2 only, no data materialization): the
/// diagnostic/benchmark companion to Repair(). A probe REPORTS whatever
/// the search did — "no relaxation fits τ", a budget cut, a cancellation —
/// through `result.repair`/`result.termination` and always carries the
/// stats; only a malformed request fails the Result.
struct SearchProbe {
  ModifyFdsResult result;
  int64_t tau = 0;
  double seconds = 0.0;
};

/// τ = round(τr · root_delta_p), rejecting what TauFromRelative clamps:
/// τr outside [0, 1] (or NaN) and a negative root bound come back as
/// kInvalidArgument. root_delta_p == 0 maps every valid τr to 0.
Result<int64_t> CheckedTauFromRelative(double tau_r, int64_t root_delta_p);

class Session {
 public:
  /// Opens a session over `data` with a pre-built Σ. Fails with
  /// kSchemaMismatch when an FD references attributes outside the schema
  /// and kInvalidFd when one is trivial (A ∈ X). Builds the initial
  /// context eagerly, so RootDeltaP() is immediately available.
  static Result<Session> Open(const Instance& data, FDSet sigma,
                              SessionOptions opts = {});

  /// Same, parsing Σ from texts like {"City->Zip"}; parse failures come
  /// back as kInvalidFd.
  static Result<Session> Open(const Instance& data,
                              const std::vector<std::string>& fd_texts,
                              SessionOptions opts = {});

  /// Same, reading the dataset from a CSV file (kIoError on failure).
  static Result<Session> OpenCsv(const std::string& path,
                                 const std::vector<std::string>& fd_texts,
                                 SessionOptions opts = {});

  /// Opens a session from a snapshot file (src/persist/), adopting the
  /// saved dataset, Σ, difference-set index, and warm caches instead of
  /// paying the O(n²) context build — answers are bit-identical to a
  /// session opened from the original data, at any thread count (the
  /// snapshot fingerprint deliberately excludes `opts.exec`). The caller's
  /// (weights, heuristic) must match what the snapshot was saved under:
  /// mismatch → kSchemaMismatch. Unreadable/corrupt → kIoError; a format
  /// version this build does not speak → kVersionMismatch. Never throws
  /// and never crashes on hostile bytes.
  static Result<Session> OpenSnapshot(const std::string& path,
                                      SessionOptions opts = {});

  /// Saves the live dataset plus the context's warm state to
  /// `path`. Safe against concurrent const requests (takes the snapshot
  /// lock shared — a concurrent Apply is excluded, so the file is a
  /// consistent cut at one DataVersion()).
  Status SaveSnapshot(const std::string& path) const;

  /// Attaches an append-only delta journal: every subsequent successful
  /// Apply() first logs its batch to `path` (write-ahead), so a loader can
  /// rebuild this session as base snapshot + replay. An existing journal
  /// is continued iff its fingerprint matches this session's configuration
  /// (else kSchemaMismatch) and its base_version + records == DataVersion()
  /// (else kInvalidArgument — replay it first); a missing/empty file
  /// starts a fresh journal based at the current DataVersion(). A torn
  /// trailing record from a crashed append is truncated, not fatal.
  Status EnableJournal(const std::string& path);

  /// Replays every batch of a journal through Apply(), in order, and
  /// returns how many were applied. The journal must extend THIS state:
  /// fingerprint and base DataStamp must match (else kSchemaMismatch) and
  /// base_version must equal DataVersion() (else kInvalidArgument).
  /// Refused while a journal is attached (kInvalidArgument): replay first,
  /// then EnableJournal, so replayed batches are never re-logged.
  Result<int> ReplayJournal(const std::string& path);

  Session(Session&&) = default;
  Session& operator=(Session&&) = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Applies a batch of tuple inserts/updates/deletes to the live dataset
  /// and delta-maintains the context in place: the difference-set index
  /// only re-examines pairs with a mutated endpoint (O(Δ·n) instead of the
  /// O(n²) rebuild), preserved groups keep their violation-table rows and
  /// their memoized covers, and the context's version is bumped. A repair
  /// issued right after an Apply therefore reuses everything outside the
  /// delta's blast radius; should the patch itself fail, the context is
  /// rebuilt from scratch over the mutated data instead.
  /// Post-delta answers are bit-identical to a session freshly opened over
  /// the mutated data. Safe to call concurrently with the const request
  /// methods (it takes the snapshot lock exclusively; in-flight requests
  /// drain first). kInvalidArgument on out-of-range ids, duplicate
  /// deletes, or arity mismatches — validation happens before anything
  /// mutates.
  Result<ApplyStats> Apply(const DeltaBatch& delta);

  /// Monotone dataset version: bumped by every non-empty successful
  /// Apply(). Safe against a concurrent Apply (reads under the snapshot
  /// lock).
  uint64_t DataVersion() const;

  /// Live cardinality, safe against a concurrent Apply (reads under the
  /// snapshot lock) — unlike data().NumTuples(), which is not.
  int NumTuples() const;

  /// Algorithm 1 at the request's τ. Error codes: kInvalidArgument (no τ,
  /// τr out of range), kNoRepairWithinTau, kBudgetExceeded, kCancelled.
  /// An interrupted request that already holds a τ-feasible repair returns
  /// it (the repair is valid, possibly not cost-minimal).
  Result<RepairResponse> Repair(const RepairRequest& req) const;

  /// Batched Algorithm 1: all requests run concurrently on the session's
  /// pool over the one shared context (exec::RunRepairs); outcomes in
  /// request order.
  std::vector<Result<RepairResponse>> RepairMany(
      std::span<const RepairRequest> reqs) const;

  /// Algorithm 2 probe (no data repair pass); see SearchProbe.
  Result<SearchProbe> Search(const RepairRequest& req) const;

  /// Batched probes through the same scheduler (exec::RunSearches), in
  /// request order.
  std::vector<Result<SearchProbe>> SearchMany(
      std::span<const RepairRequest> reqs) const;

  /// Algorithm 6 (Range-Repair): every distinct minimal FD repair for
  /// τ ∈ [tau_lo, tau_hi]. kInvalidArgument unless 0 <= tau_lo <= tau_hi.
  Result<MultiRepairResult> EnumerateRepairs(int64_t tau_lo,
                                             int64_t tau_hi) const;

  /// δP(Σ, I) — the root bound; τr = 1 resolves to this.
  /// Safe against a concurrent Apply (reads under the snapshot lock).
  int64_t RootDeltaP() const;

  /// Reference-returning accessors. The references stay valid for the
  /// session's lifetime, but the pointed-to state is delta-maintained IN
  /// PLACE by Apply() — reading through them concurrently with an Apply
  /// is not synchronized. The value-returning observers (DataVersion,
  /// NumTuples, RootDeltaP, BytesEstimate) and the request methods are the
  /// Apply-concurrency-safe surface.
  const Schema& schema() const { return encoded_->schema(); }
  const FDSet& fds() const { return context_->sigma(); }
  const SessionOptions& options() const { return opts_; }

  /// Coarse resident-memory estimate: the context's edge-weighted bytes
  /// plus the dataset (one code per cell and the dictionary constants —
  /// the session keeps no decoded copy). Precision is
  /// not the point — a tenant byte budget only needs relative ordering
  /// between big and small sessions. Safe against a concurrent Apply.
  size_t BytesEstimate() const;

  /// Internal-layer escape hatches for the eval/ harness and benchmarks:
  /// the encoded dataset, the search context, and its weights.
  /// Everything reachable from here is const and thread-safe against
  /// other const calls (NOT against Apply — see above), and the types
  /// are NOT part of the stable facade surface.
  const EncodedInstance& data() const { return *encoded_; }
  const FdSearchContext& context() const { return *context_; }
  const WeightFunction& weights() const { return *weights_; }

 private:
  /// Takes ownership of an encoded dataset; Open encodes `data` first and
  /// OpenSnapshot hands over the saved encoding directly — re-encoding
  /// would reset the fresh-variable counters, breaking bit-identical
  /// variable allocation in post-restore repairs. Builds no context.
  Session(EncodedInstance encoded, SessionOptions opts);

  /// Open over an already-encoded dataset.
  static Result<Session> OpenEncoded(EncodedInstance data, FDSet sigma,
                                     SessionOptions opts);

  /// Builds the context for `sigma` over the live dataset from scratch
  /// (Open, and Apply's fallback when a patch fails).
  void BuildContext(const FDSet& sigma);
  /// Recomputes the fields derived from context_ (root δP, byte estimate)
  /// after a build, a restore or an Apply patch.
  void SyncDerived();
  /// The pool context builds, batches and Apply run on: the shared one
  /// when provided, else the session's own (null = serial inline
  /// execution).
  exec::ThreadPool* pool() const {
    return opts_.shared_pool != nullptr ? opts_.shared_pool : own_pool_.get();
  }
  Result<int64_t> ResolveTau(const RepairRequest& req) const;
  ModifyFdsOptions SearchOptions(const RepairRequest& req) const;

  /// Shared skeleton of RepairMany/SearchMany: resolve every request's τ
  /// (invalid ones fail their slot without running), run the valid jobs
  /// through the sweep runners, re-slot outcomes in request order; an escaped
  /// internal exception fails the affected slots with kInternal.
  template <typename Response, typename Job, typename MakeJob,
            typename RunJobs, typename SlotOutcome>
  std::vector<Result<Response>> RunBatch(std::span<const RepairRequest> reqs,
                                         MakeJob make_job, RunJobs run,
                                         SlotOutcome slot) const;

  /// Heap-pinned: weights_ and context_ reference it.
  std::unique_ptr<EncodedInstance> encoded_;
  SessionOptions opts_;
  /// The one weight function, built from opts_.weights over *encoded_.
  std::unique_ptr<WeightFunction> weights_;
  std::unique_ptr<FdSearchContext> context_;
  int64_t root_delta_p_ = 0;   ///< context_->RootDeltaP(), kept fresh
  size_t context_bytes_ = 0;   ///< edge-weighted estimate, kept fresh
  /// Snapshot lock: request methods hold it shared for their whole run,
  /// Apply holds it exclusively while mutating the instance and patching
  /// the context — so a delta can never interleave with a request.
  /// Heap-pinned so Session stays movable.
  std::unique_ptr<std::shared_mutex> state_mu_;
  /// The session's own pool, created at construction unless
  /// opts_.shared_pool is set (null when serial). The context build,
  /// batches and Apply — which the snapshot lock keeps apart — share it.
  std::unique_ptr<exec::ThreadPool> own_pool_;
  /// Write-ahead delta journal (EnableJournal); Apply logs each batch
  /// before mutating. Guarded by the exclusive snapshot lock.
  std::unique_ptr<persist::JournalWriter> journal_;
  uint64_t data_version_ = 1;
};

}  // namespace retrust

#endif  // RETRUST_API_SESSION_H_
