#include "src/api/session.h"

#include <cmath>
#include <filesystem>
#include <optional>
#include <utility>

#include "src/persist/snapshot.h"
#include "src/relational/csv.h"
#include "src/repair/weights.h"
#include "src/util/timer.h"

namespace retrust {

namespace {

/// Edge-weighted memory estimate of a context. Edge storage dominates
/// (every group keeps its edge list, and the violation table and cover
/// memo scale with groups, not tuples); the per-group constant covers the
/// group record, its incidence row, and memo bookkeeping.
size_t EstimateContextBytes(const FdSearchContext& ctx) {
  constexpr size_t kPerGroup = 128;
  int64_t edges = 0;
  for (const DiffSetGroup& g : ctx.index().groups()) {
    edges += static_cast<int64_t>(g.edges.size());
  }
  return static_cast<size_t>(edges) * sizeof(Edge) +
         static_cast<size_t>(ctx.index().size()) * kPerGroup +
         sizeof(FdSearchContext);
}

Status NoRepairStatus(SearchTermination termination, int64_t tau) {
  switch (termination) {
    case SearchTermination::kCancelled:
      return Status::Error(StatusCode::kCancelled,
                           "request cancelled before a repair was found");
    case SearchTermination::kVisitBudget:
      return Status::Error(StatusCode::kBudgetExceeded,
                           "visit budget exhausted before a repair was found");
    case SearchTermination::kDeadline:
      return Status::Error(StatusCode::kBudgetExceeded,
                           "deadline expired before a repair was found");
    case SearchTermination::kCompleted:
      break;
  }
  return Status::Error(
      StatusCode::kNoRepairWithinTau,
      "no relaxation of the FDs admits a repair with at most " +
          std::to_string(tau) + " cell changes");
}

/// The one mapping from an Algorithm 1 outcome at `tau` to the facade's
/// response, shared by Repair and RepairMany.
Result<RepairResponse> ToResponse(RepairOutcome outcome, int64_t tau) {
  if (!outcome.repair.has_value()) {
    return NoRepairStatus(outcome.termination, tau);
  }
  RepairResponse response;
  response.repair = std::move(*outcome.repair);
  response.tau = tau;
  response.seconds = outcome.seconds;
  response.termination = outcome.termination;
  return response;
}

/// Open's Σ check: kSchemaMismatch for an FD outside the `m`-attribute
/// schema, kInvalidFd for a trivial one (RHS contained in LHS).
Status ValidateFds(const FDSet& sigma, int m) {
  const AttrSet universe = AttrSet::Universe(m);
  for (const FD& fd : sigma.fds()) {
    if (fd.rhs < 0 || fd.rhs >= m || !fd.lhs.SubsetOf(universe)) {
      return Status::Error(StatusCode::kSchemaMismatch,
                           "FD " + fd.ToString() +
                               " references attributes outside the " +
                               std::to_string(m) + "-attribute schema");
    }
    if (fd.IsTrivial()) {
      return Status::Error(StatusCode::kInvalidFd,
                           "FD " + fd.ToString() +
                               " is trivial (RHS contained in LHS)");
    }
  }
  return Status::Ok();
}

std::unique_ptr<WeightFunction> MakeWeights(WeightModel model,
                                            const EncodedInstance& inst) {
  switch (model) {
    case WeightModel::kCardinality:
      return std::make_unique<CardinalityWeight>();
    case WeightModel::kEntropy:
      return std::make_unique<EntropyWeight>(inst);
    case WeightModel::kDistinctCount:
      break;
  }
  return std::make_unique<DistinctCountWeight>(inst);
}

Result<FDSet> ParseFds(const std::vector<std::string>& fd_texts,
                       const Schema& schema) {
  try {
    return FDSet::Parse(fd_texts, schema);
  } catch (const std::exception& e) {
    return Status::Error(StatusCode::kInvalidFd, e.what());
  }
}

}  // namespace

Result<int64_t> CheckedTauFromRelative(double tau_r, int64_t root_delta_p) {
  if (std::isnan(tau_r) || tau_r < 0.0 || tau_r > 1.0) {
    return Status::Error(StatusCode::kInvalidArgument,
                         "tau_r must be in [0, 1], got " +
                             std::to_string(tau_r));
  }
  if (root_delta_p < 0) {
    return Status::Error(StatusCode::kInvalidArgument,
                         "root_delta_p must be >= 0, got " +
                             std::to_string(root_delta_p));
  }
  return TauFromRelative(tau_r, root_delta_p);
}

Session::Session(EncodedInstance encoded, SessionOptions opts)
    : encoded_(std::make_unique<EncodedInstance>(std::move(encoded))),
      opts_(opts),
      weights_(MakeWeights(opts.weights, *encoded_)),
      state_mu_(std::make_unique<std::shared_mutex>()),
      own_pool_(opts.shared_pool == nullptr ? exec::MakePool(opts.exec)
                                            : nullptr) {}

Result<Session> Session::Open(const Instance& data, FDSet sigma,
                              SessionOptions opts) {
  try {
    return OpenEncoded(EncodedInstance(data), std::move(sigma),
                       std::move(opts));
  } catch (const std::exception& e) {
    return Status::Error(StatusCode::kInternal, e.what());
  }
}

Result<Session> Session::Open(const Instance& data,
                              const std::vector<std::string>& fd_texts,
                              SessionOptions opts) {
  Result<FDSet> sigma = ParseFds(fd_texts, data.schema());
  if (!sigma.ok()) return sigma.status();
  return Open(data, std::move(*sigma), std::move(opts));
}

Result<Session> Session::OpenCsv(const std::string& path,
                                 const std::vector<std::string>& fd_texts,
                                 SessionOptions opts) {
  // The parsed table is freed once encoded, before the context build.
  std::optional<EncodedInstance> encoded;
  try {
    encoded.emplace(ReadCsvFile(path));
  } catch (const std::exception& e) {
    return Status::Error(StatusCode::kIoError, e.what());
  }
  Result<FDSet> sigma = ParseFds(fd_texts, encoded->schema());
  if (!sigma.ok()) return sigma.status();
  return OpenEncoded(std::move(*encoded), std::move(*sigma), std::move(opts));
}

Result<Session> Session::OpenEncoded(EncodedInstance data, FDSet sigma,
                                     SessionOptions opts) {
  Status status = ValidateFds(sigma, data.NumAttrs());
  if (!status.ok()) return status;
  try {
    Session session(std::move(data), std::move(opts));
    session.BuildContext(sigma);
    return session;
  } catch (const std::exception& e) {
    return Status::Error(StatusCode::kInternal, e.what());
  }
}

Result<Session> Session::OpenSnapshot(const std::string& path,
                                      SessionOptions opts) {
  Result<persist::SnapshotData> data = persist::ReadSnapshotFile(path);
  if (!data.ok()) return data.status();
  // Σ comes FROM the snapshot; what must match is the caller's (weights,
  // heuristic) configuration, or the warm caches would encode a different
  // cost model than the session claims to run.
  const uint64_t expected = persist::ConfigFingerprint(
      data->sigma, static_cast<uint8_t>(opts.weights), opts.heuristic);
  if (expected != data->fingerprint) {
    return Status::Error(
        StatusCode::kSchemaMismatch,
        "snapshot '" + path +
            "' was saved under a different (weights, heuristic) "
            "configuration than this session requests");
  }
  // Defense in depth: the stored stamp must describe the stored data. A
  // file that passes its CRC but fails this was assembled inconsistently.
  if (persist::DataStamp(data->encoded) != data->data_stamp) {
    return Status::Error(StatusCode::kIoError,
                         "snapshot '" + path +
                             "' data stamp does not match its own payload");
  }
  Status status = ValidateFds(data->sigma, data->encoded.NumAttrs());
  if (!status.ok()) return status;
  try {
    Session session(std::move(data->encoded), std::move(opts));
    session.context_ = std::make_unique<FdSearchContext>(
        data->sigma, *session.encoded_, *session.weights_,
        session.opts_.heuristic, std::move(data->index),
        std::move(data->covers));
    session.SyncDerived();
    // Self-check: a restored root δP that disagrees with the saved one
    // means the file lied about its own content.
    if (session.root_delta_p_ != data->root_delta_p) {
      return Status::Error(
          StatusCode::kIoError,
          "snapshot failed its restore self-check: recomputed root deltaP " +
              std::to_string(session.root_delta_p_) + " != saved " +
              std::to_string(data->root_delta_p));
    }
    session.data_version_ = data->data_version;
    return session;
  } catch (const std::exception& e) {
    return Status::Error(StatusCode::kIoError,
                         "snapshot '" + path +
                             "' could not be restored: " + e.what());
  }
}

Status Session::SaveSnapshot(const std::string& path) const {
  std::shared_lock<std::shared_mutex> snapshot(*state_mu_);
  try {
    persist::SnapshotView view;
    view.fingerprint = persist::ConfigFingerprint(
        fds(), static_cast<uint8_t>(opts_.weights), opts_.heuristic);
    view.data_stamp = persist::DataStamp(*encoded_);
    view.data_version = data_version_;
    view.root_delta_p = root_delta_p_;
    view.weight_model = static_cast<uint8_t>(opts_.weights);
    view.heuristic = opts_.heuristic;
    view.encoded = encoded_.get();
    view.sigma = &fds();
    view.index = &context_->index();
    view.covers = context_->evaluator().memo().ExportEntries();
    return persist::WriteSnapshotFile(path, view);
  } catch (const std::exception& e) {
    return Status::Error(StatusCode::kInternal, e.what());
  }
}

Status Session::EnableJournal(const std::string& path) {
  std::unique_lock<std::shared_mutex> snapshot(*state_mu_);
  const uint64_t fp = persist::ConfigFingerprint(
      fds(), static_cast<uint8_t>(opts_.weights), opts_.heuristic);
  std::error_code ec;
  const bool exists = std::filesystem::exists(path, ec) && !ec &&
                      std::filesystem::file_size(path, ec) > 0 && !ec;
  if (exists) {
    auto writer = persist::JournalWriter::Append(path, fp);
    if (!writer.ok()) return writer.status();
    const persist::JournalHeader& header = (*writer)->header();
    if (header.base_version + (*writer)->num_records() != data_version_) {
      return Status::Error(
          StatusCode::kInvalidArgument,
          "journal '" + path + "' ends at data version " +
              std::to_string(header.base_version + (*writer)->num_records()) +
              " but this session is at " + std::to_string(data_version_) +
              "; replay it first");
    }
    journal_ = std::move(*writer);
    return Status::Ok();
  }
  persist::JournalHeader header;
  header.fingerprint = fp;
  header.base_stamp = persist::DataStamp(*encoded_);
  header.base_version = data_version_;
  auto writer = persist::JournalWriter::Create(path, header);
  if (!writer.ok()) return writer.status();
  journal_ = std::move(*writer);
  return Status::Ok();
}

Result<int> Session::ReplayJournal(const std::string& path) {
  Result<persist::JournalContents> contents = persist::ReadJournalFile(path);
  if (!contents.ok()) return contents.status();
  {
    std::shared_lock<std::shared_mutex> snapshot(*state_mu_);
    if (journal_ != nullptr) {
      return Status::Error(
          StatusCode::kInvalidArgument,
          "cannot replay while a journal is attached (replayed batches "
          "would be re-logged); replay first, then EnableJournal");
    }
    const uint64_t fp = persist::ConfigFingerprint(
        fds(), static_cast<uint8_t>(opts_.weights), opts_.heuristic);
    if (contents->header.fingerprint != fp) {
      return Status::Error(
          StatusCode::kSchemaMismatch,
          "journal '" + path +
              "' was written under a different Σ/weights configuration");
    }
    if (contents->header.base_stamp != persist::DataStamp(*encoded_)) {
      return Status::Error(StatusCode::kSchemaMismatch,
                           "journal '" + path +
                               "' extends a different base dataset");
    }
    if (contents->header.base_version != data_version_) {
      return Status::Error(
          StatusCode::kInvalidArgument,
          "journal '" + path + "' is based at data version " +
              std::to_string(contents->header.base_version) +
              " but this session is at " + std::to_string(data_version_));
    }
  }
  int applied = 0;
  for (const DeltaBatch& batch : contents->batches) {
    Result<ApplyStats> stats = Apply(batch);
    if (!stats.ok()) {
      return Status::Error(stats.status().code(),
                           "journal '" + path + "' replay stopped at record " +
                               std::to_string(applied) + ": " +
                               stats.status().message());
    }
    ++applied;
  }
  return applied;
}

void Session::BuildContext(const FDSet& sigma) {
  context_ = std::make_unique<FdSearchContext>(sigma, *encoded_, *weights_,
                                               opts_.heuristic, pool());
  SyncDerived();
}

void Session::SyncDerived() {
  root_delta_p_ = context_->RootDeltaP();
  context_bytes_ = EstimateContextBytes(*context_);
}

Result<ApplyStats> Session::Apply(const DeltaBatch& delta) {
  // Exclusive snapshot lock: in-flight requests (shared holders) drain
  // first, later ones observe the fully patched state.
  std::unique_lock<std::shared_mutex> snapshot(*state_mu_);
  Timer timer;
  ApplyStats stats;
  stats.tuples_inserted = static_cast<int>(delta.inserts.size());
  stats.tuples_updated = static_cast<int>(delta.updates.size());
  stats.tuples_deleted = static_cast<int>(delta.deletes.size());
  stats.num_tuples = encoded_->NumTuples();
  stats.data_version = data_version_;
  if (delta.Empty()) {
    stats.seconds = timer.ElapsedSeconds();
    return stats;
  }
  DeltaPlan plan;
  try {
    plan = PlanDelta(delta, encoded_->NumTuples(), encoded_->NumAttrs());
  } catch (const std::invalid_argument& e) {
    // Validation failed before anything mutated; the session is untouched.
    return Status::Error(StatusCode::kInvalidArgument, e.what());
  }
  if (journal_ != nullptr) {
    // Write-ahead: the batch is durable before anything mutates, so the
    // journal is always >= the in-memory state (a logged-but-unapplied
    // batch after a crash replays to the state this Apply was producing).
    Status logged = journal_->AppendBatch(delta);
    if (!logged.ok()) return logged;
  }
  try {
    encoded_->ApplyDelta(delta, plan);
    // Memoized projections are stale against the mutated instance; they
    // refill lazily on the next Weight() call.
    weights_->Invalidate();
    try {
      // The delta empties the cover memo (the evaluator is rebuilt over the
      // patched index), so every cover it holds now is dropped.
      stats.covers_dropped = context_->evaluator().memo().entries();
      FdSearchContext::DeltaReport report = context_->ApplyDelta(
          *encoded_, plan.dirty, plan.remap, pool());
      SyncDerived();
      stats.edges_removed = report.index.edges_removed;
      stats.edges_added = report.index.edges_added;
      stats.groups_preserved = report.index.groups_preserved;
      stats.groups_changed = report.index.groups_changed;
    } catch (...) {
      // A half-patched context over the already-mutated instance would be
      // silently wrong (stale tuple ids, unbumped version). Fall back to
      // consistency over warmth: rebuild it from scratch.
      BuildContext(fds());
      stats.groups_changed = context_->index().size();
    }
    ++data_version_;
  } catch (const std::exception& e) {
    // Only the in-place instance mutation or the from-scratch fallback can
    // land here (e.g. OOM); the session may be unusable.
    return Status::Error(StatusCode::kInternal, e.what());
  }
  stats.num_tuples = encoded_->NumTuples();
  stats.data_version = data_version_;
  stats.seconds = timer.ElapsedSeconds();
  return stats;
}

Result<int64_t> Session::ResolveTau(const RepairRequest& req) const {
  // Callers (the request methods) hold the snapshot lock already, so this
  // must use the unlocked root accessor (shared_mutex is non-recursive).
  if (req.tau >= 0) return req.tau;
  if (req.tau_r == -1.0) {
    return Status::Error(StatusCode::kInvalidArgument,
                         "request sets neither tau nor tau_r");
  }
  return CheckedTauFromRelative(req.tau_r, root_delta_p_);
}

ModifyFdsOptions Session::SearchOptions(const RepairRequest& req) const {
  ModifyFdsOptions opts;
  opts.mode = req.mode;
  opts.heuristic = opts_.heuristic;
  opts.policy.policy = req.policy;
  opts.policy.weighting_factor = req.weight;
  opts.policy.initial_upper_bound = req.upper_bound;
  opts.max_visited = req.budget;
  opts.deadline_seconds = req.deadline_seconds;
  opts.cancel = req.cancel;
  opts.phase_trace =
      req.trace != nullptr ? &req.trace->search_phases : nullptr;
  // One search runs serially on the caller's thread: the session's pool
  // parallelizes ACROSS batched requests and inside context builds and
  // deltas, never inside one search.
  return opts;
}

Result<RepairResponse> Session::Repair(const RepairRequest& req) const {
  std::shared_lock<std::shared_mutex> snapshot(*state_mu_);
  Result<int64_t> tau = ResolveTau(req);
  if (!tau.ok()) return tau.status();
  // Traced requests get a "session" span (under the service span when the
  // request came through the queue) with "search" + "materialize" children;
  // the search span's phase breakdown is filled by the engine via
  // SearchOptions(). Untraced requests skip every clock read below.
  obs::TraceSpan* session_span =
      req.trace != nullptr
          ? req.trace->SessionParent()->StartChild("session")
          : nullptr;
  try {
    RepairOptions opts;
    opts.search = SearchOptions(req);
    opts.seed = req.seed;
    RepairOutcome outcome =
        RunRepair(*context_, *encoded_, *tau, opts);
    if (session_span != nullptr) {
      obs::TraceSpan* search_span = session_span->StartChild("search");
      search_span->set_seconds(outcome.stats.seconds);
      obs::AttachSearchPhases(search_span, req.trace->search_phases);
      const double materialize = outcome.seconds - outcome.stats.seconds;
      if (materialize > 0.0) {
        session_span->StartChild("materialize")->set_seconds(materialize);
      }
      session_span->Finish();
    }
    return ToResponse(std::move(outcome), *tau);
  } catch (const std::exception& e) {
    if (session_span != nullptr) session_span->Finish();
    return Status::Error(StatusCode::kInternal, e.what());
  }
}

template <typename Response, typename Job, typename MakeJob, typename RunJobs,
          typename SlotOutcome>
std::vector<Result<Response>> Session::RunBatch(
    std::span<const RepairRequest> reqs, MakeJob make_job, RunJobs run,
    SlotOutcome slot) const {
  std::vector<std::optional<Result<Response>>> slots(reqs.size());
  std::vector<Job> jobs;
  std::vector<size_t> owner;  // job index -> request index
  for (size_t i = 0; i < reqs.size(); ++i) {
    Result<int64_t> tau = ResolveTau(reqs[i]);
    if (!tau.ok()) {
      slots[i].emplace(tau.status());
      continue;
    }
    jobs.push_back(make_job(reqs[i], *tau));
    owner.push_back(i);
  }
  try {
    auto outcomes = run(jobs);
    for (size_t j = 0; j < outcomes.size(); ++j) {
      slots[owner[j]].emplace(slot(std::move(outcomes[j]), jobs[j]));
    }
  } catch (const std::exception& e) {
    for (size_t j : owner) {
      slots[j].emplace(
          Result<Response>(Status::Error(StatusCode::kInternal, e.what())));
    }
  }
  std::vector<Result<Response>> results;
  results.reserve(slots.size());
  for (std::optional<Result<Response>>& s : slots) {
    results.push_back(std::move(*s));
  }
  return results;
}

std::vector<Result<RepairResponse>> Session::RepairMany(
    std::span<const RepairRequest> reqs) const {
  std::shared_lock<std::shared_mutex> snapshot(*state_mu_);
  return RunBatch<RepairResponse, exec::SweepJob>(
      reqs,
      [this](const RepairRequest& req, int64_t tau) {
        exec::SweepJob job;
        job.tau = tau;
        job.opts.search = SearchOptions(req);
        job.opts.seed = req.seed;
        return job;
      },
      [this](const std::vector<exec::SweepJob>& jobs) {
        return exec::RunRepairs(*context_, *encoded_, jobs, pool());
      },
      [](RepairOutcome out, const exec::SweepJob& job) {
        return ToResponse(std::move(out), job.tau);
      });
}

Result<SearchProbe> Session::Search(const RepairRequest& req) const {
  std::shared_lock<std::shared_mutex> snapshot(*state_mu_);
  Result<int64_t> tau = ResolveTau(req);
  if (!tau.ok()) return tau.status();
  try {
    Timer timer;
    SearchProbe probe;
    probe.tau = *tau;
    probe.result = ModifyFds(*context_, *tau, SearchOptions(req));
    probe.seconds = timer.ElapsedSeconds();
    return probe;
  } catch (const std::exception& e) {
    return Status::Error(StatusCode::kInternal, e.what());
  }
}

std::vector<Result<SearchProbe>> Session::SearchMany(
    std::span<const RepairRequest> reqs) const {
  std::shared_lock<std::shared_mutex> snapshot(*state_mu_);
  return RunBatch<SearchProbe, exec::SearchJob>(
      reqs,
      [this](const RepairRequest& req, int64_t tau) {
        exec::SearchJob job;
        job.tau = tau;
        job.opts = SearchOptions(req);
        return job;
      },
      [this](const std::vector<exec::SearchJob>& jobs) {
        return exec::RunSearches(*context_, jobs, pool());
      },
      [](ModifyFdsResult out, const exec::SearchJob& job) -> Result<SearchProbe> {
        SearchProbe probe;
        probe.tau = job.tau;
        probe.seconds = out.stats.seconds;
        probe.result = std::move(out);
        return probe;
      });
}

Result<MultiRepairResult> Session::EnumerateRepairs(int64_t tau_lo,
                                                    int64_t tau_hi) const {
  if (tau_lo < 0 || tau_lo > tau_hi) {
    return Status::Error(StatusCode::kInvalidArgument,
                         "need 0 <= tau_lo <= tau_hi, got [" +
                             std::to_string(tau_lo) + ", " +
                             std::to_string(tau_hi) + "]");
  }
  std::shared_lock<std::shared_mutex> snapshot(*state_mu_);
  try {
    ModifyFdsOptions opts;
    opts.heuristic = opts_.heuristic;
    return FindRepairsFds(*context_, tau_lo, tau_hi, opts);
  } catch (const std::exception& e) {
    return Status::Error(StatusCode::kInternal, e.what());
  }
}

uint64_t Session::DataVersion() const {
  std::shared_lock<std::shared_mutex> snapshot(*state_mu_);
  return data_version_;
}

int Session::NumTuples() const {
  std::shared_lock<std::shared_mutex> snapshot(*state_mu_);
  return encoded_->NumTuples();
}

int64_t Session::RootDeltaP() const {
  std::shared_lock<std::shared_mutex> snapshot(*state_mu_);
  return root_delta_p_;
}

size_t Session::BytesEstimate() const {
  std::shared_lock<std::shared_mutex> snapshot(*state_mu_);
  // A code per cell; a dictionary constant is held twice (code order and
  // lookup index) plus its index node.
  size_t bytes = context_bytes_;
  for (AttrId a = 0; a < encoded_->NumAttrs(); ++a) {
    bytes += encoded_->column(a).size() * sizeof(int32_t) +
             encoded_->DictionarySize(a) * (2 * sizeof(Value) + 32);
  }
  return bytes;
}

}  // namespace retrust
