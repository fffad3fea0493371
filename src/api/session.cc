#include "src/api/session.h"

#include <cmath>
#include <filesystem>
#include <utility>

#include "src/persist/snapshot.h"
#include "src/relational/csv.h"
#include "src/repair/weights.h"
#include "src/util/hash.h"
#include "src/util/timer.h"

namespace retrust {

namespace {

/// Cache key of a context: everything FdSearchContext construction consumes
/// besides the (fixed) dataset. Collisions are disambiguated by the Σ
/// equality probe in BundleFor.
uint64_t Fingerprint(const FDSet& sigma, const SessionOptions& opts) {
  uint64_t seed = 0x5e55104eULL;  // "session"
  for (const FD& fd : sigma.fds()) {
    HashCombine(&seed, fd.lhs.bits());
    HashCombine(&seed, static_cast<uint64_t>(static_cast<uint32_t>(fd.rhs)));
  }
  HashCombine(&seed, static_cast<uint64_t>(opts.weights));
  HashCombine(&seed, static_cast<uint64_t>(opts.heuristic.max_diffsets));
  HashCombine(&seed, static_cast<uint64_t>(opts.heuristic.max_nodes));
  HashCombine(&seed, opts.heuristic.strict_leave_check ? 1u : 0u);
  HashCombine(&seed, static_cast<uint64_t>(opts.exec.ResolvedThreads()));
  return seed;
}

/// Conflict edges held by a context's difference-set index — the sizing
/// weight of the byte-accurate cache bound.
int64_t IndexEdges(const FdSearchContext& ctx) {
  int64_t edges = 0;
  for (const DiffSetGroup& g : ctx.index().groups()) {
    edges += g.frequency();  // counted groups weigh their logical pairs
  }
  return edges;
}

/// Edge-weighted memory estimate of one cached context. Edge storage
/// dominates (every group keeps its edge list and the violation table and
/// cover memo scale with groups, not tuples); the per-group constant
/// covers the group record, its incidence row, and memo bookkeeping.
size_t EstimateContextBytes(int64_t edges, int num_groups) {
  constexpr size_t kPerGroup = 128;
  return static_cast<size_t>(edges) * sizeof(Edge) +
         static_cast<size_t>(num_groups) * kPerGroup +
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

Session::Session(Instance data, SessionOptions opts)
    : instance_(std::make_unique<Instance>(std::move(data))),
      encoded_(std::make_unique<EncodedInstance>(*instance_)),
      opts_(opts),
      mu_(std::make_unique<std::mutex>()),
      state_mu_(std::make_unique<std::shared_mutex>()),
      own_pool_(opts.shared_pool == nullptr ? exec::MakePool(opts.exec)
                                            : nullptr) {}

Session::Session(Instance data, EncodedInstance encoded, SessionOptions opts)
    : instance_(std::make_unique<Instance>(std::move(data))),
      encoded_(std::make_unique<EncodedInstance>(std::move(encoded))),
      opts_(opts),
      mu_(std::make_unique<std::mutex>()),
      state_mu_(std::make_unique<std::shared_mutex>()),
      own_pool_(opts.shared_pool == nullptr ? exec::MakePool(opts.exec)
                                            : nullptr) {}

Result<Session> Session::Open(Instance data, FDSet sigma,
                              SessionOptions opts) {
  Session session(std::move(data), std::move(opts));
  Status status = session.SetFds(std::move(sigma));
  if (!status.ok()) return status;
  return session;
}

Result<Session> Session::Open(Instance data,
                              const std::vector<std::string>& fd_texts,
                              SessionOptions opts) {
  Result<FDSet> sigma = ParseFds(fd_texts, data.schema());
  if (!sigma.ok()) return sigma.status();
  return Open(std::move(data), std::move(*sigma), std::move(opts));
}

Result<Session> Session::OpenCsv(const std::string& path,
                                 const std::vector<std::string>& fd_texts,
                                 SessionOptions opts) {
  try {
    Instance data = ReadCsvFile(path);
    return Open(std::move(data), fd_texts, std::move(opts));
  } catch (const std::exception& e) {
    return Status::Error(StatusCode::kIoError, e.what());
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
  try {
    Instance decoded = data->encoded.Decode();
    decoded.RestoreNextVarCounters(std::move(data->instance_next_var));
    Session session(std::move(decoded), std::move(data->encoded),
                    std::move(opts));
    Status adopted =
        session.AdoptContext(std::move(data->sigma), std::move(data->index),
                             std::move(data->warm), data->root_delta_p);
    if (!adopted.ok()) return adopted;
    session.data_version_ = data->data_version;
    return session;
  } catch (const std::exception& e) {
    return Status::Error(StatusCode::kIoError,
                         "snapshot '" + path +
                             "' could not be restored: " + e.what());
  }
}

Status Session::AdoptContext(FDSet sigma, DifferenceSetIndex index,
                             DeltaPEvaluator::WarmState warm,
                             int64_t expected_root_delta_p) {
  Status status = Validate(sigma);
  if (!status.ok()) return status;
  try {
    const uint64_t fp = Fingerprint(sigma, opts_);
    std::lock_guard<std::mutex> lock(*mu_);
    const WeightFunction* weights = &WeightFor(opts_.weights);
    auto context = std::make_unique<FdSearchContext>(
        sigma, *encoded_, *weights, opts_.heuristic, std::move(index),
        std::move(warm));
    std::shared_ptr<ContextBundle> bundle =
        MakeBundle(std::move(sigma), weights, std::move(context));
    if (bundle->root_delta_p != expected_root_delta_p) {
      return Status::Error(
          StatusCode::kIoError,
          "snapshot failed its restore self-check: recomputed root deltaP " +
              std::to_string(bundle->root_delta_p) + " != saved " +
              std::to_string(expected_root_delta_p));
    }
    ++cache_misses_;  // a restore builds (cheaply); it did not hit the cache
    cache_[fp].push_back(bundle);
    active_fingerprint_ = fp;
    active_ = std::move(bundle);
  } catch (const std::exception& e) {
    return Status::Error(StatusCode::kIoError,
                         std::string("snapshot restore failed: ") + e.what());
  }
  return Status::Ok();
}

Status Session::SaveSnapshot(const std::string& path) const {
  std::shared_lock<std::shared_mutex> snapshot(*state_mu_);
  try {
    persist::SnapshotView view;
    view.fingerprint = persist::ConfigFingerprint(
        active_->sigma, static_cast<uint8_t>(opts_.weights), opts_.heuristic);
    view.data_stamp = persist::DataStamp(*encoded_);
    view.data_version = data_version_;
    view.root_delta_p = active_->root_delta_p;
    view.weight_model = static_cast<uint8_t>(opts_.weights);
    view.heuristic = opts_.heuristic;
    view.encoded = encoded_.get();
    view.instance_next_var = &instance_->next_var_counters();
    view.sigma = &active_->sigma;
    view.index = &active_->context->index();
    view.warm = active_->context->evaluator().ExportWarmState();
    return persist::WriteSnapshotFile(path, view);
  } catch (const std::exception& e) {
    return Status::Error(StatusCode::kInternal, e.what());
  }
}

Status Session::EnableJournal(const std::string& path) {
  std::unique_lock<std::shared_mutex> snapshot(*state_mu_);
  const uint64_t fp = persist::ConfigFingerprint(
      active_->sigma, static_cast<uint8_t>(opts_.weights), opts_.heuristic);
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
        active_->sigma, static_cast<uint8_t>(opts_.weights), opts_.heuristic);
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

Status Session::Validate(const FDSet& sigma) const {
  const int m = encoded_->NumAttrs();
  const AttrSet universe = AttrSet::Universe(m);
  for (int i = 0; i < sigma.size(); ++i) {
    const FD& fd = sigma.fd(i);
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

const WeightFunction& Session::WeightFor(WeightModel model) {
  std::unique_ptr<WeightFunction>& slot = weight_cache_[static_cast<int>(model)];
  if (slot == nullptr) {
    switch (model) {
      case WeightModel::kDistinctCount:
        slot = std::make_unique<DistinctCountWeight>(*encoded_);
        break;
      case WeightModel::kCardinality:
        slot = std::make_unique<CardinalityWeight>();
        break;
      case WeightModel::kEntropy:
        slot = std::make_unique<EntropyWeight>(*encoded_);
        break;
    }
  }
  return *slot;
}

std::shared_ptr<Session::ContextBundle> Session::BundleFor(FDSet sigma) {
  const uint64_t fp = Fingerprint(sigma, opts_);
  std::lock_guard<std::mutex> lock(*mu_);
  const WeightFunction* weights = &WeightFor(opts_.weights);
  std::vector<std::shared_ptr<ContextBundle>>& bucket = cache_[fp];
  // Σ/weights equality disambiguates genuine 64-bit collisions.
  for (const std::shared_ptr<ContextBundle>& bundle : bucket) {
    if (bundle->sigma == sigma && bundle->weights == weights) {
      ++cache_hits_;
      ++bundle->hits;
      bundle->last_used = ++use_clock_;
      active_fingerprint_ = fp;
      return bundle;
    }
  }
  ++cache_misses_;
  auto context = std::make_unique<FdSearchContext>(
      sigma, *encoded_, *weights, opts_.heuristic, opts_.exec);
  std::shared_ptr<ContextBundle> bundle =
      MakeBundle(std::move(sigma), weights, std::move(context));
  bucket.push_back(bundle);
  active_fingerprint_ = fp;
  return bundle;
}

std::shared_ptr<Session::ContextBundle> Session::MakeBundle(
    FDSet sigma, const WeightFunction* weights,
    std::unique_ptr<FdSearchContext> context) {
  auto bundle = std::make_shared<ContextBundle>();
  bundle->sigma = std::move(sigma);
  bundle->weights = weights;
  bundle->context = std::move(context);
  bundle->SyncDerived();
  bundle->last_used = ++use_clock_;
  return bundle;
}

void Session::ContextBundle::SyncDerived() {
  root_delta_p = context->RootDeltaP();
  edges = IndexEdges(*context);
  bytes = EstimateContextBytes(edges, context->index().size());
}

void Session::EvictIfNeeded() {
  if (opts_.max_cached_contexts == 0 && opts_.max_cached_bytes == 0) return;
  std::lock_guard<std::mutex> lock(*mu_);
  auto over_budget = [this] {
    size_t n = 0;
    size_t bytes = 0;
    for (const auto& [fp, bucket] : cache_) {
      n += bucket.size();
      for (const std::shared_ptr<ContextBundle>& b : bucket) bytes += b->bytes;
    }
    return (opts_.max_cached_contexts != 0 &&
            n > opts_.max_cached_contexts) ||
           (opts_.max_cached_bytes != 0 && bytes > opts_.max_cached_bytes);
  };
  while (over_budget()) {
    // Oldest last_used wins; the active context is exempt so the cache
    // always answers for the live Σ.
    std::map<uint64_t,
             std::vector<std::shared_ptr<ContextBundle>>>::iterator
        victim_bucket = cache_.end();
    size_t victim_slot = 0;
    uint64_t victim_age = 0;
    bool found = false;
    for (auto it = cache_.begin(); it != cache_.end(); ++it) {
      for (size_t i = 0; i < it->second.size(); ++i) {
        const ContextBundle* b = it->second[i].get();
        if (b == active_.get()) continue;
        if (!found || b->last_used < victim_age) {
          victim_bucket = it;
          victim_slot = i;
          victim_age = b->last_used;
          found = true;
        }
      }
    }
    if (!found) return;  // only the active bundle left
    victim_bucket->second.erase(victim_bucket->second.begin() + victim_slot);
    if (victim_bucket->second.empty()) cache_.erase(victim_bucket);
    ++cache_evictions_;
  }
}

Status Session::SetFds(FDSet sigma) {
  Status status = Validate(sigma);
  if (!status.ok()) return status;
  try {
    active_ = BundleFor(std::move(sigma));
    EvictIfNeeded();
  } catch (const std::exception& e) {
    return Status::Error(StatusCode::kInternal, e.what());
  }
  return Status::Ok();
}

Status Session::SetFds(const std::vector<std::string>& fd_texts) {
  Result<FDSet> sigma = ParseFds(fd_texts, schema());
  if (!sigma.ok()) return sigma.status();
  return SetFds(std::move(*sigma));
}

Status Session::SetWeights(WeightModel weights) {
  FDSet sigma = active_->sigma;
  WeightModel previous = opts_.weights;
  opts_.weights = weights;
  Status status = SetFds(std::move(sigma));
  if (!status.ok()) opts_.weights = previous;  // failed switch changes nothing
  return status;
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
    instance_->ApplyDelta(delta, plan);
    encoded_->ApplyDelta(delta, plan);
    bool patch_failed = false;
    {
      std::lock_guard<std::mutex> lock(*mu_);
      // Memoized projections are stale against the mutated instance; they
      // refill lazily on the next Weight() call.
      for (auto& [model, weights] : weight_cache_) weights->Invalidate();
      // Patch EVERY cached context (they all read the one shared encoded
      // instance, so none may survive un-patched) on the session's one
      // pool — no per-batch or per-context thread churn on the streaming
      // append path.
      try {
        for (auto& [fp, bucket] : cache_) {
          for (const std::shared_ptr<ContextBundle>& bundle : bucket) {
            FdSearchContext::DeltaReport report =
                bundle->context->ApplyDelta(*encoded_, plan.dirty,
                                            plan.remap, pool());
            bundle->SyncDerived();
            ++stats.contexts_patched;
            stats.edges_removed += report.index.edges_removed;
            stats.edges_added += report.index.edges_added;
            stats.groups_preserved += report.index.groups_preserved;
            stats.groups_changed += report.index.groups_changed;
            stats.covers_kept += report.evaluator.memo.entries_kept;
            stats.covers_dropped += report.evaluator.memo.entries_dropped;
          }
        }
      } catch (...) {
        // A half-patched cache over the already-mutated instance would be
        // silently wrong (stale tuple ids, unbumped versions). Fall back
        // to consistency over warmth: drop every context and rebuild the
        // active Σ from scratch below.
        patch_failed = true;
        cache_.clear();
      }
    }
    if (patch_failed) {
      stats = ApplyStats{};
      stats.tuples_inserted = static_cast<int>(delta.inserts.size());
      stats.tuples_updated = static_cast<int>(delta.updates.size());
      stats.tuples_deleted = static_cast<int>(delta.deletes.size());
      std::shared_ptr<ContextBundle> fresh =
          BundleFor(active_->sigma);  // fresh over the mutated data
      {
        // CachedContexts reads active_ under mu_; publish likewise.
        std::lock_guard<std::mutex> lock(*mu_);
        active_ = std::move(fresh);
      }
      stats.contexts_patched = 1;
      stats.groups_changed = active_->context->index().size();
    }
    ++data_version_;
    // Deltas grow contexts in place (bundle->bytes was just refreshed), so
    // the byte bound must be re-enforced here, not only on SetFds — an
    // append-heavy tenant would otherwise outgrow it unchecked.
    EvictIfNeeded();
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
  return CheckedTauFromRelative(req.tau_r, RootDeltaPLocked());
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
  // opts.exec stays serial: SessionOptions::exec parallelizes ACROSS
  // batched requests (and shards context builds), never inside one
  // search — the same composition rule exec::RunRepairs applies to its jobs.
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
        RunRepair(*active_->context, *encoded_, *tau, opts);
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
        return exec::RunRepairs(*active_->context, *encoded_, jobs, pool());
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
    probe.result = ModifyFds(*active_->context, *tau, SearchOptions(req));
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
        return exec::RunSearches(*active_->context, jobs, pool());
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
    return FindRepairsFds(*active_->context, tau_lo, tau_hi, opts);
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
  return RootDeltaPLocked();
}

const FDSet& Session::fds() const { return active_->sigma; }

const FdSearchContext& Session::context() const { return *active_->context; }

const WeightFunction& Session::weights() const { return *active_->weights; }

uint64_t Session::ContextFingerprint() const {
  std::shared_lock<std::shared_mutex> snapshot(*state_mu_);
  return active_fingerprint_;
}

ContextCacheStats Session::CachedContexts() const {
  std::lock_guard<std::mutex> lock(*mu_);
  ContextCacheStats stats;
  for (const auto& [fp, bucket] : cache_) {
    for (const std::shared_ptr<ContextBundle>& bundle : bucket) {
      CachedContextInfo info;
      info.fingerprint = fp;
      info.active = bundle.get() == active_.get();
      info.hits = bundle->hits;
      info.age = use_clock_ - bundle->last_used;
      info.edges = bundle->edges;
      info.bytes_estimate = bundle->bytes;
      stats.bytes_estimate += bundle->bytes;
      stats.contexts.push_back(info);
      ++stats.cached;
    }
  }
  stats.hits = cache_hits_;
  stats.misses = cache_misses_;
  stats.evictions = cache_evictions_;
  return stats;
}

}  // namespace retrust
