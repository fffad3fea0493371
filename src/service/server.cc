#include "src/service/server.h"

#include <algorithm>
#include <utility>

namespace retrust::service {

namespace {

AdmissionController::Options AdmissionOptions(const ServerOptions& opts,
                                              QuotaManager* quota) {
  AdmissionController::Options a;
  a.queue_capacity = opts.queue_capacity;
  a.per_tenant_inflight = opts.per_tenant_inflight;
  a.workers = opts.workers < 1 ? 1 : opts.workers;
  a.quota = quota;
  return a;
}

/// Flight-record status label of a type-erased reply: a Result carries its
/// own status, a sweep reply is labelled by its first non-ok entry.
template <typename X>
const char* ReplyStatusLabel(const Result<X>& reply) {
  return reply.ok() ? "ok" : StatusCodeName(reply.status().code());
}

template <typename X>
const char* ReplyStatusLabel(const std::vector<Result<X>>& replies) {
  for (const Result<X>& reply : replies) {
    if (!reply.ok()) return StatusCodeName(reply.status().code());
  }
  return "ok";
}

}  // namespace

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)),
      session_pool_(opts_.session_threads > 1
                        ? std::make_unique<exec::ThreadPool>(
                              opts_.session_threads)
                        : nullptr),
      tenants_(opts_.session_defaults, session_pool_.get(),
               opts_.snapshot_dir, opts_.max_loaded_tenant_bytes),
      quota_(opts_.default_quota, opts_.quota_clock),
      admission_(AdmissionOptions(opts_, &quota_)),
      queue_(&admission_),
      worker_pool_(std::make_unique<exec::ThreadPool>(
          opts_.workers < 1 ? 1 : opts_.workers)) {
  if (opts_.observability) {
    metrics_ = opts_.metrics != nullptr ? opts_.metrics
                                        : &obs::MetricsRegistry::Global();
    recorder_ =
        std::make_unique<obs::FlightRecorder>(opts_.flight_recorder_capacity);
    slow_log_ = std::make_unique<obs::SlowRequestLog>(
        opts_.slow_request_seconds, /*min_interval_seconds=*/1.0);
    metrics_probe_ = metrics_->RegisterProbe(
        [this](obs::Collector& out) { CollectMetrics(out); });
  }
  if (opts_.start_paused) queue_.Pause();
  const int workers = opts_.workers < 1 ? 1 : opts_.workers;
  for (int i = 0; i < workers; ++i) {
    worker_pool_->Submit([this] { WorkerLoop(); });
  }
}

Server::~Server() { Stop(); }

Status Server::LoadTenant(const std::string& name, Instance data,
                          const std::vector<std::string>& fd_texts,
                          std::optional<SessionOptions> opts) {
  return tenants_.Add(name, std::move(data), fd_texts, std::move(opts));
}

Status Server::LoadCsvTenant(const std::string& name, std::string csv_path,
                             std::vector<std::string> fd_texts,
                             std::optional<SessionOptions> opts) {
  return tenants_.AddCsv(name, std::move(csv_path), std::move(fd_texts),
                         std::move(opts));
}

Status Server::LoadSnapshotTenant(const std::string& name,
                                  std::string snapshot_path,
                                  std::optional<SessionOptions> opts) {
  return tenants_.AddSnapshot(name, std::move(snapshot_path),
                              std::move(opts));
}

void Server::Pause() { queue_.Pause(); }

void Server::Resume() { queue_.Resume(); }

void Server::Stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  queue_.Shutdown(Status::Error(StatusCode::kCancelled, "server stopped"));
  {
    // Courtesy cancel for in-flight work so shutdown is prompt; the
    // cooperative token means they finish their current state cleanly.
    std::lock_guard<std::mutex> lock(stats_mu_);
    for (auto& [id, req] : live_) req->cancel.Cancel();
  }
  worker_pool_.reset();  // joins: in-flight requests drain first
}

template <typename T>
uint64_t Server::SubmitAsync(const std::string& tenant, const char* verb,
                             bool is_write, double deadline_seconds,
                             std::shared_ptr<obs::RequestTrace> trace,
                             std::function<T(Session&, PendingRequest&)> run,
                             std::function<T(const Status&)> on_fail,
                             std::function<void(T)> done) {
  const uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  ++submitted_;

  auto reject = [&](Status status) { done(on_fail(status)); };
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    if (stopped_) {
      reject(Status::Error(StatusCode::kCancelled, "server stopped"));
      return id;
    }
  }
  // Unknown tenants fail fast, before they can occupy a queue slot or
  // grow the fairness ring.
  if (!tenants_.Contains(tenant)) {
    reject(Status::Error(StatusCode::kInvalidArgument,
                         "unknown tenant '" + tenant + "'"));
    return id;
  }

  auto req = std::make_shared<PendingRequest>();
  req->id = id;
  req->tenant = tenant;
  req->is_write = is_write;
  req->verb = verb;
  req->trace = std::move(trace);
  req->deadline_seconds = deadline_seconds;
  req->submitted = std::chrono::steady_clock::now();
  // Both wrappers finish ALL bookkeeping (live_ removal, counters,
  // latency) BEFORE invoking the completion, so a caller that wakes from
  // its callback (or future.get()) observes consistent stats — no "reply
  // arrived but completed counter still says 0" window.
  req->execute = [this, done, run = std::move(run), on_fail](
                     Session& session, PendingRequest& pending) {
    const auto exec_start = std::chrono::steady_clock::now();
    const double queue_wait = pending.QueueWaitSeconds();
    if (pending.trace != nullptr) {
      obs::TraceSpan& root = pending.trace->root;
      root.StartChild("queue_wait")->set_seconds(queue_wait);
      root.StartChild("tenant_open")
          ->set_seconds(std::chrono::duration<double>(exec_start -
                                                      pending.dispatched)
                            .count());
      pending.trace->service = root.StartChild("service");
    }
    T reply = [&]() -> T {
      try {
        return run(session, pending);
      } catch (const std::exception& e) {
        return on_fail(Status::Error(StatusCode::kInternal, e.what()));
      }
    }();
    if (pending.trace != nullptr) pending.trace->service->Finish();
    // Two different clocks on purpose: the admission EWMA needs pure
    // SERVICE time (its wait estimate multiplies by queue depth — feeding
    // it end-to-end latency would double-count the queue and shed
    // feasible requests), while the client-facing histogram reports
    // end-to-end submit -> reply latency.
    const double service_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      exec_start)
            .count();
    RecordCompleted(pending, queue_wait, service_seconds);
    admission_.ObserveLatency(service_seconds);
    Retire(pending, ReplyStatusLabel(reply), queue_wait, service_seconds);
    done(std::move(reply));
  };
  req->fail = [this, done, self = req.get(),
               on_fail = std::move(on_fail)](const Status& status) {
    Retire(*self, StatusCodeName(status.code()), /*queue_wait=*/0.0,
           /*service_seconds=*/0.0);
    done(on_fail(status));
  };

  // Live BEFORE Push: a worker may pop and finish the request before Push
  // returns, and Cancel must be able to find it the moment the caller
  // holds the id.
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    live_[req->id] = req;
  }
  Status admitted = queue_.Push(req);
  if (!admitted.ok()) req->fail(admitted);  // on_fail was moved into it
  return id;
}

void Server::WorkerLoop() {
  while (std::shared_ptr<PendingRequest> req = queue_.Pop()) {
    req->dispatched = std::chrono::steady_clock::now();
    // The terminal wrapper (execute or fail) releases the lane slot just
    // before completing the future; the request's session work is done by
    // then, so the apply_delta barrier still covers the whole execution.
    req->release = [this, r = req.get()] { queue_.OnFinished(*r); };
    if (req->cancel.Cancelled()) {
      // Cancelled while queued: completed WITHOUT touching a Session — no
      // pool work is ever leaked for it.
      ++cancelled_;
      req->fail(
          Status::Error(StatusCode::kCancelled, "cancelled while queued"));
    } else if (req->DeadlineExpired()) {
      ++expired_;
      req->fail(Status::Error(
          StatusCode::kBudgetExceeded,
          "deadline expired after " + std::to_string(req->ElapsedSeconds()) +
              "s in queue"));
    } else if (Result<std::shared_ptr<Session>> session =
                   tenants_.Get(req->tenant);
               session.ok()) {
      req->execute(**session, *req);
    } else {
      // A failed lazy open is still a dispatched-and-replied request, so
      // the admitted-request counters partition cleanly (stats.h). Its
      // verb never started: no service time.
      RecordCompleted(*req, req->QueueWaitSeconds(), /*service_seconds=*/0.0);
      req->fail(session.status());
    }
  }
}

bool Server::Cancel(uint64_t id) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  auto it = live_.find(id);
  if (it == live_.end()) return false;
  it->second->cancel.Cancel();
  return true;
}

ServerStats Server::Stats() const {
  ServerStats stats;
  stats.queue_depth = queue_.Depth();
  stats.in_flight = queue_.InFlight();
  stats.workers = opts_.workers < 1 ? 1 : opts_.workers;
  stats.submitted = submitted_.load();
  stats.cancelled = cancelled_.load();
  stats.expired_in_queue = expired_.load();
  const AdmissionController::RejectionCounts rejected =
      admission_.Rejections();
  stats.rejected_queue_full = rejected.queue_full;
  stats.rejected_tenant_cap = rejected.tenant_cap;
  stats.rejected_deadline = rejected.deadline;
  stats.rejected_quota = rejected.quota;
  for (const PolicySearchAgg& agg : policy_search_) {
    stats.search_expansions += agg.expansions.load(std::memory_order_relaxed);
    stats.search_lb_prunes += agg.lb_prunes.load(std::memory_order_relaxed);
    stats.search_incumbent_improvements +=
        agg.incumbents.load(std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats.completed = latency_.count();
    stats.p50_latency_seconds = latency_.Percentile(0.5);
    stats.p99_latency_seconds = latency_.Percentile(0.99);
    stats.p50_queue_wait_seconds = queue_wait_.Percentile(0.5);
    stats.p99_queue_wait_seconds = queue_wait_.Percentile(0.99);
    stats.p50_service_seconds = service_.Percentile(0.5);
    stats.p99_service_seconds = service_.Percentile(0.99);
  }
  return stats;
}

void Server::RecordSearchStats(const SearchStats& stats,
                               search::SearchPolicy policy,
                               PendingRequest* pending) {
  PolicySearchAgg& agg = policy_search_.at(static_cast<size_t>(policy));
  agg.requests.fetch_add(1, std::memory_order_relaxed);
  agg.expansions.fetch_add(static_cast<uint64_t>(stats.expansions),
                           std::memory_order_relaxed);
  agg.visited.fetch_add(static_cast<uint64_t>(stats.states_visited),
                        std::memory_order_relaxed);
  agg.lb_prunes.fetch_add(static_cast<uint64_t>(stats.lb_prunes),
                          std::memory_order_relaxed);
  agg.incumbents.fetch_add(
      static_cast<uint64_t>(stats.incumbent_improvements),
      std::memory_order_relaxed);
  if (pending != nullptr) {
    // Accumulate (a sweep calls this once per batch entry) for the
    // request's flight record.
    pending->search_states_visited += stats.states_visited;
    pending->search_expansions += static_cast<uint64_t>(stats.expansions);
  }
}

void Server::RecordCompleted(const PendingRequest& req, double queue_wait,
                             double service_seconds) {
  const double latency = req.ElapsedSeconds();
  std::lock_guard<std::mutex> lock(stats_mu_);
  latency_.Record(latency);
  queue_wait_.Record(queue_wait);
  service_.Record(service_seconds);
  ++completed_by_tenant_[req.tenant];
}

void Server::Retire(PendingRequest& req, const char* status_label,
                    double queue_wait, double service_seconds) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    live_.erase(req.id);
  }
  if (recorder_ != nullptr) {
    obs::FlightRecord record;
    record.id = req.id;
    record.tenant = req.tenant;
    record.verb = req.verb;
    record.status = status_label;
    record.queue_wait_seconds = queue_wait;
    record.service_seconds = service_seconds;
    record.total_seconds = req.ElapsedSeconds();
    record.search_states_visited = req.search_states_visited;
    record.search_expansions = req.search_expansions;
    record.traced = req.trace != nullptr;
    slow_log_->MaybeLog(record, req.trace.get());
    recorder_->Record(std::move(record));
  }
  if (req.release) {
    std::function<void()> release = std::move(req.release);
    req.release = nullptr;
    release();
  }
}

std::vector<obs::FlightRecord> Server::RecentRequests(size_t limit) const {
  if (recorder_ == nullptr) return {};
  return recorder_->Recent(limit);
}

uint64_t Server::SlowRequestsSeen() const {
  return slow_log_ != nullptr ? slow_log_->SlowSeen() : 0;
}

void Server::CollectMetrics(obs::Collector& out) const {
  // Request flow, rejections and search totals come from the same Stats()
  // snapshot the `stats` verb serves, so a scrape and a stats reply read
  // the same stores. The probe only samples them, so two servers
  // publishing into one registry never mix counts into a shared Counter.
  const ServerStats stats = Stats();
  out.CounterSample("retrust_requests_submitted_total", {}, stats.submitted);
  out.CounterSample("retrust_requests_completed_total", {}, stats.completed);
  out.CounterSample("retrust_requests_cancelled_total", {}, stats.cancelled);
  out.CounterSample("retrust_requests_expired_total", {},
                    stats.expired_in_queue);
  out.CounterSample("retrust_requests_rejected_total",
                    {{"reason", "queue_full"}}, stats.rejected_queue_full);
  out.CounterSample("retrust_requests_rejected_total",
                    {{"reason", "tenant_cap"}}, stats.rejected_tenant_cap);
  out.CounterSample("retrust_requests_rejected_total",
                    {{"reason", "deadline"}}, stats.rejected_deadline);
  out.CounterSample("retrust_requests_rejected_total", {{"reason", "quota"}},
                    stats.rejected_quota);
  // Every quota denial is an admission rejection with reason "quota".
  out.CounterSample("retrust_quota_denials_total", {}, stats.rejected_quota);
  out.Gauge("retrust_queue_depth", {}, static_cast<double>(stats.queue_depth));
  out.Gauge("retrust_requests_in_flight", {},
            static_cast<double>(stats.in_flight));
  out.Gauge("retrust_admission_latency_ewma_seconds", {},
            admission_.LatencyEwmaSeconds());

  // Exec pools. The request workers park inside WorkerLoop for the whole
  // process lifetime, so their pool's busy count is meaningless — request
  // concurrency is the queue's in-flight gauge above. The shared session
  // pool runs real short tasks and its utilization is genuine.
  out.Gauge("retrust_request_workers", {},
            static_cast<double>(stats.workers));
  if (session_pool_ != nullptr) {
    const exec::PoolStats pool = session_pool_->GetStats();
    out.Gauge("retrust_session_pool_threads", {},
              static_cast<double>(pool.threads));
    out.Gauge("retrust_session_pool_busy", {},
              static_cast<double>(pool.busy));
    out.Gauge("retrust_session_pool_queued", {},
              static_cast<double>(pool.queued));
    out.CounterSample("retrust_session_pool_tasks_total", {}, pool.executed);
  }

  // Latency split, as quantile series.
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    out.Histogram("retrust_request_latency_seconds", {}, latency_);
    out.Histogram("retrust_queue_wait_seconds", {}, queue_wait_);
    out.Histogram("retrust_service_seconds", {}, service_);
  }

  // Search engine aggregates, total and per policy.
  out.CounterSample("retrust_search_expansions_total", {},
                    stats.search_expansions);
  out.CounterSample("retrust_search_lb_prunes_total", {},
                    stats.search_lb_prunes);
  out.CounterSample("retrust_search_incumbents_total", {},
                    stats.search_incumbent_improvements);
  for (size_t i = 0; i < policy_search_.size(); ++i) {
    const PolicySearchAgg& agg = policy_search_[i];
    const uint64_t requests = agg.requests.load(std::memory_order_relaxed);
    if (requests == 0) continue;  // don't mint series for unused policies
    const obs::Labels labels = {
        {"policy", search::PolicyName(static_cast<search::SearchPolicy>(i))}};
    out.CounterSample("retrust_search_requests_total", labels, requests);
    out.CounterSample("retrust_search_policy_expansions_total", labels,
                      agg.expansions.load(std::memory_order_relaxed));
    out.CounterSample("retrust_search_policy_visited_total", labels,
                      agg.visited.load(std::memory_order_relaxed));
  }

  // Session layer: loaded tenants and their resident-byte estimate (the
  // registry's byte-budget total; StatsFor never forces a lazy open).
  int registered = 0, loaded = 0;
  for (const std::string& name : tenants_.Names()) {
    Result<TenantStats> tenant = tenants_.StatsFor(name);
    if (!tenant.ok()) continue;
    ++registered;
    if (tenant->loaded) ++loaded;
  }
  out.Gauge("retrust_tenants_registered", {},
            static_cast<double>(registered));
  out.Gauge("retrust_tenants_loaded", {}, static_cast<double>(loaded));
  out.Gauge("retrust_loaded_tenant_bytes", {},
            static_cast<double>(tenants_.LoadedBytes()));

  // Flight recorder / slow log (non-null whenever this probe exists).
  out.CounterSample("retrust_flight_records_total", {},
                    recorder_->TotalRecorded());
  out.CounterSample("retrust_slow_requests_total", {}, slow_log_->SlowSeen());
}

Result<TenantStats> Server::TenantStatsFor(const std::string& name) const {
  Result<TenantStats> stats = tenants_.StatsFor(name);
  if (!stats.ok()) return stats;
  auto [queued, executing] = queue_.LaneLoad(name);
  stats->queued = queued;
  stats->executing = executing;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    auto it = completed_by_tenant_.find(name);
    stats->completed = it == completed_by_tenant_.end() ? 0 : it->second;
  }
  return stats;
}

// ---------------------------------------------------------------- Client

namespace {

/// The common reply-from-status factory for Result<T> verbs.
template <typename T>
std::function<Result<T>(const Status&)> FailAsResult() {
  return [](const Status& status) { return Result<T>(status); };
}

Status UserCancelTokenError() {
  return Status::Error(
      StatusCode::kInvalidArgument,
      "RepairRequest::cancel must be null: service requests are "
      "cancelled via Client::Cancel(id)");
}

}  // namespace

namespace {

/// The sync verbs are thin wrappers over the async ones: park the reply in
/// a promise.
template <typename T>
std::pair<Submitted<T>, std::function<void(T)>> PromisedDone() {
  auto promise = std::make_shared<std::promise<T>>();
  Submitted<T> out;
  out.future = promise->get_future();
  return {std::move(out),
          [promise](T reply) { promise->set_value(std::move(reply)); }};
}

}  // namespace

uint64_t Client::RepairAsync(const std::string& tenant,
                             const RepairRequest& req,
                             std::function<void(Result<RepairResponse>)> done) {
  if (req.cancel != nullptr) {
    done(Result<RepairResponse>(UserCancelTokenError()));
    return 0;
  }
  return server_->SubmitAsync<Result<RepairResponse>>(
      tenant, "repair", /*is_write=*/false, req.deadline_seconds, req.trace,
      [req, server = server_](Session& session, PendingRequest& pending) {
        RepairRequest r = req;
        r.deadline_seconds = pending.RemainingDeadline();
        r.cancel = &pending.cancel;
        Result<RepairResponse> response = session.Repair(r);
        if (response.ok()) {
          server->RecordSearchStats(response->repair.stats, req.policy,
                                    &pending);
        }
        return response;
      },
      FailAsResult<RepairResponse>(), std::move(done));
}

uint64_t Client::SearchAsync(const std::string& tenant,
                             const RepairRequest& req,
                             std::function<void(Result<SearchProbe>)> done) {
  if (req.cancel != nullptr) {
    done(Result<SearchProbe>(UserCancelTokenError()));
    return 0;
  }
  return server_->SubmitAsync<Result<SearchProbe>>(
      tenant, "search", /*is_write=*/false, req.deadline_seconds, req.trace,
      [req, server = server_](Session& session, PendingRequest& pending) {
        RepairRequest r = req;
        r.deadline_seconds = pending.RemainingDeadline();
        r.cancel = &pending.cancel;
        Result<SearchProbe> probe = session.Search(r);
        if (probe.ok()) {
          server->RecordSearchStats(probe->result.stats, req.policy,
                                    &pending);
        }
        return probe;
      },
      FailAsResult<SearchProbe>(), std::move(done));
}

uint64_t Client::SweepAsync(
    const std::string& tenant, std::vector<RepairRequest> reqs,
    std::function<void(std::vector<Result<RepairResponse>>)> done) {
  const size_t n = reqs.size();
  return server_->SubmitAsync<std::vector<Result<RepairResponse>>>(
      tenant, "sweep", /*is_write=*/false, /*deadline_seconds=*/0.0,
      /*trace=*/nullptr,
      [reqs = std::move(reqs), server = server_](Session& session,
                                                 PendingRequest& pending) {
        std::vector<RepairRequest> wired = reqs;
        for (RepairRequest& r : wired) r.cancel = &pending.cancel;
        std::vector<Result<RepairResponse>> replies =
            session.RepairMany(wired);
        for (size_t i = 0; i < replies.size(); ++i) {
          if (replies[i].ok()) {
            server->RecordSearchStats(replies[i]->repair.stats,
                                      wired[i].policy, &pending);
          }
        }
        return replies;
      },
      [n](const Status& status) {
        std::vector<Result<RepairResponse>> replies;
        replies.reserve(n);
        for (size_t i = 0; i < n; ++i) replies.emplace_back(status);
        return replies;
      },
      std::move(done));
}

uint64_t Client::ApplyAsync(const std::string& tenant, DeltaBatch delta,
                            std::function<void(Result<ApplyStats>)> done) {
  return server_->SubmitAsync<Result<ApplyStats>>(
      tenant, "apply_delta", /*is_write=*/true, /*deadline_seconds=*/0.0,
      /*trace=*/nullptr,
      [delta = std::move(delta)](Session& session, PendingRequest&) {
        return session.Apply(delta);
      },
      FailAsResult<ApplyStats>(), std::move(done));
}

uint64_t Client::SaveSnapshotAsync(
    const std::string& tenant, std::string path,
    std::function<void(Result<std::string>)> done) {
  // A WRITE so the lane barrier quiesces the tenant first: the file is a
  // consistent cut between everything submitted before and after. The
  // registry call (not a bare Session::SaveSnapshot) also records the
  // snapshot as the tenant's reload spec.
  return server_->SubmitAsync<Result<std::string>>(
      tenant, "save_snapshot", /*is_write=*/true, /*deadline_seconds=*/0.0,
      /*trace=*/nullptr,
      [server = server_, tenant, path = std::move(path)](
          Session&, PendingRequest&) -> Result<std::string> {
        Status saved = server->tenants_.SaveSnapshot(tenant, path);
        if (!saved.ok()) return saved;
        return path;
      },
      FailAsResult<std::string>(), std::move(done));
}

uint64_t Client::UnloadTenantAsync(const std::string& tenant,
                                   std::function<void(Result<bool>)> done) {
  // Also a WRITE: earlier requests drain first, later ones queue behind
  // and trigger the transparent reload. tolerated_pins = 1 because the
  // worker loop executing THIS verb holds the session it resolved.
  return server_->SubmitAsync<Result<bool>>(
      tenant, "unload_tenant", /*is_write=*/true, /*deadline_seconds=*/0.0,
      /*trace=*/nullptr,
      [server = server_, tenant](Session&, PendingRequest&) -> Result<bool> {
        Status unloaded = server->tenants_.Unload(tenant,
                                                  /*tolerated_pins=*/1);
        if (!unloaded.ok()) return unloaded;
        return true;
      },
      FailAsResult<bool>(), std::move(done));
}

Submitted<Result<RepairResponse>> Client::Repair(const std::string& tenant,
                                                 const RepairRequest& req) {
  auto [out, done] = PromisedDone<Result<RepairResponse>>();
  out.id = RepairAsync(tenant, req, std::move(done));
  return std::move(out);
}

Submitted<Result<SearchProbe>> Client::Search(const std::string& tenant,
                                              const RepairRequest& req) {
  auto [out, done] = PromisedDone<Result<SearchProbe>>();
  out.id = SearchAsync(tenant, req, std::move(done));
  return std::move(out);
}

Submitted<std::vector<Result<RepairResponse>>> Client::Sweep(
    const std::string& tenant, std::vector<RepairRequest> reqs) {
  auto [out, done] = PromisedDone<std::vector<Result<RepairResponse>>>();
  out.id = SweepAsync(tenant, std::move(reqs), std::move(done));
  return std::move(out);
}

Submitted<Result<ApplyStats>> Client::Apply(const std::string& tenant,
                                            DeltaBatch delta) {
  auto [out, done] = PromisedDone<Result<ApplyStats>>();
  out.id = ApplyAsync(tenant, std::move(delta), std::move(done));
  return std::move(out);
}

bool Client::Cancel(uint64_t id) { return server_->Cancel(id); }

ServerStats Client::Stats() const { return server_->Stats(); }

}  // namespace retrust::service
