#include "src/service/tenant_registry.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

namespace retrust::service {

SessionOptions TenantRegistry::WithPool(
    std::optional<SessionOptions> opts) const {
  SessionOptions resolved = opts.has_value() ? std::move(*opts) : defaults_;
  resolved.shared_pool = shared_pool_;
  return resolved;
}

Status TenantRegistry::Add(const std::string& name, Instance data,
                           const std::vector<std::string>& fd_texts,
                           std::optional<SessionOptions> opts) {
  {
    // Reject duplicates before paying for the Session build; the
    // post-build try_emplace still settles a registration race.
    std::lock_guard<std::mutex> lock(mu_);
    if (tenants_.count(name) != 0) {
      return Status::Error(StatusCode::kInvalidArgument,
                           "tenant '" + name + "' already registered");
    }
  }
  Result<Session> session =
      Session::Open(std::move(data), fd_texts, WithPool(std::move(opts)));
  if (!session.ok()) return session.status();
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = tenants_.try_emplace(name);
  if (!inserted) {
    return Status::Error(StatusCode::kInvalidArgument,
                         "tenant '" + name + "' already registered");
  }
  it->second.session = std::make_shared<Session>(std::move(*session));
  it->second.spec_version = it->second.session->DataVersion();
  it->second.last_used = ++use_clock_;
  it->second.bytes = it->second.session->BytesEstimate();
  return Status::Ok();
}

Status TenantRegistry::AddCsv(const std::string& name, std::string csv_path,
                              std::vector<std::string> fd_texts,
                              std::optional<SessionOptions> opts) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = tenants_.try_emplace(name);
  if (!inserted) {
    return Status::Error(StatusCode::kInvalidArgument,
                         "tenant '" + name + "' already registered");
  }
  it->second.csv_path = std::move(csv_path);
  it->second.fd_texts = std::move(fd_texts);
  it->second.opts = WithPool(std::move(opts));
  return Status::Ok();
}

Status TenantRegistry::AddSnapshot(const std::string& name,
                                   std::string snapshot_path,
                                   std::optional<SessionOptions> opts) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = tenants_.try_emplace(name);
  if (!inserted) {
    return Status::Error(StatusCode::kInvalidArgument,
                         "tenant '" + name + "' already registered");
  }
  it->second.snapshot_path = std::move(snapshot_path);
  it->second.opts = WithPool(std::move(opts));
  return Status::Ok();
}

bool TenantRegistry::Contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return tenants_.count(name) != 0;
}

std::vector<std::string> TenantRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& [name, tenant] : tenants_) names.push_back(name);
  return names;
}

Result<std::shared_ptr<Session>> TenantRegistry::OpenFromSpec(Tenant* tenant) {
  // Snapshot wins over CSV: when both are set the snapshot is the newer
  // state (the registry only records one via SaveSnapshot/auto-save).
  Result<Session> session =
      !tenant->snapshot_path.empty()
          ? Session::OpenSnapshot(tenant->snapshot_path, tenant->opts)
          : Session::OpenCsv(tenant->csv_path, tenant->fd_texts,
                             tenant->opts);
  if (!session.ok()) return session.status();  // spec stays; next Get retries
  auto shared = std::make_shared<Session>(std::move(*session));
  std::lock_guard<std::mutex> lock(mu_);
  tenant->session = shared;
  tenant->spec_version = shared->DataVersion();
  tenant->last_used = ++use_clock_;
  tenant->bytes = shared->BytesEstimate();
  return shared;
}

Result<std::shared_ptr<Session>> TenantRegistry::Get(const std::string& name) {
  Tenant* tenant = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tenants_.find(name);
    if (it == tenants_.end()) {
      return Status::Error(StatusCode::kInvalidArgument,
                           "unknown tenant '" + name + "'");
    }
    if (it->second.session != nullptr) {
      it->second.last_used = ++use_clock_;
      return it->second.session;
    }
    tenant = &it->second;  // stable: tenants are never erased
  }
  if (tenant->csv_path.empty() && tenant->snapshot_path.empty()) {
    // An eager tenant can only reach here unloaded with no spec — which
    // Unload refuses to produce; this guards registry bugs, not users.
    return Status::Error(StatusCode::kInternal,
                         "tenant '" + name + "' has no reload spec");
  }
  // Lazy open under the tenant's own mutex, so a slow CSV read blocks only
  // requests for THIS tenant. The double-check covers the loser of a race.
  std::shared_ptr<Session> shared;
  {
    std::lock_guard<std::mutex> open_lock(*tenant->open_mu);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (tenant->session != nullptr) {
        tenant->last_used = ++use_clock_;
        return tenant->session;
      }
    }
    Result<std::shared_ptr<Session>> opened = OpenFromSpec(tenant);
    if (!opened.ok()) return opened;
    shared = std::move(*opened);
  }
  // Budget enforcement happens outside this tenant's mutex (Unload takes
  // the victim's); the fresh tenant itself is exempt this round.
  EnforceBudget(name);
  return shared;
}

Status TenantRegistry::SaveSnapshot(const std::string& name,
                                    const std::string& path) {
  Result<std::shared_ptr<Session>> session = Get(name);
  if (!session.ok()) return session.status();
  Status saved = (*session)->SaveSnapshot(path);
  if (!saved.ok()) return saved;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    return Status::Error(StatusCode::kInternal,
                         "tenant '" + name + "' vanished during save");
  }
  it->second.snapshot_path = path;
  it->second.spec_version = (*session)->DataVersion();
  return Status::Ok();
}

Status TenantRegistry::Unload(const std::string& name, int tolerated_pins) {
  // A just-finished request's worker may still hold its shared_ptr for a
  // few microseconds after the reply; brief bounded retries make an
  // explicit unload deterministic instead of spuriously "busy".
  return UnloadImpl(name, tolerated_pins, /*busy_retries=*/50);
}

Status TenantRegistry::UnloadImpl(const std::string& name, int tolerated_pins,
                                  int busy_retries) {
  Tenant* tenant = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tenants_.find(name);
    if (it == tenants_.end()) {
      return Status::Error(StatusCode::kInvalidArgument,
                           "unknown tenant '" + name + "'");
    }
    tenant = &it->second;
  }
  // The tenant mutex excludes a concurrent lazy open/reload while we
  // decide; executing requests are not excluded — they hold the session
  // shared_ptr, which the busy check below observes.
  std::lock_guard<std::mutex> open_lock(*tenant->open_mu);
  std::shared_ptr<Session> session;
  bool has_spec = false;
  uint64_t spec_version = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    session = tenant->session;
    has_spec = !tenant->csv_path.empty() || !tenant->snapshot_path.empty();
    spec_version = tenant->spec_version;
  }
  if (session == nullptr) return Status::Ok();  // already unloaded
  if (!has_spec && snapshot_dir_.empty()) {
    return Status::Error(
        StatusCode::kInvalidArgument,
        "tenant '" + name +
            "' has no reload spec (eager tenant): save a snapshot first");
  }
  const bool dirty = session->DataVersion() != spec_version || !has_spec;
  if (dirty) {
    if (snapshot_dir_.empty()) {
      return Status::Error(
          StatusCode::kInvalidArgument,
          "tenant '" + name +
              "' has deltas its reload spec cannot reproduce: save a "
              "snapshot first (or configure a snapshot_dir)");
    }
    const std::string path = snapshot_dir_ + "/" + name + ".snap";
    Status saved = session->SaveSnapshot(path);
    if (!saved.ok()) return saved;
    std::lock_guard<std::mutex> lock(mu_);
    tenant->snapshot_path = path;
    tenant->spec_version = session->DataVersion();
  }
  // Busy check at the moment of release: the registry's pointer plus our
  // local copy account for 2, `tolerated_pins` covers references the
  // caller knowingly holds; anything above means an in-flight request
  // (Server::WorkerLoop holds the session while executing).
  const long allowed = 2 + tolerated_pins;
  for (int attempt = 0;; ++attempt) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (tenant->session.use_count() <= allowed) {
        tenant->session.reset();
        tenant->bytes = 0;
        return Status::Ok();
      }
    }
    if (attempt >= busy_retries) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return Status::Error(StatusCode::kOverloaded,
                       "tenant '" + name +
                           "' has requests executing; retry when idle");
}

void TenantRegistry::EnforceBudget(const std::string& keep) {
  if (max_loaded_bytes_ == 0) return;
  std::vector<std::string> tried;
  while (true) {
    std::string victim;
    {
      std::lock_guard<std::mutex> lock(mu_);
      size_t total = 0;
      for (const auto& [n, t] : tenants_) total += t.bytes;
      if (total <= max_loaded_bytes_) return;
      uint64_t victim_age = 0;
      for (const auto& [n, t] : tenants_) {
        if (t.session == nullptr || n == keep) continue;
        if (std::find(tried.begin(), tried.end(), n) != tried.end()) continue;
        // Skip visibly busy tenants (an executing request holds a copy);
        // Unload re-checks at release time anyway.
        if (t.session.use_count() > 1) continue;
        if (victim.empty() || t.last_used < victim_age) {
          victim = n;
          victim_age = t.last_used;
        }
      }
      if (victim.empty()) return;  // nothing idle left to shed
    }
    tried.push_back(victim);
    // Failure (busy race, dirty without snapshot_dir, save error) just
    // moves on to the next candidate; the budget is best-effort, never
    // worth failing (or stalling) a request over — hence zero busy
    // retries here.
    (void)UnloadImpl(victim, /*tolerated_pins=*/0, /*busy_retries=*/0);
  }
}

Result<TenantStats> TenantRegistry::StatsFor(const std::string& name) const {
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tenants_.find(name);
    if (it == tenants_.end()) {
      return Status::Error(StatusCode::kInvalidArgument,
                           "unknown tenant '" + name + "'");
    }
    session = it->second.session;
  }
  TenantStats stats;
  stats.name = name;
  if (session != nullptr) {
    stats.loaded = true;
    stats.data_version = session->DataVersion();
    stats.root_delta_p = session->RootDeltaP();
    stats.num_tuples = session->NumTuples();
    stats.bytes_estimate = session->BytesEstimate();
  }
  return stats;
}

size_t TenantRegistry::LoadedBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const auto& [name, tenant] : tenants_) total += tenant.bytes;
  return total;
}

}  // namespace retrust::service
