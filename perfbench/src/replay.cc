#include "replay.h"

#include <filesystem>
#include <map>
#include <memory>
#include <optional>

#include "src/api/session.h"
#include "src/fd/difference_set.h"
#include "src/fd/violation_table.h"
#include "src/persist/snapshot.h"
#include "src/relational/csv.h"
#include "src/repair/modify_fds.h"
#include "src/repair/repair_data.h"
#include "src/repair/weights.h"
#include "src/service/wire.h"
#include "src/util/rng.h"

namespace perfbench {

namespace svc = retrust::service;
using retrust::Result;
using retrust::Session;

bool Outcome::ok() const {
  const Json* ok = reply.Get("ok");
  return transport_ok && ok != nullptr && ok->is_bool() && ok->AsBool();
}

bool Outcome::refused() const {
  const Json* error = reply.Get("error");
  return transport_ok && error != nullptr && error->is_string() &&
         error->AsString() == retrust::StatusCodeName(retrust::StatusCode::kOverloaded);
}

std::string Normalize(OpKind kind, const Json& reply) {
  const Json* ok = reply.Get("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->AsBool()) {
    const Json* error = reply.Get("error");
    return "error:" + (error != nullptr ? error->Dump() : reply.Dump());
  }
  Json::Object picked;
  switch (kind) {
    case OpKind::kRepair:
      for (const char* key : {"tau", "distc", "delta_p", "sigma_prime",
                              "changed_cells", "termination"}) {
        if (const Json* v = reply.Get(key)) picked[key] = *v;
      }
      return Json(std::move(picked)).Dump();
    case OpKind::kDelta:
      picked = reply.AsObject();
      picked.erase("seconds");
      picked.erase("id");
      return Json(std::move(picked)).Dump();
    default:
      return "ok";
  }
}

std::string Normalize(const Outcome& o) {
  if (!o.transport_ok) return "transport:" + o.transport_error;
  return o.normalized;
}

void LayerTotals::Merge(const LayerTotals& o) {
  partition_s.insert(partition_s.end(), o.partition_s.begin(), o.partition_s.end());
  enumerate_s.insert(enumerate_s.end(), o.enumerate_s.begin(), o.enumerate_s.end());
  group_s.insert(group_s.end(), o.group_s.begin(), o.group_s.end());
  pairs_candidate += o.pairs_candidate;
  pairs_materialized += o.pairs_materialized;
  pairs_counted += o.pairs_counted;
  phases.expand_count += o.phases.expand_count;
  phases.expand_seconds += o.phases.expand_seconds;
  phases.evaluate_count += o.phases.evaluate_count;
  phases.evaluate_seconds += o.phases.evaluate_seconds;
  phases.cover_count += o.phases.cover_count;
  phases.cover_seconds += o.phases.cover_seconds;
  phases.bound_count += o.phases.bound_count;
  phases.bound_seconds += o.phases.bound_seconds;
  searches += o.searches;
  states_visited += o.states_visited;
  expansions += o.expansions;
  heuristic_calls += o.heuristic_calls;
  lb_prunes += o.lb_prunes;
  vc_computations += o.vc_computations;
  vc_memo_hits += o.vc_memo_hits;
  snapshot_bytes += o.snapshot_bytes;
  reuse_ratio.insert(reuse_ratio.end(), o.reuse_ratio.begin(), o.reuse_ratio.end());
  covers_kept += o.covers_kept;
  covers_dropped += o.covers_dropped;
}

namespace {

/// The layer objects built straight from the public functions, alongside
/// the Session. Heap-pinned: the weights and context keep pointers to
/// `encoded`.
struct Standalone {
  retrust::EncodedInstance encoded;
  std::unique_ptr<retrust::DistinctCountWeight> weights;
  std::unique_ptr<retrust::FdSearchContext> context;
};

bool SamePairs(const retrust::DiffSetBuildStats& a,
               const retrust::DiffSetBuildStats& b) {
  return a.pairs_candidate == b.pairs_candidate &&
         a.pairs_owned == b.pairs_owned &&
         a.pairs_materialized == b.pairs_materialized &&
         a.pairs_counted == b.pairs_counted;
}

/// The search schedule is a pure function of (data, Σ, request); how many
/// cover lookups the memo answered depends on what earlier requests left
/// in it, so only the total of computed and memoized covers is compared.
bool SameSearchCounts(const retrust::SearchStats& a,
                      const retrust::SearchStats& b) {
  return a.states_visited == b.states_visited &&
         a.states_generated == b.states_generated &&
         a.expansions == b.expansions &&
         a.heuristic_calls == b.heuristic_calls &&
         a.vc_computations + a.vc_memo_hits == b.vc_computations + b.vc_memo_hits &&
         a.lb_prunes == b.lb_prunes;
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

class TenantReplay {
 public:
  TenantReplay(const TenantData& data, SpanLog* log, int layer_prefix,
               std::string scratch)
      : data_(data), log_(log), layer_prefix_(layer_prefix),
        scratch_(std::move(scratch)) {}

  ReplayResult Run(const std::vector<const Outcome*>& seq) {
    for (size_t i = 0; i < seq.size(); ++i) {
      const Outcome& o = *seq[i];
      if (!o.transport_ok || o.refused()) {
        // Never executed (or lost with its connection): the Session skips
        // it too, so later replies still line up. The workloads are sized
        // so that the server sheds nothing, so a refusal fails the run.
        ++result_.failed;
        Error(i, o.transport_ok ? "refused: " + o.reply.Dump()
                                : "transport error: " + o.transport_error);
        continue;
      }
      std::string want = Expect(o);
      std::string got = Normalize(o);
      if (got != want) {
        ++result_.failed;
        Error(i, "reply " + got.substr(0, 300) + " but the serial Session gives " +
                     want.substr(0, 300));
      }
    }
    return std::move(result_);
  }

 private:
  void Error(size_t index, const std::string& what) {
    result_.errors.push_back(data_.csv_path + " op " + std::to_string(index) +
                             ": " + what);
  }

  std::string Expect(const Outcome& o) {
    const Op& op = *o.op;
    switch (op.kind) {
      case OpKind::kLoad:
        return Open();
      case OpKind::kRepair:
        return Repair(op);
      case OpKind::kDelta:
        return Delta(op);
      case OpKind::kSave:
        return Save(o);
      case OpKind::kUnload:
        return session_ ? "ok" : "error:unloaded before load";
    }
    return "";
  }

  std::string Open() {
    if (session_) return "ok";  // a reload: the Session stays open
    {
      ScopedSpan span(log_, "api.open_csv");
      Result<Session> s = Session::OpenCsv(data_.csv_path, data_.fds);
      if (!s.ok()) return "error:" + s.status().ToString();
      session_.emplace(std::move(*s));
    }
    if (log_ != nullptr) BuildLayers();
    return "ok";
  }

  void BuildLayers() {
    auto st = std::make_unique<Standalone>();
    retrust::Instance inst;
    {
      ScopedSpan span(log_, "relational.csv_read");
      inst = retrust::ReadCsvFile(data_.csv_path);
    }
    {
      ScopedSpan span(log_, "relational.encode");
      st->encoded = retrust::EncodedInstance(inst);
    }
    const retrust::FDSet& sigma = session_->fds();
    retrust::DiffSetBuildStats stats;
    retrust::DifferenceSetIndex index;
    {
      ScopedSpan span(log_, "fd.build_index");
      index = retrust::BuildDifferenceSetIndex(st->encoded, sigma, {},
                                               retrust::DiffSetBuildMode::kBlocked,
                                               &stats);
    }
    {
      ScopedSpan span(log_, "fd.violation_table");
      retrust::ViolationTable table(sigma, index);
      (void)table;
    }
    BuildContext(st.get());
    // Three builds of one index — standalone, the context's, the Session's —
    // must count exactly the same pairs.
    if (!SamePairs(stats, st->context->build_stats()) ||
        !SamePairs(stats, session_->context().build_stats())) {
      Error(0, "difference-set pair counts differ between builds");
    }
    LayerTotals& t = result_.layers;
    t.partition_s.push_back(stats.partition_seconds);
    t.enumerate_s.push_back(stats.enumerate_seconds);
    t.group_s.push_back(stats.group_seconds);
    t.pairs_candidate += stats.pairs_candidate;
    t.pairs_materialized += stats.pairs_materialized;
    t.pairs_counted += stats.pairs_counted;
    standalone_ = std::move(st);
  }

  void BuildContext(Standalone* st) {
    st->weights = std::make_unique<retrust::DistinctCountWeight>(st->encoded);
    ScopedSpan span(log_, "repair.context");
    st->context = std::make_unique<retrust::FdSearchContext>(
        session_->fds(), st->encoded, *st->weights);
  }

  std::string Repair(const Op& op) {
    if (!session_) return "error:repair before load";
    const std::string key = op.request.Dump();
    auto hit = memo_.find(key);
    if (hit != memo_.end()) return hit->second;

    Result<retrust::RepairRequest> req = svc::RepairRequestFromJson(op.request);
    if (!req.ok()) return "error:" + req.status().ToString();

    std::optional<retrust::ModifyFdsResult> search;
    std::optional<retrust::DataRepairResult> materialized;
    if (standalone_ != nullptr && layer_repairs_ < layer_prefix_) {
      ++layer_repairs_;
      const retrust::FdSearchContext& ctx = *standalone_->context;
      Result<int64_t> tau =
          req->tau >= 0 ? Result<int64_t>(req->tau)
                        : retrust::CheckedTauFromRelative(req->tau_r, ctx.RootDeltaP());
      if (tau.ok()) {
        retrust::ModifyFdsOptions opts;
        opts.mode = req->mode;
        opts.policy.policy = req->policy;
        opts.policy.weighting_factor = req->weight;
        opts.policy.initial_upper_bound = req->upper_bound;
        retrust::obs::SearchPhaseStats phases;
        opts.phase_trace = &phases;
        {
          ScopedSpan span(log_, "search.modify_fds");
          search = retrust::ModifyFds(ctx, *tau, opts);
        }
        if (search->repair.has_value()) {
          ScopedSpan span(log_, "repair.materialize");
          retrust::Rng rng(req->seed);
          materialized = retrust::RepairData(standalone_->encoded,
                                             search->repair->sigma_prime, &rng);
        }
        LayerTotals& t = result_.layers;
        t.phases.expand_count += phases.expand_count;
        t.phases.expand_seconds += phases.expand_seconds;
        t.phases.evaluate_count += phases.evaluate_count;
        t.phases.evaluate_seconds += phases.evaluate_seconds;
        t.phases.cover_count += phases.cover_count;
        t.phases.cover_seconds += phases.cover_seconds;
        t.phases.bound_count += phases.bound_count;
        t.phases.bound_seconds += phases.bound_seconds;
        ++t.searches;
        t.states_visited += search->stats.states_visited;
        t.expansions += search->stats.expansions;
        t.heuristic_calls += search->stats.heuristic_calls;
        t.lb_prunes += search->stats.lb_prunes;
        t.vc_computations += search->stats.vc_computations;
        t.vc_memo_hits += search->stats.vc_memo_hits;
      }
    }

    Result<retrust::RepairResponse> response = [&] {
      ScopedSpan span(log_, "api.repair");
      return session_->Repair(*req);
    }();
    std::string want;
    if (response.ok()) {
      Result<Json> round_trip =
          svc::ParseJson(svc::ToJson(*response, session_->schema()).Dump());
      want = Normalize(OpKind::kRepair, *round_trip);
    } else {
      want = Normalize(OpKind::kRepair, svc::ErrorJson(response.status()));
    }
    if (search.has_value()) CheckLayers(*search, materialized, response);
    memo_[key] = want;
    return want;
  }

  void CheckLayers(const retrust::ModifyFdsResult& search,
                   const std::optional<retrust::DataRepairResult>& materialized,
                   const Result<retrust::RepairResponse>& response) {
    if (search.repair.has_value() != response.ok()) {
      Error(0, "ModifyFds and Session::Repair disagree on feasibility");
      return;
    }
    if (!response.ok()) return;
    const retrust::Repair& r = response->repair;
    const retrust::Schema& schema = session_->schema();
    bool same = r.distc == search.repair->distc &&
                r.delta_p == search.repair->delta_p &&
                r.sigma_prime.ToString(schema) ==
                    search.repair->sigma_prime.ToString(schema) &&
                SameSearchCounts(r.stats, search.stats);
    if (same && materialized.has_value()) {
      same = r.changed_cells.size() == materialized->changed_cells.size();
      for (size_t i = 0; same && i < r.changed_cells.size(); ++i) {
        same = r.changed_cells[i].tuple == materialized->changed_cells[i].tuple &&
               r.changed_cells[i].attr == materialized->changed_cells[i].attr;
      }
    }
    if (!same) Error(0, "layer replay (ModifyFds + RepairData) differs from Session::Repair");
  }

  std::string Delta(const Op& op) {
    if (!session_) return "error:delta before load";
    Result<retrust::DeltaBatch> batch =
        svc::DeltaBatchFromJson(op.request, session_->schema());
    if (!batch.ok()) return Normalize(OpKind::kDelta, svc::ErrorJson(batch.status()));
    Result<retrust::ApplyStats> stats = [&] {
      ScopedSpan span(log_, "api.apply");
      return session_->Apply(*batch);
    }();
    memo_.clear();
    standalone_.reset();
    if (!stats.ok()) return Normalize(OpKind::kDelta, svc::ErrorJson(stats.status()));
    if (log_ != nullptr && layer_repairs_ < layer_prefix_) {
      // A fresh context over the post-delta data answers exactly what the
      // Session's delta-patched one does.
      auto st = std::make_unique<Standalone>();
      st->encoded = session_->data();
      BuildContext(st.get());
      standalone_ = std::move(st);
    }
    if (log_ != nullptr) {
      result_.layers.reuse_ratio.push_back(stats->reuse_ratio());
      result_.layers.covers_kept += static_cast<int64_t>(stats->covers_kept);
      result_.layers.covers_dropped += static_cast<int64_t>(stats->covers_dropped);
    }
    Result<Json> round_trip = svc::ParseJson(svc::ToJson(*stats).Dump());
    return Normalize(OpKind::kDelta, *round_trip);
  }

  std::string Save(const Outcome& o) {
    if (!session_) return "error:save before load";
    const std::string path = scratch_ + "-" + std::to_string(saves_++) + ".snap";
    retrust::Status status = [&] {
      ScopedSpan span(log_, "api.save_snapshot");
      return session_->SaveSnapshot(path);
    }();
    if (!status.ok()) return "error:" + status.ToString();
    const uint64_t bytes = FileBytes(path);
    if (o.ok() && bytes != o.snapshot_bytes) {
      Error(0, "server snapshot is " + std::to_string(o.snapshot_bytes) +
                   " bytes, the serial Session's " + std::to_string(bytes));
    }
    if (log_ != nullptr) {
      result_.layers.snapshot_bytes += static_cast<int64_t>(bytes);
      {
        ScopedSpan span(log_, "persist.snapshot_read");
        Result<retrust::persist::SnapshotData> read =
            retrust::persist::ReadSnapshotFile(path);
        if (!read.ok()) Error(0, "ReadSnapshotFile: " + read.status().ToString());
      }
      ScopedSpan span(log_, "api.open_snapshot");
      Result<Session> reopened = Session::OpenSnapshot(path);
      if (!reopened.ok()) Error(0, "OpenSnapshot: " + reopened.status().ToString());
    }
    std::error_code ec;
    std::filesystem::remove(path, ec);
    return "ok";
  }

  const TenantData& data_;
  SpanLog* log_;
  int layer_prefix_;
  std::string scratch_;
  std::optional<Session> session_;
  std::unique_ptr<Standalone> standalone_;
  std::map<std::string, std::string> memo_;
  int layer_repairs_ = 0;
  int saves_ = 0;
  ReplayResult result_;
};

}  // namespace

ReplayResult ReplayTenant(const TenantData& data,
                          const std::vector<const Outcome*>& seq, SpanLog* log,
                          int layer_prefix, const std::string& scratch) {
  TenantReplay replay(data, log, layer_prefix, scratch);
  return replay.Run(seq);
}

}  // namespace perfbench
