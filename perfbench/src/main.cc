// perfbench: the end-to-end, layer-by-layer benchmark of the retrust
// repair service.
//
//   perfbench --workload <cold_start|search_heavy|serve_mix> --seed <n>
//             --seconds <s> --trace <0|1> --work-dir <dir> [--trace-out <f>]
//
// One process generates the workload's CSVs and request streams from the
// seed, starts service::Server + EventLoop on an ephemeral loopback port,
// and drives them over service::WireClient. Set-up runs three times (the
// median of their CPU seconds is setup_s, and the three digests prove the
// seed reproduces its inputs byte for byte). A timed window under the
// workload's load is followed by a serial phase, one op in flight at a
// time, whose per-request CPU costs are the end-to-end metrics. Then
// every reply is checked against a serial in-process Session (replay.h).
//
// --trace 0 prints the end-to-end metrics, measured with tracing off.
// --trace 1 runs half the window untraced and half with "trace": true,
// folds the reply span trees, replays each tenant through the layers'
// public functions inside the benchmark's own spans, and prints the
// per-layer metrics. The last stdout line is always one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.

#include <sched.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "replay.h"
#include "src/obs/metrics.h"
#include "src/service/client.h"
#include "src/service/event_loop.h"
#include "src/service/server.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace svc = retrust::service;
using retrust::Result;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

constexpr int kSetups = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args->seconds > 0;
    } else if (key == "--trace") {
      args->trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds && have_trace &&
         !args->work_dir.empty() && KnownWorkload(args->workload);
}

int Nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return std::max(1, CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

std::chrono::steady_clock::time_point At(double t) {
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double>(t - Now()));
}

/// Server + event loop + one WireClient per connection, torn down in the
/// order the event loop's contract asks for: clients, loop, server.
class Rig {
 public:
  Rig(const Workload& w, const std::string& dir, int workers) {
    svc::ServerOptions so;
    so.workers = workers;
    so.queue_capacity = 4096;
    so.snapshot_dir = dir;
    so.metrics = &registry_;
    server_ = std::make_unique<svc::Server>(so);
    svc::EventLoop::Options lo;
    lo.port = 0;
    loop_ = std::make_unique<svc::EventLoop>(server_.get(), lo);
    retrust::Status started = loop_->Start();
    if (!started.ok()) throw std::runtime_error("event loop: " + started.ToString());
    for (int c = 0; c < w.connections; ++c) {
      auto client = svc::WireClient::Connect(loop_->port());
      if (!client.ok()) throw std::runtime_error("connect: " + client.status().ToString());
      Json::Object ping;
      ping["op"] = Json("stats");
      if (!(*client)->CallSync(Json(std::move(ping))).ok()) {
        throw std::runtime_error("server did not answer stats");
      }
      clients_.push_back(std::move(*client));
    }
  }
  ~Rig() {
    clients_.clear();
    loop_->Stop();
    server_->Stop();
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  svc::WireClient& client(int c) { return *clients_[static_cast<size_t>(c)]; }

 private:
  retrust::obs::MetricsRegistry registry_;  // outlives the server's probe
  std::unique_ptr<svc::Server> server_;
  std::unique_ptr<svc::EventLoop> loop_;
  std::vector<std::unique_ptr<svc::WireClient>> clients_;
};

Json WireRequest(const Op& op, bool traced) {
  Json request = op.request;
  if (traced) request.MutableObject()["trace"] = Json(true);
  return request;
}

void Complete(Outcome* o, Result<Json> reply) {
  o->received = Now();
  o->cpu_received = CpuNow();
  if (!reply.ok()) {
    o->transport_error = reply.status().ToString();
    return;
  }
  o->transport_ok = true;
  o->normalized = Normalize(o->op->kind, *reply);
  if (o->traced) {
    o->reply = std::move(*reply);
  } else {
    // Keep only what the checks read: whole replies would pile up in
    // proportion to throughput and swamp peak_rss_mib.
    Json::Object kept;
    for (const char* key : {"ok", "error"}) {
      if (const Json* v = reply->Get(key)) kept[key] = *v;
    }
    o->reply = Json(std::move(kept));
  }
  if (o->op->kind == OpKind::kSave && o->ok()) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(o->op->snapshot, ec);
    o->snapshot_bytes = ec ? 0 : static_cast<uint64_t>(size);
  }
}

/// One closed-loop request: send, wait, stamp. `prev` is when the previous
/// reply on this connection arrived (the load generator's lag base).
Outcome CallSync(svc::WireClient& client, const Op& op, bool traced, double prev,
                 double* lag) {
  Outcome o;
  o.op = &op;
  o.traced = traced && op.kind == OpKind::kRepair;
  Json request = WireRequest(op, o.traced);
  o.cpu_sent = CpuNow();
  o.sent = Now();
  o.due = o.sent;
  *lag = o.sent - prev;
  Complete(&o, client.CallSync(std::move(request)));
  return o;
}

struct ConnLog {
  std::vector<Outcome> outcomes;  ///< in send order
  std::vector<double> lag;
  double generator_cpu = 0.0;  ///< CPU seconds of the generator thread
};

struct Window {
  double begin = 0.0;
  double end = 0.0;
  double cpu_begin = 0.0;
  double cpu_end = 0.0;
  std::vector<ConnLog> conns;

  /// CPU seconds the program spent in the window: the process's, less the
  /// load generator threads' own.
  double ProgramCpu() const {
    double cpu = cpu_end - cpu_begin;
    for (const ConnLog& conn : conns) cpu -= conn.generator_cpu;
    return cpu;
  }
};


size_t RunClosed(svc::WireClient& client, const Stream& stream, size_t first,
                 double t_end, bool traced, ConnLog* log) {
  size_t unit = first;
  double prev = Now();
  for (size_t done = 0; unit < stream.units.size(); ++unit, ++done) {
    if (done >= stream.min_units && unit % stream.round == 0 && Now() >= t_end) break;
    for (const Op& op : stream.units[unit]) {
      double lag = 0.0;
      log->outcomes.push_back(CallSync(client, op, traced, prev, &lag));
      log->lag.push_back(lag);
      prev = log->outcomes.back().received;
    }
  }
  if (unit == stream.units.size() && Now() < t_end) {
    std::fprintf(stderr, "warning: request stream ran out before the window closed\n");
  }
  return unit;
}

/// Open loop: every op due in [from, to) (an open-loop unit is a single
/// op) is sent at t0 + (due - from), pipelined, whatever the replies are
/// doing. Replies are stamped when the generator sees them: at once for
/// the oldest outstanding one, within 200 µs for the rest.
void RunOpen(svc::WireClient& client, const Stream& stream, double from,
             double to, double t0, bool traced, ConnLog* log) {
  std::vector<const Op*> ops;
  for (const auto& unit : stream.units) {
    if (!unit.empty() && unit[0].due >= from && unit[0].due < to) ops.push_back(&unit[0]);
  }
  log->outcomes.resize(ops.size());
  log->lag.resize(ops.size());
  struct Pending {
    size_t index;
    std::future<Result<Json>> reply;
  };
  std::deque<Pending> pending;
  auto reap = [&] {
    for (size_t i = 0; i < pending.size();) {
      if (pending[i].reply.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        ++i;
        continue;
      }
      Complete(&log->outcomes[pending[i].index], pending[i].reply.get());
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
    }
  };
  auto wait_until = [&](double t) {
    if (pending.empty()) {
      std::this_thread::sleep_until(At(t));
    } else {
      pending.front().reply.wait_until(At(std::min(t, Now() + 200e-6)));
    }
  };
  for (size_t k = 0; k < ops.size(); ++k) {
    const double due = t0 + (ops[k]->due - from);
    for (reap(); Now() < due; reap()) wait_until(due);
    Outcome& o = log->outcomes[k];
    o.op = ops[k];
    o.traced = traced && o.op->kind == OpKind::kRepair;
    o.due = due;
    Json request = WireRequest(*o.op, o.traced);
    o.cpu_sent = CpuNow();
    o.sent = Now();
    log->lag[k] = o.sent - due;
    pending.push_back({k, client.Call(std::move(request))});
  }
  for (reap(); !pending.empty(); reap()) wait_until(Now() + 1.0);
}

/// Runs `body(c)` on one thread per connection and joins them all.
void PerConnection(int connections, const std::function<void(int)>& body) {
  std::vector<std::thread> threads;
  std::exception_ptr failure;
  std::mutex failure_mu;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      try {
        body(c);
      } catch (...) {
        std::lock_guard<std::mutex> lock(failure_mu);
        failure = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (failure) std::rethrow_exception(failure);
}

/// The set-up warm-up: each connection runs its tenants' lifecycles.
std::vector<std::vector<Outcome>> RunWarmup(Rig& rig, const Workload& w) {
  std::vector<std::vector<Outcome>> out(w.tenants.size());
  PerConnection(w.connections, [&](int c) {
    for (size_t t = 0; t < w.warmup.size(); ++t) {
      if (w.tenants[t].connection != c) continue;
      double prev = Now(), lag = 0.0;
      for (const Op& op : w.warmup[t]) {
        out[t].push_back(CallSync(rig.client(c), op, false, prev, &lag));
        prev = out[t].back().received;
      }
    }
  });
  return out;
}

/// Runs one timed window. Closed loops resume each connection at
/// `next_unit[c]` (advanced on return); open loops send the ops due in
/// [from, to) of the stream.
Window RunWindow(Rig& rig, const Workload& w, double from, double to,
                 bool traced, std::vector<size_t>* next_unit) {
  Window win;
  win.conns.resize(static_cast<size_t>(w.connections));
  win.cpu_begin = CpuNow();
  win.begin = Now();
  const double t_end = win.begin + (to - from);
  PerConnection(w.connections, [&](int c) {
    const Stream& stream = w.window[static_cast<size_t>(c)];
    ConnLog* log = &win.conns[static_cast<size_t>(c)];
    const double generator_cpu = ThreadCpuNow();
    if (w.open_loop) {
      RunOpen(rig.client(c), stream, from, to, win.begin, traced, log);
    } else {
      (*next_unit)[static_cast<size_t>(c)] =
          RunClosed(rig.client(c), stream, (*next_unit)[static_cast<size_t>(c)],
                    t_end, traced, log);
    }
    log->generator_cpu = ThreadCpuNow() - generator_cpu;
  });
  win.end = Now();
  win.cpu_end = CpuNow();
  return win;
}

/// The serial phase: the workload's serial units on connection 0, one op
/// in flight at a time, for `seconds` (in whole rounds).
ConnLog RunSerial(Rig& rig, const Workload& w, double seconds) {
  ConnLog log;
  if (!w.serial.units.empty()) {
    RunClosed(rig.client(0), w.serial, 0, Now() + seconds, /*traced=*/false, &log);
  }
  return log;
}

const char* Verb(OpKind kind) {
  switch (kind) {
    case OpKind::kLoad: return "load_tenant";
    case OpKind::kRepair: return "repair";
    case OpKind::kDelta: return "apply_delta";
    case OpKind::kSave: return "save_snapshot";
    case OpKind::kUnload: return "unload_tenant";
  }
  return "";
}

/// Lays a reply's span tree out under its client span: children run back to
/// back from their parent's start (decode, queue_wait, service; session;
/// search then materialize; the search phases are per-phase totals). Also
/// collects each span's duration by name.
void FoldReplyTrace(SpanLog* log, const Json& node, double start, int parent,
                    uint64_t request, std::map<std::string, std::vector<double>>* by_name) {
  const Json* name = node.Get("name");
  const Json* seconds = node.Get("seconds");
  if (name == nullptr || seconds == nullptr) return;
  const double s = seconds->AsNumber();
  (*by_name)[name->AsString()].push_back(s);
  const int id = log->Add("server." + name->AsString(), start, start + s, parent, request);
  if (const Json* spans = node.Get("spans")) {
    double cursor = start;
    for (const Json& child : spans->AsArray()) {
      FoldReplyTrace(log, child, cursor, id, request, by_name);
      if (const Json* cs = child.Get("seconds")) cursor += cs->AsNumber();
    }
  }
}

/// What a later set-up must reproduce: the input digest and each tenant's
/// warm-up replies (normalized, with the snapshot sizes).
struct SetupPrint {
  uint64_t digest = 0;
  std::vector<std::vector<std::pair<std::string, uint64_t>>> replies;
};

SetupPrint Fingerprint(const Workload& w, const std::vector<std::vector<Outcome>>& warm) {
  SetupPrint print;
  print.digest = w.Digest();
  for (const auto& lifecycle : warm) {
    auto& replies = print.replies.emplace_back();
    for (const Outcome& o : lifecycle) replies.push_back({Normalize(o), o.snapshot_bytes});
  }
  return print;
}

struct Results {
  Sheet sheet;
  std::vector<std::string> errors;
  size_t attempted = 0;
  size_t failed = 0;
};

/// The tail percentile a sample of `n` supports: the 99th when at least
/// ten samples lie beyond it, else the highest that leaves ten beyond it
/// (the median below 20 samples).
double Tail(const std::vector<double>& v) {
  const double n = static_cast<double>(v.size());
  return Quantile(v, std::clamp(1.0 - 10.0 / n, 0.5, 0.99));
}

/// Wall-clock latencies (from the due time) of the plain ops of `kind`.
void Latencies(const std::vector<const Outcome*>& outs, OpKind kind,
               double failed_latency, std::vector<double>* out) {
  for (const Outcome* o : outs) {
    if (o->op->kind != kind || o->op->role != Role::kPlain) continue;
    // A refused or lost request misses every latency limit; an answered
    // one (including an expected "no repair within tau") counts as is.
    out->push_back(o->transport_ok && !o->refused() ? o->latency() : failed_latency);
  }
}

/// CPU costs of the plain ops of `kind` that were answered.
std::vector<double> CpuCosts(const std::vector<const Outcome*>& outs, OpKind kind) {
  std::vector<double> out;
  for (const Outcome* o : outs) {
    if (o->op->kind == kind && o->op->role == Role::kPlain && o->transport_ok &&
        !o->refused()) {
      out.push_back(o->cpu());
    }
  }
  return out;
}

int Run(const Args& args) {
  const int nproc = Nproc();
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d | nproc=%d compiler=%s build=%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, nproc, PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE);
  std::filesystem::create_directories(args.work_dir);
  const std::string dir = std::filesystem::absolute(args.work_dir).string();
  Results res;

  // --- set-up, three times --------------------------------------------
  // Only the last set-up is kept; each earlier one leaves its fingerprint,
  // so the load generator's own inputs do not inflate peak_rss_mib.
  std::unique_ptr<Workload> setup;
  std::vector<double> setup_s;
  std::vector<std::vector<Outcome>> warm;
  std::vector<SetupPrint> prints;
  std::unique_ptr<Rig> rig;
  {
    const Bases bases = MakeBases(args.workload);
    for (int r = 0; r < kSetups; ++r) {
      rig.reset();
      warm.clear();
      setup.reset();
      const double cpu0 = CpuNow();
      setup = std::make_unique<Workload>(
          MakeWorkload(args.workload, args.seed, dir, bases, nproc, args.seconds));
      rig = std::make_unique<Rig>(*setup, dir, nproc);
      warm = RunWarmup(*rig, *setup);
      setup_s.push_back(CpuNow() - cpu0);
      prints.push_back(Fingerprint(*setup, warm));
      for (const auto& lifecycle : warm) res.attempted += lifecycle.size();
    }
  }
  const Workload& w = *setup;
  // Earlier set-ups ran the same lifecycles against fresh servers.
  for (int r = 0; r + 1 < kSetups; ++r) {
    const SetupPrint& a = prints[static_cast<size_t>(r)];
    const SetupPrint& b = prints.back();
    if (a.digest != b.digest) {
      res.errors.push_back("the same seed produced different inputs or requests");
    }
    for (size_t t = 0; t < a.replies.size() && t < b.replies.size(); ++t) {
      for (size_t k = 0; k < a.replies[t].size() && k < b.replies[t].size(); ++k) {
        if (a.replies[t][k] != b.replies[t][k]) {
          ++res.failed;
          res.errors.push_back("set-up " + std::to_string(r) + " tenant " +
                               w.tenants[t].name + " op " + std::to_string(k) +
                               " differs from the last set-up");
        }
      }
    }
  }
  // peak_rss_mib covers the timed window, not the set-ups before it.
  if (!ResetPeakRss()) {
    std::fprintf(stderr, "warning: cannot reset VmHWM; peak_rss_mib includes set-up\n");
  }

  // --- timed window(s), then the serial phase ---------------------------
  std::vector<Window> windows;
  std::vector<size_t> next_unit(static_cast<size_t>(w.connections), 0);
  const double window_len = args.seconds * w.window_share;
  if (!args.trace) {
    windows.push_back(RunWindow(*rig, w, 0.0, window_len, false, &next_unit));
  } else {
    const double half = window_len / 2;
    windows.push_back(RunWindow(*rig, w, 0.0, half, false, &next_unit));
    windows.push_back(RunWindow(*rig, w, half, window_len, true, &next_unit));
  }
  const ConnLog serial = RunSerial(*rig, w, args.seconds - window_len);
  const double peak_rss = PeakRssMib();
  rig.reset();

  // --- output check -----------------------------------------------------
  std::vector<std::vector<const Outcome*>> seq(w.tenants.size());
  for (size_t t = 0; t < w.tenants.size(); ++t) {
    for (const Outcome& o : warm[t]) seq[t].push_back(&o);
  }
  std::vector<const ConnLog*> logs;
  for (const Window& win : windows) {
    for (const ConnLog& conn : win.conns) logs.push_back(&conn);
  }
  logs.push_back(&serial);
  for (const ConnLog* conn : logs) {
    for (const Outcome& o : conn->outcomes) seq[static_cast<size_t>(o.op->tenant)].push_back(&o);
    res.attempted += conn->outcomes.size();
  }

  // One serial Session per dataset binding; cold_start's later cycles
  // repeat the first cycle's requests, so they must repeat its replies.
  std::vector<size_t> replayed;
  std::map<int, size_t> first_of_data;
  for (size_t t = 0; t < w.tenants.size(); ++t) {
    if (seq[t].empty()) continue;
    auto [it, fresh] = first_of_data.try_emplace(w.tenants[t].data, t);
    if (fresh || w.name != "cold_start") {
      replayed.push_back(t);
      continue;
    }
    const auto& ref = seq[it->second];
    for (size_t k = 0; k < seq[t].size(); ++k) {
      if (k >= ref.size() || Normalize(*seq[t][k]) != Normalize(*ref[k]) ||
          seq[t][k]->snapshot_bytes != ref[k]->snapshot_bytes) {
        ++res.failed;
        res.errors.push_back("tenant " + w.tenants[t].name + " op " +
                             std::to_string(k) + " differs from cycle 0");
      }
    }
  }
  std::unique_ptr<SpanLog> spans = args.trace ? std::make_unique<SpanLog>() : nullptr;
  std::vector<ReplayResult> replays(replayed.size());
  auto replay = [&](size_t i, SpanLog* log) {
    const Tenant& tenant = w.tenants[replayed[i]];
    replays[i] = ReplayTenant(w.data[static_cast<size_t>(tenant.data)], seq[replayed[i]],
                              log, w.layer_prefix, dir + "/replay-" + tenant.name);
  };
  // The layer replays are timed, so they run one tenant at a time; the
  // untimed ones (probes, every tenant of an untraced run) run in parallel.
  std::vector<size_t> untimed;
  for (size_t i = 0; i < replayed.size(); ++i) {
    if (spans != nullptr && !w.tenants[replayed[i]].probe) {
      replay(i, spans.get());
    } else {
      untimed.push_back(i);
    }
  }
  {
    std::atomic<size_t> next{0};
    const int threads = std::min<int>(nproc, static_cast<int>(untimed.size()));
    PerConnection(threads, [&](int) {
      for (size_t k = next++; k < untimed.size(); k = next++) replay(untimed[k], nullptr);
    });
  }
  LayerTotals layers;
  for (const ReplayResult& r : replays) {
    res.failed += r.failed;
    res.errors.insert(res.errors.end(), r.errors.begin(), r.errors.end());
    layers.Merge(r.layers);
  }

  // --- end-to-end metrics ------------------------------------------------
  // The costs come from ops that ran with nothing else in flight (the
  // serial phase; cold_start's single-connection window is serial already)
  // and are read off the process CPU clock, which a stolen virtual CPU does
  // not advance. Wall-clock latencies under load are reported, ungated, as
  // loadgen.*_wall_* in the traced run.
  auto outs_of = [](const std::vector<ConnLog>& conns) {
    std::vector<const Outcome*> outs;
    for (const ConnLog& conn : conns) {
      for (const Outcome& o : conn.outcomes) outs.push_back(&o);
    }
    return outs;
  };
  const Window& timed = windows.front();
  const std::vector<const Outcome*> timed_outs = outs_of(timed.conns);
  const double timed_len = timed.end - timed.begin;
  std::vector<const Outcome*> serial_outs;
  for (const Outcome& o : serial.outcomes) serial_outs.push_back(&o);
  if (w.serial.units.empty()) serial_outs = timed_outs;  // cold_start's window is serial

  std::vector<double> cold, reload, save;
  double snapshot_bytes = 0.0, csv_bytes = 0.0;
  std::map<int, double> load_cpu;
  for (const Outcome* o : serial_outs) {
    if (!o->ok()) continue;
    if (o->op->role == Role::kCold && load_cpu.count(o->op->tenant) != 0) {
      cold.push_back(o->cpu_received - load_cpu[o->op->tenant]);
    } else if (o->op->role == Role::kReload) {
      reload.push_back(o->cpu());
    }
    if (o->op->kind == OpKind::kLoad) load_cpu[o->op->tenant] = o->cpu_sent;
    if (o->op->kind == OpKind::kSave) {
      save.push_back(o->cpu());
      const Tenant& tenant = w.tenants[static_cast<size_t>(o->op->tenant)];
      snapshot_bytes += static_cast<double>(o->snapshot_bytes);
      csv_bytes += static_cast<double>(w.data[static_cast<size_t>(tenant.data)].csv_bytes);
    }
  }
  const std::vector<double> repair_cpu = CpuCosts(serial_outs, OpKind::kRepair);
  const std::vector<double> delta_cpu = CpuCosts(serial_outs, OpKind::kDelta);
  size_t window_done = 0;
  for (const Outcome* o : timed_outs) window_done += o->ok() ? 1 : 0;
  std::vector<double> repair_lat, delta_lat;
  Latencies(timed_outs, OpKind::kRepair, timed_len, &repair_lat);
  Latencies(timed_outs, OpKind::kDelta, timed_len, &delta_lat);

  Sheet& sheet = res.sheet;
  if (!args.trace) {
    sheet.Set("setup_s", Median(setup_s), "s", setup_s.size());
    sheet.Set("cold_reply_cpu_s", Median(cold), "s", cold.size());
    sheet.Set("reload_reply_cpu_s", Median(reload), "s", reload.size());
    sheet.Set("snapshot_save_cpu_s", Median(save), "s", save.size());
    sheet.Set("snapshot_bytes_per_csv_byte", csv_bytes > 0 ? snapshot_bytes / csv_bytes : 0.0,
              "ratio", save.size());
    sheet.Set("repair_cpu_p50_s", Median(repair_cpu), "s", repair_cpu.size());
    sheet.Set("repair_cpu_p99_s", Tail(repair_cpu), "s", repair_cpu.size());
    sheet.Set("delta_cpu_p50_s", Median(delta_cpu), "s", delta_cpu.size());
    sheet.Set("delta_cpu_p99_s", Tail(delta_cpu), "s", delta_cpu.size());
    const double window_cpu = timed.ProgramCpu();
    sheet.Set("requests_per_cpu_s",
              window_cpu > 0 ? static_cast<double>(window_done) / window_cpu : 0.0, "1/s",
              window_done);
    sheet.Set("peak_rss_mib", peak_rss, "MiB", 1);
    std::printf("  not gated, wall clock under load: repair p50 %.6g s p99 %.6g s (n=%zu), "
                "delta p50 %.6g s p99 %.6g s (n=%zu), %.6g requests/s\n",
                Median(repair_lat), Tail(repair_lat), repair_lat.size(), Median(delta_lat),
                Tail(delta_lat), delta_lat.size(),
                static_cast<double>(window_done) / timed_len);
  } else {
    // --- per-layer metrics ------------------------------------------------
    const Window& traced = windows.back();
    const std::vector<const Outcome*> traced_outs = outs_of(traced.conns);
    std::map<std::string, std::vector<double>> server;
    std::vector<double> wire, lag;
    std::vector<std::pair<double, double>> top;
    uint64_t request = 0;
    size_t rejected = 0;
    for (const Outcome* o : timed_outs) rejected += o->refused() ? 1 : 0;
    for (const Outcome* o : traced_outs) {
      rejected += o->refused() ? 1 : 0;
      ++request;
      const int id = spans->Add(std::string("client.") + Verb(o->op->kind), o->sent,
                                o->received, -1, request);
      top.push_back({o->sent, o->received});
      const Json* tree = o->reply.Get("trace");
      if (tree == nullptr) continue;
      FoldReplyTrace(spans.get(), *tree, o->sent, id, request, &server);
      if (const Json* root = tree->Get("seconds")) {
        wire.push_back((o->received - o->sent) - root->AsNumber());
      }
    }
    for (const Window& win : windows) {
      for (const ConnLog& conn : win.conns) lag.insert(lag.end(), conn.lag.begin(), conn.lag.end());
    }
    // Reply encoding costs, on the traced window's repair replies with
    // their span trees taken out (the bytes an untraced reply carries).
    std::vector<std::string> dumps;
    for (const Outcome* o : traced_outs) {
      if (o->op->kind == OpKind::kRepair && o->ok() && dumps.size() < 2000) {
        Json untraced = o->reply;
        untraced.MutableObject().erase("trace");
        dumps.push_back(untraced.Dump());
      }
    }
    std::vector<double> reply_bytes;
    std::vector<Json> parsed;
    double t0 = Now();
    for (const std::string& d : dumps) {
      reply_bytes.push_back(static_cast<double>(d.size()));
      parsed.push_back(*svc::ParseJson(d));
    }
    const double parse_s = Now() - t0;
    t0 = Now();
    size_t dumped = 0;
    for (const Json& j : parsed) dumped += j.Dump().size();
    const double dump_s = Now() - t0;
    const double per_reply = dumps.empty() ? 1.0 : static_cast<double>(dumps.size());
    if (dumped != static_cast<size_t>(Mean(reply_bytes) * per_reply + 0.5) && !dumps.empty()) {
      res.errors.push_back("re-encoding captured replies changed their bytes");
    }
    std::vector<double> traced_repairs;
    Latencies(traced_outs, OpKind::kRepair, traced.end - traced.begin, &traced_repairs);

    auto mean_of = [&](const std::string& name) {
      size_t n = 0;
      const double v = spans->MeanSelf(name, &n);
      return std::make_pair(v, n);
    };
    auto span_metric = [&](const std::string& metric, const std::string& span) {
      auto [v, n] = mean_of(span);
      sheet.Set(metric, v, "s", n);
    };
    const auto& q = server["queue_wait"];
    sheet.Set("service.decode_s", Mean(server["decode"]), "s", server["decode"].size());
    sheet.Set("service.queue_wait_s.p50", Quantile(q, 0.5), "s", q.size());
    sheet.Set("service.queue_wait_s.p99", Tail(q), "s", q.size());
    sheet.Set("service.service_s", Mean(server["service"]), "s", server["service"].size());
    sheet.Set("service.wire_s", Mean(wire), "s", wire.size());
    sheet.Set("service.reply_bytes", Mean(reply_bytes), "bytes", reply_bytes.size());
    sheet.Set("service.json_parse_s", parse_s / per_reply, "s", dumps.size());
    sheet.Set("service.json_dump_s", dump_s / per_reply, "s", parsed.size());
    sheet.Set("service.rejected", static_cast<double>(rejected), "count", rejected);

    span_metric("api.repair_s", "api.repair");
    span_metric("api.open_csv_s", "api.open_csv");
    span_metric("api.open_snapshot_s", "api.open_snapshot");
    span_metric("api.save_snapshot_s", "api.save_snapshot");
    span_metric("api.apply_s", "api.apply");
    sheet.Set("api.apply_reuse_ratio", Mean(layers.reuse_ratio), "ratio", layers.reuse_ratio.size());
    const int64_t covers = layers.covers_kept + layers.covers_dropped;
    sheet.Set("api.covers_kept_ratio",
              covers == 0 ? 0.0 : static_cast<double>(layers.covers_kept) / static_cast<double>(covers),
              "ratio", static_cast<size_t>(covers));
    span_metric("relational.csv_read_s", "relational.csv_read");
    span_metric("relational.encode_s", "relational.encode");
    sheet.Set("fd.partition_s", Mean(layers.partition_s), "s", layers.partition_s.size());
    sheet.Set("fd.enumerate_s", Mean(layers.enumerate_s), "s", layers.enumerate_s.size());
    sheet.Set("fd.group_s", Mean(layers.group_s), "s", layers.group_s.size());
    sheet.Set("fd.pairs_candidate", static_cast<double>(layers.pairs_candidate), "count", 1);
    sheet.Set("fd.pairs_materialized", static_cast<double>(layers.pairs_materialized), "count", 1);
    sheet.Set("fd.pairs_counted", static_cast<double>(layers.pairs_counted), "count", 1);
    sheet.Set("fd.useful_pair_ratio",
              layers.pairs_candidate == 0 ? 0.0
                                          : static_cast<double>(layers.pairs_materialized) /
                                                static_cast<double>(layers.pairs_candidate),
              "ratio", 1);
    span_metric("fd.violation_table_s", "fd.violation_table");
    span_metric("repair.context_s", "repair.context");
    span_metric("repair.materialize_s", "repair.materialize");
    const double searches = layers.searches == 0 ? 1.0 : static_cast<double>(layers.searches);
    const auto n_search = static_cast<size_t>(layers.searches);
    const auto& ph = layers.phases;
    sheet.Set("search.expand_s", ph.expand_seconds / searches, "s", n_search);
    sheet.Set("search.expand_count", static_cast<double>(ph.expand_count), "count", n_search);
    sheet.Set("search.evaluate_s", ph.evaluate_seconds / searches, "s", n_search);
    sheet.Set("search.evaluate_count", static_cast<double>(ph.evaluate_count), "count", n_search);
    sheet.Set("search.cover_s", ph.cover_seconds / searches, "s", n_search);
    sheet.Set("search.cover_count", static_cast<double>(ph.cover_count), "count", n_search);
    sheet.Set("search.bound_s", ph.bound_seconds / searches, "s", n_search);
    sheet.Set("search.bound_count", static_cast<double>(ph.bound_count), "count", n_search);
    sheet.Set("search.states_visited", static_cast<double>(layers.states_visited), "count", n_search);
    sheet.Set("search.expansions", static_cast<double>(layers.expansions), "count", n_search);
    sheet.Set("search.heuristic_calls", static_cast<double>(layers.heuristic_calls), "count", n_search);
    sheet.Set("search.lb_prunes", static_cast<double>(layers.lb_prunes), "count", n_search);
    sheet.Set("graph.vc_computations", static_cast<double>(layers.vc_computations), "count", n_search);
    const int64_t lookups = layers.vc_computations + layers.vc_memo_hits;
    sheet.Set("graph.cover_memo_hit_ratio",
              lookups == 0 ? 0.0 : static_cast<double>(layers.vc_memo_hits) / static_cast<double>(lookups),
              "ratio", static_cast<size_t>(lookups));
    span_metric("persist.snapshot_read_s", "persist.snapshot_read");
    sheet.Set("persist.snapshot_bytes", static_cast<double>(layers.snapshot_bytes), "bytes", 1);
    const double untraced_p50 = Quantile(repair_lat, 0.5);
    sheet.Set("obs.trace_overhead_ratio",
              untraced_p50 > 0 ? Quantile(traced_repairs, 0.5) / untraced_p50 : 0.0, "ratio",
              traced_repairs.size());
    sheet.Set("loadgen.lag_p99_s", Tail(lag), "s", lag.size());
    sheet.Set("loadgen.repair_wall_p50_s", Median(repair_lat), "s", repair_lat.size());
    sheet.Set("loadgen.repair_wall_p99_s", Tail(repair_lat), "s", repair_lat.size());
    sheet.Set("loadgen.delta_wall_p50_s", Median(delta_lat), "s", delta_lat.size());
    sheet.Set("loadgen.delta_wall_p99_s", Tail(delta_lat), "s", delta_lat.size());
    const double coverage = Coverage(top, traced.begin, traced.end);
    sheet.Set("loadgen.span_coverage", coverage, "ratio", top.size());
    if (w.name == "cold_start" && coverage < 0.9) {
      res.errors.push_back("traced cold_start request spans cover " +
                           std::to_string(coverage) + " of the window, under 90%");
    }
    if (!args.trace_out.empty() && !spans->WriteJson(args.trace_out)) {
      std::fprintf(stderr, "warning: cannot write %s\n", args.trace_out.c_str());
    }
  }

  // --- report ---------------------------------------------------------
  for (const auto& [name, m] : sheet.metrics()) {
    std::printf("  %-32s %16.9g %-6s n=%zu\n", name.c_str(), m.value, m.unit.c_str(),
                m.samples);
  }
  std::printf("  attempted=%zu failed=%zu failed_ratio=%.6f\n", res.attempted, res.failed,
              res.attempted == 0 ? 0.0
                                 : static_cast<double>(res.failed) / static_cast<double>(res.attempted));
  for (size_t i = 0; i < res.errors.size() && i < 20; ++i) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", res.errors[i].c_str());
  }
  const bool correct = res.errors.empty();
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(res.attempted) +
                     ", \"failed\": " + std::to_string(res.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : sheet.metrics()) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    json += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <cold_start|search_heavy|serve_mix> "
                 "--seed <n> --seconds <s> --trace <0|1> --work-dir <dir> "
                 "[--trace-out <file>]\n");
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to time a build with assertions on\n");
  return 3;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing to time a %s build (need Release)\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  try {
    return perfbench::Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 4;
  }
}
