// Service-layer throughput: requests/sec and tail latency of the
// multi-tenant Server across worker counts and tenant counts.
//
// Models the ROADMAP's target traffic shape: many independent repair
// requests (mixed τr grid points, the Fig. 12 workload) arriving for one
// or several datasets, drained by a shared worker pool with fair
// round-robin across tenants. The interesting numbers are the scaling of
// requests/sec with workers (cross-request parallelism — every Session
// verb itself runs serially) and the p99 latency under a full queue.
//
// Prints a table over workers ∈ {1, 2, 4, 8} × tenants ∈ {1, 4} and
// writes BENCH_service.json with every row plus the headline (8 workers,
// 4 tenants).
//
// A second section measures the WIRE itself: the same in-process Server
// behind the event-driven loop, driven by 64 concurrent clients in two
// modes — one request per fresh TCP connection (the pre-pipelining
// behavior) vs 64 persistent pipelined connections. The ratio is the
// payoff of connection-level pipelining and is CI-gated at ≥ 3×
// ("pipeline_speedup_x" in BENCH_service.json).
//
// A third section is the observability A/B: pipelined untraced `repair`
// requests against servers with the observability layer off and on. The
// repairs cross the queue, the search engine and the completion path —
// every hook the layer adds — and the on/off throughput ratio is CI-gated
// at ≥ 0.95 ("obs_overhead_ratio").

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/eval/generator.h"
#include "src/eval/perturb.h"
#include "src/obs/metrics.h"
#include "src/service/client.h"
#include "src/service/event_loop.h"
#include "src/service/server.h"
#include "src/util/timer.h"

using namespace retrust;
using namespace retrust::service;

namespace {

struct Row {
  int workers = 0;
  int tenants = 0;
  int requests = 0;
  double seconds = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;

  double rps() const { return seconds > 0 ? requests / seconds : 0.0; }
};

Instance TenantData(int n, uint64_t seed) {
  CensusConfig gen;
  gen.num_tuples = n;
  gen.num_attrs = 8;
  gen.planted_lhs_sizes = {2, 2};
  gen.seed = seed;
  PerturbOptions perturb;
  perturb.data_error_rate = 0.02;
  perturb.fd_error_rate = 0.5;
  perturb.seed = seed + 1;
  GeneratedData clean = GenerateCensusLike(gen);
  return Perturb(clean.instance, clean.planted_fds, perturb).data;
}

std::vector<std::string> TenantFds(int n, uint64_t seed) {
  CensusConfig gen;
  gen.num_tuples = n;
  gen.num_attrs = 8;
  gen.planted_lhs_sizes = {2, 2};
  gen.seed = seed;
  GeneratedData clean = GenerateCensusLike(gen);
  std::vector<std::string> texts;
  Schema schema = clean.instance.schema();
  for (const FD& fd : clean.planted_fds.fds()) {
    texts.push_back(fd.ToString(schema));
  }
  return texts;
}

Row Measure(int workers, int num_tenants, int requests_per_tenant, int n) {
  ServerOptions opts;
  opts.workers = workers;
  opts.queue_capacity = 16384;
  Server server(opts);

  for (int t = 0; t < num_tenants; ++t) {
    uint64_t seed = 100 + static_cast<uint64_t>(t) * 17;
    Status status = server.LoadTenant("tenant" + std::to_string(t),
                                      TenantData(n, seed), TenantFds(n, seed));
    if (!status.ok()) {
      std::fprintf(stderr, "load failed: %s\n", status.ToString().c_str());
      std::exit(1);
    }
  }
  // Warm every tenant's weight memos outside the timed window, like a
  // live service that has answered at least one request per dataset.
  // Directly against the Session, NOT through the queue: warm-up samples
  // must not land in the latency histogram the p50/p99 columns report.
  Client client = server.client();
  for (int t = 0; t < num_tenants; ++t) {
    Result<std::shared_ptr<Session>> session =
        server.tenants().Get("tenant" + std::to_string(t));
    (void)(*session)->Repair(RepairRequest::AtRelative(1.0));
  }

  const std::vector<double> taus_r = {0.25, 0.5, 0.75, 1.0};
  Row row;
  row.workers = workers;
  row.tenants = num_tenants;

  Timer timer;
  std::vector<Submitted<Result<RepairResponse>>> pending;
  for (int i = 0; i < requests_per_tenant; ++i) {
    for (int t = 0; t < num_tenants; ++t) {
      RepairRequest req =
          RepairRequest::AtRelative(taus_r[static_cast<size_t>(i) % taus_r.size()]);
      req.seed = static_cast<uint64_t>(i) + 1;
      pending.push_back(
          client.Repair("tenant" + std::to_string(t), req));
    }
  }
  for (auto& p : pending) {
    Result<RepairResponse> response = p.future.get();
    if (!response.ok() &&
        response.status().code() != StatusCode::kNoRepairWithinTau) {
      std::fprintf(stderr, "request failed: %s\n",
                   response.status().ToString().c_str());
      std::exit(1);
    }
  }
  row.seconds = timer.ElapsedSeconds();
  row.requests = static_cast<int>(pending.size());

  ServerStats stats = client.Stats();
  row.p50 = stats.p50_latency_seconds;
  row.p99 = stats.p99_latency_seconds;
  if (stats.rejected() != 0) {
    std::fprintf(stderr, "unexpected rejections under capacity: %llu\n",
                 static_cast<unsigned long long>(stats.rejected()));
    std::exit(1);
  }
  return row;
}

// --- wire modes: pipelined vs one-request-per-connection -----------------

struct WireRow {
  int connections = 0;
  int requests = 0;
  double seconds = 0.0;
  double rps() const { return seconds > 0 ? requests / seconds : 0.0; }
};

/// The cheap request both wire modes send: per-tenant `stats` costs
/// microseconds to serve and a small reply to parse, so the measured
/// difference is wire overhead (connection setup, framing, turnaround),
/// which is exactly what pipelining removes.
const char kStatsLine[] = "{\"op\":\"stats\",\"tenant\":\"wire\"}\n";

/// One request per fresh TCP connection: connect, send, await the reply,
/// close — `connections` clients doing that in parallel.
WireRow MeasureSerialConn(int port, int connections, int requests_per_conn) {
  Timer timer;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(connections));
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([port, requests_per_conn] {
      for (int i = 0; i < requests_per_conn; ++i) {
        int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0) std::exit(1);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(static_cast<uint16_t>(port));
        if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0) {
          std::perror("connect");
          std::exit(1);
        }
        if (::send(fd, kStatsLine, sizeof(kStatsLine) - 1, MSG_NOSIGNAL) <=
            0) {
          std::exit(1);
        }
        char chunk[4096];
        bool done = false;
        while (!done) {
          ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
          if (n <= 0) std::exit(1);
          done = std::memchr(chunk, '\n', static_cast<size_t>(n)) != nullptr;
        }
        ::close(fd);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  WireRow row;
  row.connections = connections;
  row.requests = connections * requests_per_conn;
  row.seconds = timer.ElapsedSeconds();
  return row;
}

/// Persistent pipelined connections: each client keeps one socket and many
/// copies of `request` in flight (chunks of 128, under the loop's pipeline
/// depth). Every reply must be ok.
WireRow MeasurePipelined(int port, int connections, int requests_per_conn,
                         const Json& request) {
  Timer timer;  // connection setup included — it is amortized, that's the point
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(connections));
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([port, requests_per_conn, &request] {
      auto client = WireClient::Connect(port);
      if (!client.ok()) {
        std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
        std::exit(1);
      }
      int remaining = requests_per_conn;
      while (remaining > 0) {
        const int burst = remaining < 128 ? remaining : 128;
        std::vector<std::future<Result<Json>>> pending;
        pending.reserve(static_cast<size_t>(burst));
        for (int i = 0; i < burst; ++i) {
          pending.push_back((*client)->Call(request));
        }
        for (auto& p : pending) {
          Result<Json> reply = p.get();
          if (!reply.ok()) {
            std::fprintf(stderr, "%s\n", reply.status().ToString().c_str());
            std::exit(1);
          }
          const Json* ok = reply->Get("ok");
          if (ok == nullptr || !ok->AsBool()) {
            std::fprintf(stderr, "request failed: %s\n",
                         reply->Dump().c_str());
            std::exit(1);
          }
        }
        remaining -= burst;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  WireRow row;
  row.connections = connections;
  row.requests = connections * requests_per_conn;
  row.seconds = timer.ElapsedSeconds();
  return row;
}

/// One observability A/B arm: a fresh server + loop with the obs layer on
/// or off (private registry, so arms and trials never share counters),
/// driven by pipelined repairs. The inline `stats` verb would never reach
/// the queue, the flight recorder or the search counters; a repair crosses
/// all of them. Requests carry no trace in either arm — this measures what
/// observability costs requests that did NOT ask for it, the ≤5% contract
/// CI gates.
WireRow MeasureObsMode(bool observability, int connections,
                       int requests_per_conn) {
  obs::MetricsRegistry registry;
  ServerOptions opts;
  opts.workers = 4;
  opts.queue_capacity = 0;
  opts.observability = observability;
  opts.metrics = &registry;
  Server server(opts);
  uint64_t seed = 900;
  Status status =
      server.LoadTenant("wire", TenantData(50, seed), TenantFds(50, seed));
  if (!status.ok()) {
    std::fprintf(stderr, "load failed: %s\n", status.ToString().c_str());
    std::exit(1);
  }
  EventLoop::Options loop_opts;
  loop_opts.port = 0;
  loop_opts.reader_threads = 4;
  EventLoop loop(&server, loop_opts);
  Status started = loop.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    std::exit(1);
  }
  Json::Object repair;
  repair["op"] = Json("repair");
  repair["tenant"] = Json("wire");
  repair["tau_r"] = Json(0.5);
  WireRow row = MeasurePipelined(loop.port(), connections, requests_per_conn,
                                 Json(std::move(repair)));
  loop.Stop();
  server.Stop();
  return row;
}

}  // namespace

int main() {
  const int n = bench::ScaledN(400);
  const int requests_per_tenant = bench::ScaledN(24);

  bench::Banner("service", "multi-tenant Server throughput");
  std::printf("n = %d tuples/tenant, %d requests/tenant\n\n", n,
              requests_per_tenant);
  std::printf("%8s %8s %10s %10s %12s %12s\n", "workers", "tenants",
              "requests", "req/s", "p50 (ms)", "p99 (ms)");

  std::vector<Row> rows;
  for (int tenants : {1, 4}) {
    for (int workers : {1, 2, 4, 8}) {
      Row row = Measure(workers, tenants, requests_per_tenant, n);
      std::printf("%8d %8d %10d %10.1f %12.2f %12.2f\n", row.workers,
                  row.tenants, row.requests, row.rps(), row.p50 * 1e3,
                  row.p99 * 1e3);
      rows.push_back(row);
    }
  }

  // Wire section: same Server, event-driven front end, 64 concurrent
  // clients in both modes.
  const int kConnections = 64;
  const int serial_requests_per_conn = bench::ScaledN(16);
  const int pipelined_requests_per_conn = bench::ScaledN(512);
  WireRow serial_conn, pipelined;
  {
    ServerOptions wire_opts;
    wire_opts.workers = 4;
    wire_opts.queue_capacity = 0;
    Server server(wire_opts);
    {
      uint64_t seed = 900;
      Status status =
          server.LoadTenant("wire", TenantData(50, seed), TenantFds(50, seed));
      if (!status.ok()) {
        std::fprintf(stderr, "load failed: %s\n", status.ToString().c_str());
        return 1;
      }
    }
    EventLoop::Options loop_opts;
    loop_opts.port = 0;
    loop_opts.reader_threads = 4;
    EventLoop loop(&server, loop_opts);
    Status started = loop.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "%s\n", started.ToString().c_str());
      return 1;
    }
    serial_conn =
        MeasureSerialConn(loop.port(), kConnections, serial_requests_per_conn);
    Json::Object stats;
    stats["op"] = Json("stats");
    stats["tenant"] = Json("wire");
    pipelined = MeasurePipelined(loop.port(), kConnections,
                                 pipelined_requests_per_conn,
                                 Json(std::move(stats)));
    loop.Stop();
    server.Stop();
  }
  const double speedup =
      serial_conn.rps() > 0 ? pipelined.rps() / serial_conn.rps() : 0.0;
  std::printf("\nwire, %d concurrent clients (stats verb):\n", kConnections);
  std::printf("  one request per connection: %10.0f req/s (%d requests)\n",
              serial_conn.rps(), serial_conn.requests);
  std::printf("  pipelined persistent conns: %10.0f req/s (%d requests)\n",
              pipelined.rps(), pipelined.requests);
  std::printf("  pipeline speedup:           %10.2fx\n", speedup);

  // Observability A/B: same binary, obs off vs on, untraced repairs.
  // Three interleaved trials, best rps per arm, so a noise spike in one
  // trial can't fail the CI gate (obs_overhead_ratio >= 0.95). Four
  // connections, each 128 deep, keep the queue full without the client
  // threads outnumbering the cores: with 32 connections on 4 cores the
  // ratio swung 0.93-1.07 between runs of one binary, with 4 it stayed
  // within 0.99-1.01. Each arm sends 16k repairs at scale 0.5 (1-2 s on
  // 4 cores), well above scheduler noise.
  const int kObsConnections = 4;
  const int obs_requests_per_conn = bench::ScaledN(8192);
  double obs_off_rps = 0.0, obs_on_rps = 0.0;
  int obs_requests = 0;
  for (int trial = 0; trial < 3; ++trial) {
    // Alternate which arm runs first so an order effect cannot bias the
    // ratio.
    for (bool observability : {trial % 2 == 1, trial % 2 == 0}) {
      WireRow row = MeasureObsMode(observability, kObsConnections,
                                   obs_requests_per_conn);
      double& best = observability ? obs_on_rps : obs_off_rps;
      if (row.rps() > best) best = row.rps();
      obs_requests = row.requests;
    }
  }
  const double obs_ratio = obs_off_rps > 0 ? obs_on_rps / obs_off_rps : 0.0;
  std::printf("\nobservability overhead, %d pipelined clients x %d repairs "
              "(best of 3):\n",
              kObsConnections, obs_requests_per_conn);
  std::printf("  observability off:          %10.0f req/s\n", obs_off_rps);
  std::printf("  observability on, untraced: %10.0f req/s\n", obs_on_rps);
  std::printf("  on/off throughput ratio:    %10.3f\n", obs_ratio);

  const Row& headline = rows.back();  // 8 workers x 4 tenants
  FILE* json = bench::OpenBenchJson("service");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"rows\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(json,
                   "    {\"workers\": %d, \"tenants\": %d, \"requests\": %d, "
                   "\"seconds\": %.6f, \"rps\": %.2f, "
                   "\"p50_seconds\": %.6f, \"p99_seconds\": %.6f}%s\n",
                   r.workers, r.tenants, r.requests, r.seconds, r.rps(),
                   r.p50, r.p99, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json,
                 "  ],\n"
                 "  \"headline_workers\": %d,\n"
                 "  \"headline_tenants\": %d,\n"
                 "  \"headline_rps\": %.2f,\n"
                 "  \"headline_p99_seconds\": %.6f,\n"
                 "  \"wire_connections\": %d,\n"
                 "  \"serial_conn_requests\": %d,\n"
                 "  \"serial_conn_rps\": %.2f,\n"
                 "  \"pipelined_requests\": %d,\n"
                 "  \"pipelined_rps\": %.2f,\n"
                 "  \"pipeline_speedup_x\": %.2f,\n"
                 "  \"obs_requests\": %d,\n"
                 "  \"obs_off_rps\": %.2f,\n"
                 "  \"obs_on_rps\": %.2f,\n"
                 "  \"obs_overhead_ratio\": %.4f\n"
                 "}\n",
                 headline.workers, headline.tenants, headline.rps(),
                 headline.p99, kConnections, serial_conn.requests,
                 serial_conn.rps(), pipelined.requests, pipelined.rps(),
                 speedup, obs_requests, obs_off_rps, obs_on_rps, obs_ratio);
    std::fclose(json);
  }
  return 0;
}
