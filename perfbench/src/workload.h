// Workload definitions: the census-like tenants each workload serves and
// the request streams it sends. Everything here is a pure function of the
// workload name and the seed — the program under test only ever sees the
// CSV files and the request lines this produces.

#ifndef PERFBENCH_SRC_WORKLOAD_H_
#define PERFBENCH_SRC_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/eval/generator.h"
#include "src/service/wire.h"

namespace perfbench {

using retrust::service::Json;

enum class OpKind { kLoad, kRepair, kDelta, kSave, kUnload };

/// What an op is for when metrics are computed.
enum class Role {
  kPlain,   ///< counted in the window's repair/delta latencies
  kCold,    ///< first repair after load_tenant (cold_reply_s)
  kReload,  ///< first repair after unload_tenant (reload_reply_s)
};

struct Op {
  OpKind kind = OpKind::kRepair;
  Role role = Role::kPlain;
  int tenant = 0;        ///< index into Workload::tenants
  Json request;          ///< the request object, without "id"/"trace"
  double due = 0.0;      ///< open loop: seconds after the window opens
  std::string snapshot;  ///< save_snapshot target path (kSave only)
};

/// A generated dataset, written to `csv_path`.
struct TenantData {
  std::string csv_path;
  std::vector<std::string> fds;
  int num_tuples = 0;
  std::vector<std::string> attr_names;
  /// Distinct values per column (CSV text), the pool deltas draw from.
  std::vector<std::vector<std::string>> values;
  /// The rows as CSV text, kept for small tables only (serve_mix's deltas
  /// copy and restore them).
  std::vector<std::vector<std::string>> rows;
  uint64_t csv_bytes = 0;
  uint64_t csv_hash = 0;
};

/// A wire tenant: a name bound to one dataset. cold_start binds several
/// names (one per cycle) to the same dataset.
struct Tenant {
  std::string name;
  int data = 0;
  int connection = 0;
  /// A short-lived probe tenant of the serial phase: output-checked, but
  /// left out of the layer replay, whose counts must not depend on how many
  /// probes a run sent.
  bool probe = false;
};

/// One request stream for one connection. A closed loop sends units one
/// after another and stops starting new units once its time is up, at
/// least `min_units` ran and the units sent make whole rounds of `round`
/// (so every kind of unit in a round is sampled equally often); an open
/// loop sends every op at its due time.
struct Stream {
  std::vector<std::vector<Op>> units;
  size_t min_units = 1;
  size_t round = 1;
};

struct Workload {
  std::string name;
  bool open_loop = false;
  double rate = 0.0;  ///< open loop arrivals per second
  int connections = 1;
  std::vector<TenantData> data;
  std::vector<Tenant> tenants;
  /// Per-tenant ops run during set-up (the warm-up lifecycle), by tenant.
  std::vector<std::vector<Op>> warmup;
  /// Timed window, by connection. It takes `window_share` of the run's
  /// seconds; the serial phase takes the rest.
  std::vector<Stream> window;
  double window_share = 1.0;
  /// Serial phase, after the window: units sent one op at a time on
  /// connection 0 while nothing else is in flight, so each reply's cost can
  /// be read off the process CPU clock. Empty when the window is serial
  /// already (cold_start).
  Stream serial;
  /// Repairs per tenant (in stream order, before its first delta) that the
  /// traced run also replays through the layer functions.
  int layer_prefix = 0;

  /// FNV-1a over every request line and every CSV byte: equal seeds must
  /// give equal digests.
  uint64_t Digest() const;
};

bool KnownWorkload(const std::string& name);

/// The clean census-like instances a workload perturbs into its tenants.
/// Generated once per process, before the first set-up: src/eval's zipf
/// sampler costs O(domain) per draw, which at cold_start's n = 50k and
/// domain n/8 is seconds of benchmark-side work no program change can move.
struct Bases {
  std::vector<retrust::GeneratedData> clean;
};
Bases MakeBases(const std::string& name);

/// Perturbs the bases into the workload's tenants (writing their CSVs under
/// `dir`) and builds its request streams. `connections` is the connection
/// cap (nproc).
Workload MakeWorkload(const std::string& name, uint64_t seed,
                      const std::string& dir, const Bases& bases,
                      int connections, double window_seconds);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOAD_H_
