#include "workload.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <set>
#include <stdexcept>

#include "bench.h"
#include "src/eval/generator.h"
#include "src/eval/perturb.h"
#include "src/relational/csv.h"
#include "src/util/rng.h"

namespace perfbench {

using retrust::CensusConfig;
using retrust::FD;
using retrust::GenerateCensusLike;
using retrust::Instance;
using retrust::Perturb;
using retrust::PerturbOptions;
using retrust::Rng;

namespace {

/// Offered load of serve_mix's window, in requests per second: about 14%
/// of the ~720 req/s a 4-vCPU x86-64 container sustains on this mix
/// (Release build; at 800 req/s the queue grows without bound, at 650 the
/// p99 is already 0.15 s). At 300 req/s and above, half or more of the
/// requests already wait behind others, so the window's wall-clock
/// latency medians sit on the steep flank between the unqueued mode and
/// the queueing tail and swing with the shared host's load. Fixed, so
/// every commit is offered the same load.
constexpr double kServeMixRate = 100.0;

/// Seeds the datasets. Generated tables differ so much in search and index
/// cost (±50% between generator seeds) that per-seed data would hide any
/// regression, so every run serves the same tables; --seed drives what is
/// asked of them: the request streams, the deltas and the arrival times.
constexpr uint64_t kDataSeed = 20130408;

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t h = a * 0x9e3779b97f4a7c15ull ^ (b + 0x632be59bd9b4e019ull);
  h ^= h >> 31;
  h *= 0xbf58476d1ce4e5b9ull;
  return h ^ (h >> 29);
}

/// Perturbs a clean census-like instance (data errors plus FDs with LHS
/// attributes removed, the paper's Σd) and writes it as CSV.
TenantData WriteTenant(const retrust::GeneratedData& clean,
                       const PerturbOptions& perturb, const std::string& path) {
  retrust::PerturbedData dirty =
      Perturb(clean.instance, clean.planted_fds, perturb);
  const Instance& inst = dirty.data;
  const retrust::Schema& schema = inst.schema();
  retrust::WriteCsvFile(inst, path);

  TenantData out;
  out.csv_path = path;
  out.num_tuples = inst.NumTuples();
  for (const FD& fd : dirty.fds.fds()) out.fds.push_back(fd.ToString(schema));
  if (inst.NumTuples() <= 10000) {
    for (retrust::TupleId t = 0; t < inst.NumTuples(); ++t) {
      std::vector<std::string> row;
      for (retrust::AttrId a = 0; a < schema.NumAttrs(); ++a) {
        const retrust::Value& v = inst.At(t, a);
        row.push_back(v.is_null() ? "" : v.ToString(schema.name(a)));
      }
      out.rows.push_back(std::move(row));
    }
  }
  for (retrust::AttrId a = 0; a < schema.NumAttrs(); ++a) {
    out.attr_names.push_back(schema.name(a));
    std::set<std::string> distinct;
    for (retrust::TupleId t = 0; t < inst.NumTuples(); ++t) {
      const retrust::Value& v = inst.At(t, a);
      if (!v.is_null()) distinct.insert(v.ToString(schema.name(a)));
    }
    out.values.emplace_back(distinct.begin(), distinct.end());
  }
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  out.csv_bytes = bytes.size();
  out.csv_hash = Fnv1a(bytes);
  return out;
}

Json RepairJson(const std::string& tenant, double tau_r, uint64_t seed,
                bool anytime) {
  Json::Object obj;
  obj["op"] = Json("repair");
  obj["tenant"] = Json(tenant);
  obj["tau_r"] = Json(tau_r);
  obj["seed"] = Json(seed);
  if (anytime) {
    obj["policy"] = Json("anytime");
    obj["weight"] = Json(2.0);
  }
  return Json(std::move(obj));
}

Json VerbJson(const char* verb, const std::string& tenant) {
  Json::Object obj;
  obj["op"] = Json(verb);
  obj["tenant"] = Json(tenant);
  return Json(std::move(obj));
}

Json::Array RandomRows(const TenantData& data, int rows, Rng* rng) {
  Json::Array out;
  for (int i = 0; i < rows; ++i) {
    Json::Array row;
    for (const auto& pool : data.values) row.push_back(Json(pool[rng->NextUint(pool.size())]));
    out.push_back(Json(std::move(row)));
  }
  return out;
}

Json InsertJson(const std::string& tenant, const TenantData& data, int rows,
                Rng* rng) {
  Json obj = VerbJson("apply_delta", tenant);
  obj.MutableObject()["inserts"] = Json(RandomRows(data, rows, rng));
  return obj;
}

/// Deletes the last `rows` of a table that has `base + rows` rows.
Json DeleteTailJson(const std::string& tenant, int base, int rows) {
  Json::Array deletes;
  for (int t = base; t < base + rows; ++t) deletes.push_back(Json(t));
  Json obj = VerbJson("apply_delta", tenant);
  obj.MutableObject()["deletes"] = Json(std::move(deletes));
  return obj;
}

/// About 20 mixed rows: 8 inserts, 8 cell updates, 4 deletes, against a
/// tenant that currently holds `*num_tuples` rows (updated on return).
Json DeltaJson(const std::string& tenant, const TenantData& data,
               int* num_tuples, Rng* rng) {
  const int m = static_cast<int>(data.attr_names.size());
  auto value = [&](int a) {
    const auto& pool = data.values[static_cast<size_t>(a)];
    return pool[rng->NextUint(pool.size())];
  };
  Json::Array inserts = RandomRows(data, 8, rng);
  std::set<int64_t> deleted;
  while (deleted.size() < 4) {
    deleted.insert(static_cast<int64_t>(rng->NextUint(*num_tuples)));
  }
  Json::Array updates;
  for (int i = 0; i < 8; ++i) {
    int64_t t = 0;
    do {
      t = static_cast<int64_t>(rng->NextUint(*num_tuples));
    } while (deleted.count(t) != 0);
    const int a = static_cast<int>(rng->NextUint(m));
    Json::Array update;
    update.push_back(Json(t));
    update.push_back(Json(data.attr_names[static_cast<size_t>(a)]));
    update.push_back(Json(value(a)));
    updates.push_back(Json(std::move(update)));
  }
  Json::Array deletes;
  for (int64_t t : deleted) deletes.push_back(Json(t));
  *num_tuples += 8 - 4;

  Json::Object obj;
  obj["op"] = Json("apply_delta");
  obj["tenant"] = Json(tenant);
  obj["inserts"] = Json(std::move(inserts));
  obj["updates"] = Json(std::move(updates));
  obj["deletes"] = Json(std::move(deletes));
  return Json(std::move(obj));
}

/// serve_mix's deltas come in cycles of three, so the tables stay as
/// generated on average instead of drifting: the first inserts 10
/// near-duplicates of existing rows (one cell changed) and updates 10
/// cells; the second deletes the last five of those rows (the tail, so
/// swap-remove moves nothing); the third deletes the other five and
/// restores the cells. Three kinds in equal shares keep the median inside
/// one kind's cost instead of in the gap between two.
class RevertingDeltas {
 public:
  RevertingDeltas(std::string tenant, const TenantData& data)
      : tenant_(std::move(tenant)), data_(data) {}

  Json Next(Rng* rng) {
    Json obj = VerbJson("apply_delta", tenant_);
    const int n = static_cast<int>(data_.rows.size());
    const int m = static_cast<int>(data_.attr_names.size());
    const int step = step_;
    step_ = (step_ + 1) % 3;
    if (step == 0) {
      Json::Array inserts;
      for (int i = 0; i < 10; ++i) {
        std::vector<std::string> row = data_.rows[rng->NextUint(n)];
        const int a = static_cast<int>(rng->NextUint(m));
        row[a] = data_.values[a][rng->NextUint(data_.values[a].size())];
        Json::Array cells;
        for (std::string& cell : row) cells.push_back(Json(std::move(cell)));
        inserts.push_back(Json(std::move(cells)));
      }
      std::set<std::pair<int, int>> touched;
      while (touched.size() < 10) {
        touched.insert({static_cast<int>(rng->NextUint(n)), static_cast<int>(rng->NextUint(m))});
      }
      Json::Array updates;
      for (auto [t, a] : touched) {
        const auto& pool = data_.values[a];
        updates.push_back(Cell(t, a, pool[rng->NextUint(pool.size())]));
        restore_.push_back(Cell(t, a, data_.rows[t][a]));
      }
      obj.MutableObject()["inserts"] = Json(std::move(inserts));
      obj.MutableObject()["updates"] = Json(std::move(updates));
      return obj;
    }
    Json::Array deletes;
    const int first = step == 1 ? n + 5 : n;
    for (int t = first; t < first + 5; ++t) deletes.push_back(Json(t));
    obj.MutableObject()["deletes"] = Json(std::move(deletes));
    if (step == 2) {
      obj.MutableObject()["updates"] = Json(std::move(restore_));
      restore_.clear();
    }
    return obj;
  }

 private:
  Json Cell(int t, int a, const std::string& value) const {
    Json::Array cell;
    cell.push_back(Json(t));
    cell.push_back(Json(data_.attr_names[static_cast<size_t>(a)]));
    cell.push_back(Json(value));
    return Json(std::move(cell));
  }

  std::string tenant_;
  const TenantData& data_;
  int step_ = 0;
  Json::Array restore_;
};

Op MakeOp(OpKind kind, int tenant, Json request, Role role = Role::kPlain) {
  Op op;
  op.kind = kind;
  op.role = role;
  op.tenant = tenant;
  op.request = std::move(request);
  return op;
}

Op SaveOp(int tenant, const std::string& name, const std::string& dir) {
  Op op = MakeOp(OpKind::kSave, tenant, VerbJson("save_snapshot", name));
  op.snapshot = dir + "/" + name + ".snap";
  op.request.MutableObject()["path"] = Json(op.snapshot);
  return op;
}

Op LoadOp(int tenant, const std::string& name, const TenantData& data) {
  Json request = VerbJson("load_tenant", name);
  request.MutableObject()["csv"] = Json(data.csv_path);
  Json::Array fds;
  for (const std::string& fd : data.fds) fds.push_back(Json(fd));
  request.MutableObject()["fds"] = Json(std::move(fds));
  return MakeOp(OpKind::kLoad, tenant, std::move(request));
}

/// load → cold repair → (save → unload → reload repair) × `rounds`. The
/// reload repair repeats the cold one, so their replies must be identical.
std::vector<Op> Lifecycle(int tenant, const std::string& name,
                          const TenantData& data, const std::string& dir,
                          double tau_r, bool anytime, int rounds) {
  std::vector<Op> ops;
  ops.push_back(LoadOp(tenant, name, data));
  ops.push_back(MakeOp(OpKind::kRepair, tenant,
                       RepairJson(name, tau_r, 1, anytime), Role::kCold));
  for (int r = 0; r < rounds; ++r) {
    ops.push_back(SaveOp(tenant, name, dir));
    ops.push_back(MakeOp(OpKind::kUnload, tenant, VerbJson("unload_tenant", name)));
    ops.push_back(MakeOp(OpKind::kRepair, tenant,
                         RepairJson(name, tau_r, 1, anytime), Role::kReload));
  }
  return ops;
}

/// A short-lived tenant of the serial phase over dataset `data`, so the
/// open, snapshot and reload paths are timed on every workload: load →
/// cold repair (τr 0.8) → `rounds` × (save → unload → reload repair) →
/// [insert 10 rows → delete 5 → delete 5] → unload. The deltas leave the
/// table as generated; two deletes per insert keep their costs from
/// splitting into two equal modes, which would put the median in the gap
/// between them.
std::vector<Op> Probe(Workload* w, int data, const std::string& dir, int rounds,
                      bool deltas, Rng* rng) {
  const int tenant = static_cast<int>(w->tenants.size());
  const std::string name = "p" + std::to_string(tenant);
  w->tenants.push_back({name, data, 0, /*probe=*/true});
  const TenantData& d = w->data[static_cast<size_t>(data)];
  std::vector<Op> ops = Lifecycle(tenant, name, d, dir, 0.8, true, rounds);
  if (deltas) {
    ops.push_back(MakeOp(OpKind::kDelta, tenant, InsertJson(name, d, 10, rng)));
    ops.push_back(MakeOp(OpKind::kDelta, tenant, DeleteTailJson(name, d.num_tuples + 5, 5)));
    ops.push_back(MakeOp(OpKind::kDelta, tenant, DeleteTailJson(name, d.num_tuples, 5)));
  }
  ops.push_back(MakeOp(OpKind::kUnload, tenant, VerbJson("unload_tenant", name)));
  return ops;
}

Workload ColdStart(uint64_t seed, const std::string& dir, const Bases& bases) {
  Workload w;
  w.name = "cold_start";
  w.connections = 1;
  w.layer_prefix = 2;
  // The three tenants are three perturbations of one clean instance.
  for (int i = 0; i < 3; ++i) {
    PerturbOptions perturb;
    perturb.data_error_rate = 0.01;
    perturb.fd_error_rate = 0.5;
    perturb.seed = Mix(kDataSeed, 200 + i);
    w.data.push_back(WriteTenant(
        bases.clean[0], perturb, dir + "/cold" + std::to_string(i) + ".csv"));
  }
  // A cycle opens each dataset under a fresh tenant name; cycles repeat the
  // three datasets until the window closes (at least one full pass).
  w.window.resize(1);
  w.window[0].min_units = 3;
  w.window[0].round = 3;
  for (int cycle = 0; cycle < 24; ++cycle) {
    for (int i = 0; i < 3; ++i) {
      const int tenant = static_cast<int>(w.tenants.size());
      const std::string name = "c" + std::to_string(cycle) + "t" + std::to_string(i);
      w.tenants.push_back({name, i, 0});
      const TenantData& data = w.data[static_cast<size_t>(i)];
      Rng rng(Mix(seed, 300 + i));  // same delta in every cycle
      int n = data.num_tuples;
      std::vector<Op> unit;
      unit.push_back(LoadOp(tenant, name, data));
      unit.push_back(MakeOp(OpKind::kRepair, tenant,
                            RepairJson(name, 0.5, 1, false), Role::kCold));
      for (int d = 0; d < 3; ++d) {
        unit.push_back(MakeOp(OpKind::kDelta, tenant, DeltaJson(name, data, &n, &rng)));
      }
      unit.push_back(MakeOp(OpKind::kRepair, tenant, RepairJson(name, 0.5, 2, true)));
      unit.push_back(SaveOp(tenant, name, dir));
      unit.push_back(MakeOp(OpKind::kUnload, tenant, VerbJson("unload_tenant", name)));
      unit.push_back(MakeOp(OpKind::kRepair, tenant,
                            RepairJson(name, 0.5, 2, true), Role::kReload));
      unit.push_back(MakeOp(OpKind::kUnload, tenant, VerbJson("unload_tenant", name)));
      w.window[0].units.push_back(std::move(unit));
    }
  }
  return w;
}

Workload SearchHeavy(uint64_t seed, const std::string& dir, const Bases& bases,
                     int connections, double seconds) {
  Workload w;
  w.name = "search_heavy";
  w.connections = std::min(4, connections);
  w.layer_prefix = 4;
  const int kTenants = 4;
  for (int i = 0; i < kTenants; ++i) {
    PerturbOptions perturb;
    perturb.fd_error_rate = 0.5;
    perturb.data_error_rate = 0.02;
    perturb.seed = Mix(kDataSeed, 200 + i);
    w.data.push_back(WriteTenant(bases.clean[static_cast<size_t>(i)], perturb,
                                 dir + "/search" + std::to_string(i) + ".csv"));
    w.tenants.push_back({"s" + std::to_string(i), i, i % w.connections});
    w.warmup.push_back(Lifecycle(i, w.tenants.back().name, w.data.back(), dir,
                                 0.8, /*anytime=*/true, /*rounds=*/1));
    // One delta pair that leaves the table as generated, so the write path
    // also runs on these tenants (and in their layer replay).
    Rng rng(Mix(seed, 300 + i));
    const std::string& name = w.tenants.back().name;
    w.warmup.back().push_back(
        MakeOp(OpKind::kDelta, i, InsertJson(name, w.data.back(), 10, &rng)));
    w.warmup.back().push_back(MakeOp(
        OpKind::kDelta, i, DeleteTailJson(name, w.data.back().num_tuples, 10)));
  }
  // Closed loop: every connection walks all four tenants round-robin, so
  // each sees the same mix. The four tenants only get repairs, which makes
  // replies independent of how requests to one tenant interleave across
  // connections; writes go to the serial phase's probes. Requests come from
  // a fixed τr × seed × policy grid, so repeats hit the tenant's warm cover
  // memo the way an explorer session does; one in four is exact.
  const double taus[] = {0.7, 0.75, 0.8, 0.9};
  auto repair = [&](int i, Rng* rng) {
    const bool exact = rng->NextUint(4) == 0;
    const double tau = taus[rng->NextUint(4)];
    const uint64_t s = 1 + rng->NextUint(2);
    return MakeOp(OpKind::kRepair, i,
                  RepairJson(w.tenants[static_cast<size_t>(i)].name, tau, s, !exact));
  };
  w.window_share = 0.5;
  const double window = seconds * w.window_share;
  const size_t per_connection = static_cast<size_t>(std::max(1000.0, window * 400));
  w.window.resize(static_cast<size_t>(w.connections));
  for (int c = 0; c < w.connections; ++c) {
    Rng rng(Mix(seed, 400 + c));
    for (size_t k = 0; k < per_connection; ++k) {
      const int i = static_cast<int>((static_cast<size_t>(c) + k) % kTenants);
      w.window[static_cast<size_t>(c)].units.push_back({repair(i, &rng)});
    }
  }
  // Serial phase: rounds of one probe lifecycle (datasets in turn, so every
  // run probes them in the same mix) and eight repairs from the window's
  // grid, tenants in turn. A round takes about 0.05 s, so about twice as
  // many rounds as the phase needs are generated.
  Rng rng(Mix(seed, 450));
  const size_t rounds = static_cast<size_t>(std::max(50.0, seconds * 20));
  for (size_t r = 0; r < rounds; ++r) {
    const int d = static_cast<int>(r % kTenants);
    w.serial.units.push_back(Probe(&w, d, dir, /*rounds=*/1, /*deltas=*/true, &rng));
    for (int k = 0; k < 8; ++k) w.serial.units.push_back({repair(k % kTenants, &rng)});
  }
  w.serial.round = 9;
  w.serial.min_units = 2 * w.serial.round;
  return w;
}

Workload ServeMix(uint64_t seed, const std::string& dir, const Bases& bases,
                  int connections, double seconds) {
  Workload w;
  w.name = "serve_mix";
  w.open_loop = true;
  w.rate = kServeMixRate;
  w.connections = std::min(4, connections);
  w.layer_prefix = 4;
  const int kTenants = 16;
  for (int i = 0; i < kTenants; ++i) {
    PerturbOptions perturb;
    perturb.data_error_rate = 0.02;
    perturb.fd_error_rate = 0.5;
    perturb.seed = Mix(kDataSeed, 200 + i);
    w.data.push_back(WriteTenant(bases.clean[static_cast<size_t>(i)], perturb,
                                 dir + "/mix" + std::to_string(i) + ".csv"));
    w.tenants.push_back({"m" + std::to_string(i), i, i % w.connections});
    w.warmup.push_back(Lifecycle(i, w.tenants.back().name, w.data.back(), dir,
                                 0.5, /*anytime=*/false, /*rounds=*/3));
  }
  std::vector<RevertingDeltas> deltas;
  for (int i = 0; i < kTenants; ++i) {
    deltas.emplace_back(w.tenants[static_cast<size_t>(i)].name,
                        w.data[static_cast<size_t>(i)]);
  }
  const double taus[] = {0.2, 0.35, 0.5, 0.65, 0.8};
  auto repair = [&](int i, Rng* rng) {
    const double tau = taus[rng->NextUint(5)];
    const uint64_t s = 1 + rng->NextUint(2);
    return MakeOp(OpKind::kRepair, i,
                  RepairJson(w.tenants[static_cast<size_t>(i)].name, tau, s,
                             rng->NextUint(5) == 0));
  };
  // Seeded Poisson arrivals; each picks a tenant uniformly: 80% repairs
  // over the τr grid (one in five anytime w=2), 20% reverting deltas of 20
  // rows. A delta waits for its tenant's in-flight reads (a lane barrier).
  w.window_share = 0.5;
  const double window = seconds * w.window_share;
  Rng rng(Mix(seed, 500));
  w.window.resize(static_cast<size_t>(w.connections));
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.NextDouble()) / w.rate;
    if (t >= window) break;
    const int i = static_cast<int>(rng.NextUint(kTenants));
    Op op = rng.NextUint(5) == 0
                ? MakeOp(OpKind::kDelta, i, deltas[static_cast<size_t>(i)].Next(&rng))
                : repair(i, &rng);
    op.due = t;
    const Tenant& tenant = w.tenants[static_cast<size_t>(i)];
    w.window[static_cast<size_t>(tenant.connection)].units.push_back({std::move(op)});
  }
  // Serial phase: rounds of one probe lifecycle (datasets in turn, three
  // save/unload/reload rounds each), eight repairs and one delta cycle on
  // a warm tenant (tenants in turn). A round takes about 0.1 s, so twice as
  // many rounds as the phase needs are generated.
  const size_t rounds = static_cast<size_t>(std::max(50.0, seconds * 10));
  for (size_t r = 0; r < rounds; ++r) {
    const int d = static_cast<int>(r % kTenants);
    w.serial.units.push_back(Probe(&w, d, dir, /*rounds=*/3, /*deltas=*/false, &rng));
    for (int k = 0; k < 8; ++k) {
      w.serial.units.push_back({repair(static_cast<int>(rng.NextUint(kTenants)), &rng)});
    }
    for (int k = 0; k < 3; ++k) {
      w.serial.units.push_back({MakeOp(OpKind::kDelta, d, deltas[static_cast<size_t>(d)].Next(&rng))});
    }
  }
  w.serial.round = 12;
  w.serial.min_units = 2 * w.serial.round;
  return w;
}

}  // namespace

uint64_t Workload::Digest() const {
  uint64_t h = Fnv1a(name);
  for (const TenantData& d : data) h = Mix(h, d.csv_hash);
  auto fold = [&h](const Op& op) {
    h = Fnv1a(op.request.Dump(), h);
    h = Mix(h, static_cast<uint64_t>(op.due * 1e9));
  };
  for (const auto& ops : warmup) {
    for (const Op& op : ops) fold(op);
  }
  for (const Stream& s : window) {
    for (const auto& unit : s.units) {
      for (const Op& op : unit) fold(op);
    }
  }
  for (const auto& unit : serial.units) {
    for (const Op& op : unit) fold(op);
  }
  return h;
}

bool KnownWorkload(const std::string& name) {
  return name == "cold_start" || name == "search_heavy" || name == "serve_mix";
}

Bases MakeBases(const std::string& name) {
  Bases bases;
  if (name == "cold_start") {
    // bench_scaling_tuples' shape: every attribute informative, near-uniform
    // popularity, a domain that grows with n so blocked classes stay small.
    CensusConfig gen;
    // 50k rows: a cycle takes ~2 s, so a 20 s window holds ~9 of them and
    // the medians repeat from run to run; at 100k it held 5 and did not.
    gen.num_tuples = 50000;
    gen.num_attrs = 8;
    gen.planted_lhs_sizes = {2, 2};
    gen.num_base_attrs = 6;
    gen.domain_size = gen.num_tuples / 8;
    gen.zipf_s = 0.15;
    gen.seed = Mix(kDataSeed, 100);
    bases.clean.push_back(GenerateCensusLike(gen));
  } else if (name == "search_heavy") {
    // bench_search_frontier's scale-0.5 shape: LHS width 4, |Σ| ∈ {3, 4}.
    for (int i = 0; i < 4; ++i) {
      CensusConfig gen;
      gen.num_tuples = 200;
      gen.num_attrs = 12;
      gen.planted_lhs_sizes.assign(i < 2 ? 3 : 4, 4);
      gen.seed = Mix(kDataSeed, 100 + i);
      bases.clean.push_back(GenerateCensusLike(gen));
    }
  } else {
    for (int i = 0; i < 16; ++i) {
      CensusConfig gen;
      gen.num_tuples = 500;
      gen.num_attrs = 8;
      gen.planted_lhs_sizes = {2, 2};
      gen.seed = Mix(kDataSeed, 100 + i);
      bases.clean.push_back(GenerateCensusLike(gen));
    }
  }
  return bases;
}

Workload MakeWorkload(const std::string& name, uint64_t seed,
                      const std::string& dir, const Bases& bases,
                      int connections, double window_seconds) {
  if (name == "cold_start") return ColdStart(seed, dir, bases);
  if (name == "search_heavy") {
    return SearchHeavy(seed, dir, bases, connections, window_seconds);
  }
  return ServeMix(seed, dir, bases, connections, window_seconds);
}

}  // namespace perfbench
