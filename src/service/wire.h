// The wire format of tools/retrust_server: newline-delimited JSON over a
// loopback socket, one request object per line, one response object per
// line. This header is the self-contained JSON layer (value type, parser,
// writer — standard library only, since the container bakes in no JSON
// dependency) plus the converters between wire objects and the api/ and
// service/ value types, shared by the server binary and its tests.
//
// Requests ({"op": ...}):
//   {"op":"load_tenant","tenant":"hosp","csv":"hosp.csv",
//    "fds":["Zip->City"]}                        lazy CSV registration
//   {"op":"repair","tenant":"hosp","tau":3}      Algorithm 1; or "tau_r"
//   {"op":"sweep","tenant":"hosp",
//    "requests":[{"tau":0},{"tau_r":0.5}]}       batched RepairMany
//   {"op":"apply_delta","tenant":"hosp",
//    "inserts":[["a","b","c"]],
//    "updates":[[12,"City","Springfield"]],
//    "deletes":[3,9]}                            Session::Apply
//   {"op":"stats"} / {"op":"stats","tenant":"hosp"}
//   {"op":"load_snapshot_tenant","tenant":"hosp",
//    "snapshot":"hosp.snap"}                      lazy snapshot restore
//   {"op":"save_snapshot","tenant":"hosp",
//    "path":"hosp.snap"}                          consistent-cut snapshot
//   {"op":"unload_tenant","tenant":"hosp"}        release session memory
//   {"op":"metrics"}                              registry exposition text
//   {"op":"dump_recent"} / {...,"limit":20}       flight-recorder dump
//   {"op":"shutdown"}
//
// Optional repair fields: "mode" ("astar"|"best_first"), "seed",
// "budget", "deadline_seconds" (the END-TO-END service deadline), "id"
// (any JSON value, echoed in the response untouched), and "trace" (true =
// the reply carries a "trace" span tree of where the request spent its
// time; absent/false = the reply is byte-identical to the untraced one).
//
// Responses: {"ok":true, ...verb fields...} or
// {"ok":false,"error":"<StatusCodeName>","message":"..."} — plus the
// echoed "id" when the request carried one.

#ifndef RETRUST_SERVICE_WIRE_H_
#define RETRUST_SERVICE_WIRE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/api/session.h"
#include "src/obs/flight_recorder.h"
#include "src/service/stats.h"

namespace retrust::service {

/// A JSON value. Numbers are doubles (every count this protocol carries
/// fits double's 2^53 integer range); objects keep sorted keys so Dump()
/// is deterministic.
class Json {
 public:
  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}          // NOLINT: implicit
  Json(double n) : type_(Type::kNumber), number_(n) {}    // NOLINT
  Json(int64_t n)                                         // NOLINT
      : type_(Type::kNumber), number_(static_cast<double>(n)) {}
  Json(int n) : type_(Type::kNumber), number_(n) {}       // NOLINT
  Json(uint64_t n)                                        // NOLINT: covers size_t
      : type_(Type::kNumber), number_(static_cast<double>(n)) {}
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}  // NOLINT
  Json(const char* s) : type_(Type::kString), string_(s) {}  // NOLINT
  Json(Array a) : type_(Type::kArray), array_(std::move(a)) {}  // NOLINT
  Json(Object o) : type_(Type::kObject), object_(std::move(o)) {}  // NOLINT

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool AsBool() const { return bool_; }
  double AsNumber() const { return number_; }
  const std::string& AsString() const { return string_; }
  const Array& AsArray() const { return array_; }
  const Object& AsObject() const { return object_; }
  Object& MutableObject() { return object_; }

  /// Member lookup on objects; nullptr when absent or not an object.
  const Json* Get(const std::string& key) const;

  /// Compact single-line serialization (sorted keys, escaped strings;
  /// integral numbers print without a fraction).
  std::string Dump() const;

 private:
  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Parses one JSON document (trailing whitespace allowed, trailing garbage
/// rejected). kInvalidArgument with a position on malformed input.
Result<Json> ParseJson(const std::string& text);

// --- wire <-> api conversions -------------------------------------------

/// Largest integer magnitude a JSON number (an IEEE double) holds exactly.
inline constexpr int64_t kMaxWireInt = int64_t{1} << 53;

/// The decoders' one checked integer read: `v` must be a number with no
/// fractional part inside [lo, hi] (both within ±kMaxWireInt), else
/// kInvalidArgument naming `field`. The range is checked before any
/// conversion, so out-of-range doubles never reach an undefined cast.
Result<int64_t> WireInt(const Json& v, const std::string& field, int64_t lo,
                        int64_t hi);

/// Reads the repair fields of a request object ("tau"/"tau_r", "mode",
/// "seed", "budget", "deadline_seconds") into a RepairRequest.
Result<RepairRequest> RepairRequestFromJson(const Json& obj);

/// Reads "inserts" (rows of per-column strings parsed against `schema`'s
/// types), "updates" ([tuple, attr name-or-index, value-string]) and
/// "deletes" (tuple ids) into a DeltaBatch.
Result<DeltaBatch> DeltaBatchFromJson(const Json& obj, const Schema& schema);

/// {"ok":false,"error":code_name,"message":...}.
Json ErrorJson(const Status& status);

Json ToJson(const RepairResponse& response, const Schema& schema);
Json ToJson(const SearchProbe& probe);
Json ToJson(const ApplyStats& stats);
Json ToJson(const ServerStats& stats);
Json ToJson(const TenantStats& stats);
/// {"name":...,"seconds":...,"count":...,"spans":[...children...]} —
/// "count"/"spans" are omitted when 1/empty, so plain spans stay small.
Json ToJson(const obs::TraceSpan& span);
Json ToJson(const obs::FlightRecord& record);

}  // namespace retrust::service

#endif  // RETRUST_SERVICE_WIRE_H_
