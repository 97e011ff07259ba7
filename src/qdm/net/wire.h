#ifndef QDM_NET_WIRE_H_
#define QDM_NET_WIRE_H_

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

#include "qdm/anneal/qubo.h"
#include "qdm/anneal/sampler.h"
#include "qdm/anneal/solver.h"
#include "qdm/common/status.h"
#include "qdm/net/json.h"
#include "qdm/service/job.h"

namespace qdm {
namespace net {

/// JSON wire format for the qdmd solver daemon (docs/network.md).
///
/// Design invariants:
///
///  - Versioned envelope: every request and response body is a JSON object
///    carrying "version": kWireVersion. Documents with a different version
///    are rejected with InvalidArgument before any field is interpreted, so
///    the format can evolve without silent misdecodes.
///  - Bit-exact round trip: doubles are encoded with "%.17g" and decoded
///    with strtod (the exact inverse), and 64-bit integers (job ids, seeds)
///    travel as raw integer tokens, never through a double. Consequently
///    Decode*(Encode*(x)) == x bit for bit — the property that extends the
///    toolkit's determinism contract across the network (and what makes
///    recorded request/response pairs replayable for the adaptive-portfolio
///    work in the ROADMAP).
///  - Strict decoding: unknown object fields, wrong types, non-finite
///    numbers, truncated documents, and oversized payloads are all
///    InvalidArgument, with the offending field named by its dotted path
///    ("options.num_reads", "qubo.linear[3]").
///  - Stable field names: the identifiers below are the protocol; renaming
///    one is a wire-version bump.
constexpr int kWireVersion = 1;

/// Hard cap on one request/response body. Oversized payloads are rejected
/// at the envelope (and by the HTTP server before buffering that much).
constexpr size_t kMaxPayloadBytes = 8u * 1024 * 1024;

/// Cap on Qubo::num_variables accepted from the wire — a decode-side guard
/// so a hostile 4-byte body cannot demand a multi-gigabyte allocation. The
/// floor is 1: Qubo itself requires at least one variable, so the decoder
/// turns smaller counts into InvalidArgument before construction.
constexpr int kMaxWireVariables = 1 << 20;

/// Parses `text` into a JSON object and checks the size cap and the
/// "version" field. Every Decode* entry point below goes through this.
Result<JsonValue> ParseEnvelope(const std::string& text);

// -- Core model types ---------------------------------------------------------
//
// Qubo          {"num_variables": n, "offset": x, "linear": [x...],
//                "quadratic": [[i, j, x]...]}
// SolverOptions {"num_reads": n, "seed": u64, "num_sweeps": n, ...
//                every knob; "chain_break_policy" travels by name
//                ("majority_vote" | "minimize_energy" | "discard")}
// SampleSet     {"samples": [{"assignment": [0|1...], "energy": x,
//                "chain_break_fraction": x}...]} plus two conditional
//                fields omitted at their defaults so v1 payloads stay
//                byte-identical: "noise_fidelity" (when != 1.0, from a
//                noisy:* backend) and "decision" (when non-empty, the
//                adaptive:* "<phase>:<arm>:<member>" record that
//                ReplayAdaptiveDecision replays bit-exactly)
//
// Append* writes the canonical encoding (all fields, stable order) to
// `out`; Decode* accepts any field order, defaults omitted option knobs,
// and rejects unknown fields. `field` is the dotted path prefix used in
// error messages.

void AppendQuboJson(const anneal::Qubo& qubo, std::string* out);
Result<anneal::Qubo> DecodeQubo(const JsonValue& value,
                                const std::string& field);

void AppendSolverOptionsJson(const anneal::SolverOptions& options,
                             std::string* out);
Result<anneal::SolverOptions> DecodeSolverOptions(const JsonValue& value,
                                                  const std::string& field);

void AppendSampleSetJson(const anneal::SampleSet& samples, std::string* out);
Result<anneal::SampleSet> DecodeSampleSet(const JsonValue& value,
                                          const std::string& field);

// -- Job submission (POST /v1/jobs) -------------------------------------------

/// One submission, covering all three SolverService entry points:
///
///   {"version": 1, "type": "submit",       "solver": "...",
///    "qubo": {...},    "options": {...}, "deadline_ns": u64}
///   {"version": 1, "type": "submit_batch", "solver": "...",
///    "qubos": [{...}], "options": {...}, "deadline_ns": u64}
///   {"version": 1, "type": "submit_race",  "members": ["...", "..."],
///    "qubo": {...},    "options": {...}, "deadline_ns": u64}
///
/// "options" and "deadline_ns" are optional (defaults: default-constructed
/// SolverOptions, no deadline).
struct JobRequest {
  enum class Type { kSubmit, kSubmitBatch, kSubmitRace };

  Type type = Type::kSubmit;
  std::string solver;                // kSubmit / kSubmitBatch.
  std::vector<std::string> members;  // kSubmitRace.
  std::vector<anneal::Qubo> qubos;   // Exactly one except kSubmitBatch.
  anneal::SolverOptions options;
  std::chrono::nanoseconds deadline{0};
};

std::string EncodeJobRequest(const JobRequest& request);
Result<JobRequest> DecodeJobRequest(const std::string& body);

// -- Response bodies ----------------------------------------------------------

/// {"version": 1, "error": {"code": "NotFound", "message": "..."}} — the
/// body of every non-2xx response. The (code, message) pair IS the remote
/// Status: decoding EncodeErrorBody(s) yields s exactly, which is how the
/// client surfaces the server's sync-path Status to its caller. On success
/// the remote status is written to `*remote` and Ok is returned; a
/// malformed body is InvalidArgument (and `*remote` is untouched).
/// (An out parameter because Result<Status> would be ambiguous.)
std::string EncodeErrorBody(const Status& status);
Status DecodeErrorBody(const std::string& body, Status* remote);

/// {"version": 1, "id": n} — a job was accepted.
std::string EncodeSubmitResponse(service::JobId id);
Result<service::JobId> DecodeSubmitResponse(const std::string& body);

/// {"version": 1, "id": n, "state": "Running",
///  "status": {"code": "...", "message": "..."}} — a Poll snapshot.
std::string EncodeSnapshotResponse(const service::JobSnapshot& snapshot);
Result<service::JobSnapshot> DecodeSnapshotResponse(const std::string& body);

/// {"version": 1, "results": [<SampleSet>...]} — a successful Wait (one
/// entry per batch instance; submit/race jobs carry exactly one).
std::string EncodeResultsResponse(
    const std::vector<anneal::SampleSet>& results);
Result<std::vector<anneal::SampleSet>> DecodeResultsResponse(
    const std::string& body);

/// {"version": 1, "id": n, "cancelled": true} — a Cancel was accepted.
std::string EncodeCancelResponse(service::JobId id);

/// {"version": 1, "solvers": ["...", ...]} — RegisteredNames().
std::string EncodeSolversResponse(const std::vector<std::string>& names);
Result<std::vector<std::string>> DecodeSolversResponse(
    const std::string& body);

/// {"version": 1, "stats": {<ServiceStats counters>},
///  "accepting": bool, "num_workers": n} — GET /v1/stats.
struct StatsResponse {
  service::ServiceStats stats;
  bool accepting = true;
  int num_workers = 0;
};

std::string EncodeStatsResponse(const StatsResponse& response);
Result<StatsResponse> DecodeStatsResponse(const std::string& body);

/// {"version": 1, "status": "serving", "accepting": bool} — GET /healthz.
std::string EncodeHealthResponse(bool accepting);

}  // namespace net
}  // namespace qdm

#endif  // QDM_NET_WIRE_H_
