#include "qdm/net/wire.h"

#include <utility>

#include "qdm/common/strings.h"

namespace qdm {
namespace net {

namespace {

using anneal::ChainBreakPolicy;
using anneal::Qubo;
using anneal::Sample;
using anneal::SampleSet;
using anneal::SolverOptions;
using service::JobId;
using service::JobSnapshot;
using service::JobState;

Status TypeError(const std::string& field, const char* expected,
                 const JsonValue& value) {
  return Status::InvalidArgument(StrFormat("%s: expected %s, got %s",
                                           field.c_str(), expected,
                                           value.TypeName()));
}

Status MissingError(const std::string& field) {
  return Status::InvalidArgument(
      StrFormat("%s: missing required field", field.c_str()));
}

/// Strict-decode guard: every member of `value` must be in `allowed`.
Status RejectUnknownFields(const JsonValue& value, const std::string& field,
                           const std::vector<const char*>& allowed) {
  for (const auto& [key, unused] : value.members()) {
    bool known = false;
    for (const char* name : allowed) {
      if (key == name) {
        known = true;
        break;
      }
    }
    if (!known) {
      return Status::InvalidArgument(
          StrFormat("%s.%s: unknown field", field.c_str(), key.c_str()));
    }
  }
  return Status::Ok();
}

Result<int> DecodeIntField(const JsonValue& object, const std::string& field,
                           const char* key, int fallback) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr) return fallback;
  const std::string path = field + "." + key;
  QDM_ASSIGN_OR_RETURN(const int64_t wide, value->AsInt64(path));
  if (wide < INT32_MIN || wide > INT32_MAX) {
    return Status::InvalidArgument(
        StrFormat("%s: integer %lld out of int range", path.c_str(),
                  static_cast<long long>(wide)));
  }
  return static_cast<int>(wide);
}

Result<double> DecodeDoubleField(const JsonValue& object,
                                 const std::string& field, const char* key,
                                 double fallback) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr) return fallback;
  return value->AsDouble(field + "." + key);
}

const char* ChainBreakPolicyName(ChainBreakPolicy policy) {
  switch (policy) {
    case ChainBreakPolicy::kMajorityVote:
      return "majority_vote";
    case ChainBreakPolicy::kMinimizeEnergy:
      return "minimize_energy";
    case ChainBreakPolicy::kDiscard:
      return "discard";
  }
  return "majority_vote";
}

void AppendVersionPrefix(std::string* out) {
  *out += StrFormat("{\"version\":%d,", kWireVersion);
}

std::string WrapEnvelope(const std::string& fields) {
  std::string out;
  AppendVersionPrefix(&out);
  out += fields;
  out += "}";
  return out;
}

Result<JobId> DecodeJobIdField(const JsonValue& envelope,
                               const std::string& field, const char* key) {
  const JsonValue* id = envelope.Find(key);
  if (id == nullptr) return MissingError(field + "." + key);
  QDM_ASSIGN_OR_RETURN(const uint64_t value,
                       id->AsUint64(field + "." + key));
  return static_cast<JobId>(value);
}

}  // namespace

Result<JsonValue> ParseEnvelope(const std::string& text) {
  if (text.size() > kMaxPayloadBytes) {
    return Status::InvalidArgument(
        StrFormat("payload: %zu bytes exceeds the %zu-byte wire limit",
                  text.size(), kMaxPayloadBytes));
  }
  QDM_ASSIGN_OR_RETURN(JsonValue value, JsonParse(text));
  if (!value.is_object()) {
    return TypeError("envelope", "a JSON object", value);
  }
  const JsonValue* version = value.Find("version");
  if (version == nullptr) {
    return Status::InvalidArgument(StrFormat(
        "version: missing required field (this endpoint speaks wire "
        "version %d)",
        kWireVersion));
  }
  QDM_ASSIGN_OR_RETURN(const int64_t parsed, version->AsInt64("version"));
  if (parsed != kWireVersion) {
    return Status::InvalidArgument(StrFormat(
        "version: unsupported wire version %lld (this endpoint speaks %d)",
        static_cast<long long>(parsed), kWireVersion));
  }
  return value;
}

// -- Qubo ---------------------------------------------------------------------

void AppendQuboJson(const Qubo& qubo, std::string* out) {
  *out += StrFormat("{\"num_variables\":%d,\"offset\":",
                    qubo.num_variables());
  JsonAppendDouble(qubo.offset(), out);
  *out += ",\"linear\":[";
  for (int i = 0; i < qubo.num_variables(); ++i) {
    if (i > 0) out->push_back(',');
    JsonAppendDouble(qubo.linear(i), out);
  }
  *out += "],\"quadratic\":[";
  bool first = true;
  for (const auto& [key, weight] : qubo.quadratic_terms()) {
    if (!first) out->push_back(',');
    first = false;
    *out += StrFormat("[%d,%d,", key.first, key.second);
    JsonAppendDouble(weight, out);
    out->push_back(']');
  }
  *out += "]}";
}

Result<Qubo> DecodeQubo(const JsonValue& value, const std::string& field) {
  if (!value.is_object()) return TypeError(field, "a JSON object", value);
  QDM_RETURN_IF_ERROR(RejectUnknownFields(
      value, field, {"num_variables", "offset", "linear", "quadratic"}));

  const JsonValue* num_variables = value.Find("num_variables");
  if (num_variables == nullptr) {
    return MissingError(field + ".num_variables");
  }
  QDM_ASSIGN_OR_RETURN(const int64_t n, num_variables->AsInt64(
                                            field + ".num_variables"));
  if (n < 1 || n > kMaxWireVariables) {
    return Status::InvalidArgument(StrFormat(
        "%s.num_variables: %lld outside [1, %d]", field.c_str(),
        static_cast<long long>(n), kMaxWireVariables));
  }
  Qubo qubo(static_cast<int>(n));

  QDM_ASSIGN_OR_RETURN(const double offset,
                       DecodeDoubleField(value, field, "offset", 0.0));
  qubo.AddOffset(offset);

  const JsonValue* linear = value.Find("linear");
  if (linear != nullptr) {
    const std::string path = field + ".linear";
    if (!linear->is_array()) return TypeError(path, "an array", *linear);
    if (linear->array().size() != static_cast<size_t>(n)) {
      return Status::InvalidArgument(StrFormat(
          "%s: expected %lld entries (one per variable), got %zu",
          path.c_str(), static_cast<long long>(n), linear->array().size()));
    }
    for (size_t i = 0; i < linear->array().size(); ++i) {
      QDM_ASSIGN_OR_RETURN(
          const double weight,
          linear->array()[i].AsDouble(StrFormat("%s[%zu]", path.c_str(), i)));
      if (weight != 0.0) qubo.AddLinear(static_cast<int>(i), weight);
    }
  }

  const JsonValue* quadratic = value.Find("quadratic");
  if (quadratic != nullptr) {
    const std::string path = field + ".quadratic";
    if (!quadratic->is_array()) {
      return TypeError(path, "an array", *quadratic);
    }
    for (size_t t = 0; t < quadratic->array().size(); ++t) {
      const JsonValue& term = quadratic->array()[t];
      const std::string term_path = StrFormat("%s[%zu]", path.c_str(), t);
      if (!term.is_array() || term.array().size() != 3) {
        return Status::InvalidArgument(StrFormat(
            "%s: expected an [i, j, weight] triple", term_path.c_str()));
      }
      QDM_ASSIGN_OR_RETURN(const int64_t i,
                           term.array()[0].AsInt64(term_path + "[0]"));
      QDM_ASSIGN_OR_RETURN(const int64_t j,
                           term.array()[1].AsInt64(term_path + "[1]"));
      QDM_ASSIGN_OR_RETURN(const double weight,
                           term.array()[2].AsDouble(term_path + "[2]"));
      if (i < 0 || i >= n || j < 0 || j >= n || i == j) {
        return Status::InvalidArgument(StrFormat(
            "%s: variable pair (%lld, %lld) invalid for %lld variables",
            term_path.c_str(), static_cast<long long>(i),
            static_cast<long long>(j), static_cast<long long>(n)));
      }
      qubo.AddQuadratic(static_cast<int>(i), static_cast<int>(j), weight);
    }
  }
  return qubo;
}

// -- SolverOptions ------------------------------------------------------------

void AppendSolverOptionsJson(const SolverOptions& options, std::string* out) {
  *out += StrFormat("{\"num_reads\":%d,\"seed\":%llu,\"num_sweeps\":%d,",
                    options.num_reads,
                    static_cast<unsigned long long>(options.seed),
                    options.num_sweeps);
  *out += "\"beta_min\":";
  JsonAppendDouble(options.beta_min, out);
  *out += ",\"beta_max\":";
  JsonAppendDouble(options.beta_max, out);
  *out += StrFormat(
      ",\"num_replicas\":%d,\"swap_interval\":%d,\"max_iterations\":%d,"
      "\"tenure\":%d,\"layers\":%d,\"restarts\":%d,\"max_qubits\":%d,",
      options.num_replicas, options.swap_interval, options.max_iterations,
      options.tenure, options.layers, options.restarts, options.max_qubits);
  *out += "\"chain_strength\":";
  JsonAppendDouble(options.chain_strength, out);
  *out += StrFormat(",\"chain_break_policy\":\"%s\"}",
                    ChainBreakPolicyName(options.chain_break_policy));
}

Result<SolverOptions> DecodeSolverOptions(const JsonValue& value,
                                          const std::string& field) {
  if (!value.is_object()) return TypeError(field, "a JSON object", value);
  QDM_RETURN_IF_ERROR(RejectUnknownFields(
      value, field,
      {"num_reads", "seed", "num_sweeps", "beta_min", "beta_max",
       "num_replicas", "swap_interval", "max_iterations", "tenure", "layers",
       "restarts", "max_qubits", "chain_strength", "chain_break_policy"}));

  SolverOptions options;
  QDM_ASSIGN_OR_RETURN(
      options.num_reads,
      DecodeIntField(value, field, "num_reads", options.num_reads));
  const JsonValue* seed = value.Find("seed");
  if (seed != nullptr) {
    QDM_ASSIGN_OR_RETURN(options.seed, seed->AsUint64(field + ".seed"));
  }
  QDM_ASSIGN_OR_RETURN(options.num_sweeps,
                       DecodeIntField(value, field, "num_sweeps", 0));
  QDM_ASSIGN_OR_RETURN(options.beta_min,
                       DecodeDoubleField(value, field, "beta_min", 0.0));
  QDM_ASSIGN_OR_RETURN(options.beta_max,
                       DecodeDoubleField(value, field, "beta_max", 0.0));
  QDM_ASSIGN_OR_RETURN(options.num_replicas,
                       DecodeIntField(value, field, "num_replicas", 0));
  QDM_ASSIGN_OR_RETURN(options.swap_interval,
                       DecodeIntField(value, field, "swap_interval", 0));
  QDM_ASSIGN_OR_RETURN(options.max_iterations,
                       DecodeIntField(value, field, "max_iterations", 0));
  QDM_ASSIGN_OR_RETURN(options.tenure,
                       DecodeIntField(value, field, "tenure", 0));
  QDM_ASSIGN_OR_RETURN(options.layers,
                       DecodeIntField(value, field, "layers", 0));
  QDM_ASSIGN_OR_RETURN(options.restarts,
                       DecodeIntField(value, field, "restarts", 0));
  QDM_ASSIGN_OR_RETURN(options.max_qubits,
                       DecodeIntField(value, field, "max_qubits", 0));
  QDM_ASSIGN_OR_RETURN(options.chain_strength,
                       DecodeDoubleField(value, field, "chain_strength", 0.0));

  const JsonValue* policy = value.Find("chain_break_policy");
  if (policy != nullptr) {
    const std::string path = field + ".chain_break_policy";
    if (!policy->is_string()) return TypeError(path, "a string", *policy);
    const std::string& name = policy->string_value();
    if (name == "majority_vote") {
      options.chain_break_policy = ChainBreakPolicy::kMajorityVote;
    } else if (name == "minimize_energy") {
      options.chain_break_policy = ChainBreakPolicy::kMinimizeEnergy;
    } else if (name == "discard") {
      options.chain_break_policy = ChainBreakPolicy::kDiscard;
    } else {
      return Status::InvalidArgument(StrFormat(
          "%s: unknown policy '%s' (majority_vote | minimize_energy | "
          "discard)",
          path.c_str(), name.c_str()));
    }
  }
  return options;
}

// -- SampleSet ----------------------------------------------------------------

void AppendSampleSetJson(const SampleSet& samples, std::string* out) {
  *out += "{\"samples\":[";
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& sample = samples.samples()[i];
    if (i > 0) out->push_back(',');
    *out += "{\"assignment\":[";
    for (size_t v = 0; v < sample.assignment.size(); ++v) {
      if (v > 0) out->push_back(',');
      *out += StrFormat("%d", sample.assignment[v]);
    }
    *out += "],\"energy\":";
    JsonAppendDouble(sample.energy, out);
    *out += ",\"chain_break_fraction\":";
    JsonAppendDouble(sample.chain_break_fraction, out);
    out->push_back('}');
  }
  out->push_back(']');
  // Emitted only when a noisy backend set it, so noiseless payloads stay
  // byte-identical to the v1 wire format.
  if (samples.noise_fidelity() != 1.0) {
    *out += ",\"noise_fidelity\":";
    JsonAppendDouble(samples.noise_fidelity(), out);
  }
  // Same conditional-field discipline: only adaptive:* solves carry a
  // decision record, so every other payload stays byte-identical to the
  // v1 wire format. The record is what makes a remote adaptive solve
  // replayable bit-exactly (anneal::ReplayAdaptiveDecision).
  if (!samples.decision().empty()) {
    *out += ",\"decision\":";
    JsonAppendQuoted(samples.decision(), out);
  }
  out->push_back('}');
}

Result<SampleSet> DecodeSampleSet(const JsonValue& value,
                                  const std::string& field) {
  if (!value.is_object()) return TypeError(field, "a JSON object", value);
  QDM_RETURN_IF_ERROR(RejectUnknownFields(
      value, field, {"samples", "noise_fidelity", "decision"}));
  const JsonValue* samples = value.Find("samples");
  if (samples == nullptr) return MissingError(field + ".samples");
  if (!samples->is_array()) {
    return TypeError(field + ".samples", "an array", *samples);
  }

  std::vector<Sample> decoded;
  decoded.reserve(samples->array().size());
  for (size_t s = 0; s < samples->array().size(); ++s) {
    const JsonValue& entry = samples->array()[s];
    const std::string path = StrFormat("%s.samples[%zu]", field.c_str(), s);
    if (!entry.is_object()) return TypeError(path, "a JSON object", entry);
    QDM_RETURN_IF_ERROR(RejectUnknownFields(
        entry, path, {"assignment", "energy", "chain_break_fraction"}));

    Sample sample;
    const JsonValue* assignment = entry.Find("assignment");
    if (assignment == nullptr) return MissingError(path + ".assignment");
    if (!assignment->is_array()) {
      return TypeError(path + ".assignment", "an array", *assignment);
    }
    sample.assignment.reserve(assignment->array().size());
    for (size_t v = 0; v < assignment->array().size(); ++v) {
      const std::string bit_path =
          StrFormat("%s.assignment[%zu]", path.c_str(), v);
      QDM_ASSIGN_OR_RETURN(const int64_t bit,
                           assignment->array()[v].AsInt64(bit_path));
      if (bit != 0 && bit != 1) {
        return Status::InvalidArgument(
            StrFormat("%s: expected 0 or 1, got %lld", bit_path.c_str(),
                      static_cast<long long>(bit)));
      }
      sample.assignment.push_back(static_cast<int>(bit));
    }

    const JsonValue* energy = entry.Find("energy");
    if (energy == nullptr) return MissingError(path + ".energy");
    QDM_ASSIGN_OR_RETURN(sample.energy, energy->AsDouble(path + ".energy"));
    QDM_ASSIGN_OR_RETURN(
        sample.chain_break_fraction,
        DecodeDoubleField(entry, path, "chain_break_fraction", 0.0));
    decoded.push_back(std::move(sample));
  }

  // SampleSet::Add inserts BEFORE samples of equal energy, so re-adding the
  // (already energy-sorted) wire order back to front reproduces the
  // original vector exactly — including the relative order of ties, which
  // the bit-identity contract covers.
  SampleSet set;
  for (size_t s = decoded.size(); s > 0; --s) {
    set.Add(std::move(decoded[s - 1]));
  }
  QDM_ASSIGN_OR_RETURN(
      const double fidelity,
      DecodeDoubleField(value, field, "noise_fidelity", 1.0));
  set.set_noise_fidelity(fidelity);
  const JsonValue* decision = value.Find("decision");
  if (decision != nullptr) {
    if (!decision->is_string()) {
      return TypeError(field + ".decision", "a string", *decision);
    }
    set.set_decision(decision->string_value());
  }
  return set;
}

// -- Job submission -----------------------------------------------------------

std::string EncodeJobRequest(const JobRequest& request) {
  std::string fields;
  switch (request.type) {
    case JobRequest::Type::kSubmit: {
      QDM_CHECK(request.qubos.size() == 1)
          << "submit carries exactly one qubo";
      fields += "\"type\":\"submit\",\"solver\":";
      JsonAppendQuoted(request.solver, &fields);
      fields += ",\"qubo\":";
      AppendQuboJson(request.qubos[0], &fields);
      break;
    }
    case JobRequest::Type::kSubmitBatch: {
      fields += "\"type\":\"submit_batch\",\"solver\":";
      JsonAppendQuoted(request.solver, &fields);
      fields += ",\"qubos\":[";
      for (size_t i = 0; i < request.qubos.size(); ++i) {
        if (i > 0) fields.push_back(',');
        AppendQuboJson(request.qubos[i], &fields);
      }
      fields += "]";
      break;
    }
    case JobRequest::Type::kSubmitRace: {
      QDM_CHECK(request.qubos.size() == 1)
          << "submit_race carries exactly one qubo";
      fields += "\"type\":\"submit_race\",\"members\":[";
      for (size_t i = 0; i < request.members.size(); ++i) {
        if (i > 0) fields.push_back(',');
        JsonAppendQuoted(request.members[i], &fields);
      }
      fields += "],\"qubo\":";
      AppendQuboJson(request.qubos[0], &fields);
      break;
    }
  }
  fields += ",\"options\":";
  AppendSolverOptionsJson(request.options, &fields);
  if (request.deadline.count() > 0) {
    fields += StrFormat(
        ",\"deadline_ns\":%llu",
        static_cast<unsigned long long>(request.deadline.count()));
  }
  return WrapEnvelope(fields);
}

Result<JobRequest> DecodeJobRequest(const std::string& body) {
  QDM_ASSIGN_OR_RETURN(const JsonValue envelope, ParseEnvelope(body));
  QDM_RETURN_IF_ERROR(RejectUnknownFields(
      envelope, "request",
      {"version", "type", "solver", "members", "qubo", "qubos", "options",
       "deadline_ns"}));

  JobRequest request;
  const JsonValue* type = envelope.Find("type");
  if (type == nullptr) return MissingError("request.type");
  if (!type->is_string()) {
    return TypeError("request.type", "a string", *type);
  }
  const std::string& type_name = type->string_value();
  if (type_name == "submit") {
    request.type = JobRequest::Type::kSubmit;
  } else if (type_name == "submit_batch") {
    request.type = JobRequest::Type::kSubmitBatch;
  } else if (type_name == "submit_race") {
    request.type = JobRequest::Type::kSubmitRace;
  } else {
    return Status::InvalidArgument(StrFormat(
        "request.type: unknown type '%s' (submit | submit_batch | "
        "submit_race)",
        type_name.c_str()));
  }

  if (request.type == JobRequest::Type::kSubmitRace) {
    const JsonValue* members = envelope.Find("members");
    if (members == nullptr) return MissingError("request.members");
    if (!members->is_array()) {
      return TypeError("request.members", "an array", *members);
    }
    for (size_t i = 0; i < members->array().size(); ++i) {
      const JsonValue& member = members->array()[i];
      if (!member.is_string()) {
        return TypeError(StrFormat("request.members[%zu]", i), "a string",
                         member);
      }
      request.members.push_back(member.string_value());
    }
  } else {
    const JsonValue* solver = envelope.Find("solver");
    if (solver == nullptr) return MissingError("request.solver");
    if (!solver->is_string()) {
      return TypeError("request.solver", "a string", *solver);
    }
    request.solver = solver->string_value();
  }

  if (request.type == JobRequest::Type::kSubmitBatch) {
    const JsonValue* qubos = envelope.Find("qubos");
    if (qubos == nullptr) return MissingError("request.qubos");
    if (!qubos->is_array()) {
      return TypeError("request.qubos", "an array", *qubos);
    }
    for (size_t i = 0; i < qubos->array().size(); ++i) {
      QDM_ASSIGN_OR_RETURN(
          Qubo qubo, DecodeQubo(qubos->array()[i],
                                StrFormat("request.qubos[%zu]", i)));
      request.qubos.push_back(std::move(qubo));
    }
  } else {
    const JsonValue* qubo = envelope.Find("qubo");
    if (qubo == nullptr) return MissingError("request.qubo");
    QDM_ASSIGN_OR_RETURN(Qubo decoded, DecodeQubo(*qubo, "request.qubo"));
    request.qubos.push_back(std::move(decoded));
  }

  const JsonValue* options = envelope.Find("options");
  if (options != nullptr) {
    QDM_ASSIGN_OR_RETURN(request.options,
                         DecodeSolverOptions(*options, "request.options"));
  }
  const JsonValue* deadline = envelope.Find("deadline_ns");
  if (deadline != nullptr) {
    QDM_ASSIGN_OR_RETURN(const uint64_t ns,
                         deadline->AsUint64("request.deadline_ns"));
    if (ns > static_cast<uint64_t>(INT64_MAX)) {
      return Status::InvalidArgument(
          "request.deadline_ns: exceeds int64 nanoseconds");
    }
    request.deadline = std::chrono::nanoseconds(static_cast<int64_t>(ns));
  }
  return request;
}

// -- Response bodies ----------------------------------------------------------

std::string EncodeErrorBody(const Status& status) {
  std::string fields = "\"error\":{\"code\":";
  JsonAppendQuoted(StatusCodeToString(status.code()), &fields);
  fields += ",\"message\":";
  JsonAppendQuoted(status.message(), &fields);
  fields += "}";
  return WrapEnvelope(fields);
}

Status DecodeErrorBody(const std::string& body, Status* remote) {
  QDM_ASSIGN_OR_RETURN(const JsonValue envelope, ParseEnvelope(body));
  const JsonValue* error = envelope.Find("error");
  if (error == nullptr) return MissingError("error");
  if (!error->is_object()) {
    return TypeError("error", "a JSON object", *error);
  }
  const JsonValue* code = error->Find("code");
  if (code == nullptr) return MissingError("error.code");
  if (!code->is_string()) return TypeError("error.code", "a string", *code);
  StatusCode parsed = StatusCode::kInternal;
  if (!StatusCodeFromString(code->string_value(), &parsed)) {
    return Status::InvalidArgument(
        StrFormat("error.code: unknown status code '%s'",
                  code->string_value().c_str()));
  }
  const JsonValue* message = error->Find("message");
  if (message == nullptr) return MissingError("error.message");
  if (!message->is_string()) {
    return TypeError("error.message", "a string", *message);
  }
  *remote = Status(parsed, message->string_value());
  return Status::Ok();
}

std::string EncodeSubmitResponse(JobId id) {
  return WrapEnvelope(
      StrFormat("\"id\":%llu", static_cast<unsigned long long>(id)));
}

Result<JobId> DecodeSubmitResponse(const std::string& body) {
  QDM_ASSIGN_OR_RETURN(const JsonValue envelope, ParseEnvelope(body));
  return DecodeJobIdField(envelope, "response", "id");
}

std::string EncodeSnapshotResponse(const JobSnapshot& snapshot) {
  std::string fields =
      StrFormat("\"id\":%llu,\"state\":\"%s\",\"status\":{\"code\":",
                static_cast<unsigned long long>(snapshot.id),
                JobStateToString(snapshot.state));
  JsonAppendQuoted(StatusCodeToString(snapshot.status.code()), &fields);
  fields += ",\"message\":";
  JsonAppendQuoted(snapshot.status.message(), &fields);
  fields += "}";
  return WrapEnvelope(fields);
}

Result<JobSnapshot> DecodeSnapshotResponse(const std::string& body) {
  QDM_ASSIGN_OR_RETURN(const JsonValue envelope, ParseEnvelope(body));
  JobSnapshot snapshot;
  QDM_ASSIGN_OR_RETURN(snapshot.id,
                       DecodeJobIdField(envelope, "response", "id"));
  const JsonValue* state = envelope.Find("state");
  if (state == nullptr) return MissingError("response.state");
  if (!state->is_string()) {
    return TypeError("response.state", "a string", *state);
  }
  if (!JobStateFromString(state->string_value(), &snapshot.state)) {
    return Status::InvalidArgument(
        StrFormat("response.state: unknown job state '%s'",
                  state->string_value().c_str()));
  }
  const JsonValue* status = envelope.Find("status");
  if (status == nullptr) return MissingError("response.status");
  if (!status->is_object()) {
    return TypeError("response.status", "a JSON object", *status);
  }
  const JsonValue* code = status->Find("code");
  if (code == nullptr) return MissingError("response.status.code");
  if (!code->is_string()) {
    return TypeError("response.status.code", "a string", *code);
  }
  StatusCode parsed = StatusCode::kOk;
  if (!StatusCodeFromString(code->string_value(), &parsed)) {
    return Status::InvalidArgument(
        StrFormat("response.status.code: unknown status code '%s'",
                  code->string_value().c_str()));
  }
  const JsonValue* message = status->Find("message");
  if (message == nullptr) return MissingError("response.status.message");
  if (!message->is_string()) {
    return TypeError("response.status.message", "a string", *message);
  }
  snapshot.status = Status(parsed, message->string_value());
  return snapshot;
}

std::string EncodeResultsResponse(const std::vector<SampleSet>& results) {
  std::string fields = "\"results\":[";
  for (size_t i = 0; i < results.size(); ++i) {
    if (i > 0) fields.push_back(',');
    AppendSampleSetJson(results[i], &fields);
  }
  fields += "]";
  return WrapEnvelope(fields);
}

Result<std::vector<SampleSet>> DecodeResultsResponse(
    const std::string& body) {
  QDM_ASSIGN_OR_RETURN(const JsonValue envelope, ParseEnvelope(body));
  const JsonValue* results = envelope.Find("results");
  if (results == nullptr) return MissingError("response.results");
  if (!results->is_array()) {
    return TypeError("response.results", "an array", *results);
  }
  std::vector<SampleSet> decoded;
  decoded.reserve(results->array().size());
  for (size_t i = 0; i < results->array().size(); ++i) {
    QDM_ASSIGN_OR_RETURN(
        SampleSet set,
        DecodeSampleSet(results->array()[i],
                        StrFormat("response.results[%zu]", i)));
    decoded.push_back(std::move(set));
  }
  return decoded;
}

std::string EncodeCancelResponse(JobId id) {
  return WrapEnvelope(StrFormat("\"id\":%llu,\"cancelled\":true",
                                static_cast<unsigned long long>(id)));
}

std::string EncodeSolversResponse(const std::vector<std::string>& names) {
  std::string fields = "\"solvers\":[";
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) fields.push_back(',');
    JsonAppendQuoted(names[i], &fields);
  }
  fields += "]";
  return WrapEnvelope(fields);
}

Result<std::vector<std::string>> DecodeSolversResponse(
    const std::string& body) {
  QDM_ASSIGN_OR_RETURN(const JsonValue envelope, ParseEnvelope(body));
  const JsonValue* solvers = envelope.Find("solvers");
  if (solvers == nullptr) return MissingError("response.solvers");
  if (!solvers->is_array()) {
    return TypeError("response.solvers", "an array", *solvers);
  }
  std::vector<std::string> names;
  names.reserve(solvers->array().size());
  for (size_t i = 0; i < solvers->array().size(); ++i) {
    const JsonValue& name = solvers->array()[i];
    if (!name.is_string()) {
      return TypeError(StrFormat("response.solvers[%zu]", i), "a string",
                       name);
    }
    names.push_back(name.string_value());
  }
  return names;
}

std::string EncodeStatsResponse(const StatsResponse& response) {
  const service::ServiceStats& s = response.stats;
  std::string fields = StrFormat(
      "\"stats\":{\"submitted\":%llu,\"rejected\":%llu,\"queued\":%llu,"
      "\"running\":%llu,\"completed\":%llu,\"cancelled\":%llu,"
      "\"deadline_exceeded\":%llu},\"accepting\":%s,\"num_workers\":%d",
      static_cast<unsigned long long>(s.submitted),
      static_cast<unsigned long long>(s.rejected),
      static_cast<unsigned long long>(s.queued),
      static_cast<unsigned long long>(s.running),
      static_cast<unsigned long long>(s.completed),
      static_cast<unsigned long long>(s.cancelled),
      static_cast<unsigned long long>(s.deadline_exceeded),
      response.accepting ? "true" : "false", response.num_workers);
  return WrapEnvelope(fields);
}

Result<StatsResponse> DecodeStatsResponse(const std::string& body) {
  QDM_ASSIGN_OR_RETURN(const JsonValue envelope, ParseEnvelope(body));
  const JsonValue* stats = envelope.Find("stats");
  if (stats == nullptr) return MissingError("response.stats");
  if (!stats->is_object()) {
    return TypeError("response.stats", "a JSON object", *stats);
  }
  StatsResponse response;
  struct Field {
    const char* key;
    uint64_t* slot;
  };
  const Field fields[] = {
      {"submitted", &response.stats.submitted},
      {"rejected", &response.stats.rejected},
      {"queued", &response.stats.queued},
      {"running", &response.stats.running},
      {"completed", &response.stats.completed},
      {"cancelled", &response.stats.cancelled},
      {"deadline_exceeded", &response.stats.deadline_exceeded},
  };
  for (const Field& field : fields) {
    const JsonValue* value = stats->Find(field.key);
    const std::string path = std::string("response.stats.") + field.key;
    if (value == nullptr) return MissingError(path);
    QDM_ASSIGN_OR_RETURN(*field.slot, value->AsUint64(path));
  }
  const JsonValue* accepting = envelope.Find("accepting");
  if (accepting == nullptr) return MissingError("response.accepting");
  if (!accepting->is_bool()) {
    return TypeError("response.accepting", "a boolean", *accepting);
  }
  response.accepting = accepting->bool_value();
  QDM_ASSIGN_OR_RETURN(response.num_workers,
                       DecodeIntField(envelope, "response", "num_workers", 0));
  return response;
}

std::string EncodeHealthResponse(bool accepting) {
  return WrapEnvelope(StrFormat("\"status\":\"serving\",\"accepting\":%s",
                                accepting ? "true" : "false"));
}

}  // namespace net
}  // namespace qdm
