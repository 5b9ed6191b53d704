#include "sim/checkpoint.hpp"

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <system_error>
#include <type_traits>
#include <utility>
#include <variant>

#include "obs/json.hpp"
#include "policy/scenario_spec.hpp"
#include "util/assert.hpp"
#include "util/crc32.hpp"

namespace ecdra::sim {

namespace json = obs::json;

std::string_view CheckpointErrorKindName(CheckpointErrorKind kind) {
  switch (kind) {
    case CheckpointErrorKind::kIo: return "io";
    case CheckpointErrorKind::kBadHeader: return "bad-header";
    case CheckpointErrorKind::kSchemaVersion: return "schema-version";
    case CheckpointErrorKind::kConfigMismatch: return "config-mismatch";
    case CheckpointErrorKind::kTruncatedRecord: return "truncated-record";
    case CheckpointErrorKind::kBadRecord: return "bad-record";
    case CheckpointErrorKind::kCrcMismatch: return "crc-mismatch";
    case CheckpointErrorKind::kUnsupportedOptions: return "unsupported-options";
  }
  return "unknown";
}

CheckpointError::CheckpointError(CheckpointErrorKind kind,
                                 const std::string& message)
    : std::runtime_error("checkpoint [" +
                         std::string(CheckpointErrorKindName(kind)) +
                         "]: " + message),
      kind_(kind) {}

namespace {

// ---------------------------------------------------------------------------
// Serialization helpers
// ---------------------------------------------------------------------------

std::string Text(std::uint64_t value) { return std::to_string(value); }
std::string Text(double value) { return json::Number(value); }
/// A number, or null when absent (energy_exhausted_at).
std::string Text(const std::optional<double>& value) {
  return value ? json::Number(*value) : "null";
}
std::string Text(std::string_view value) {
  return '"' + json::Escape(value) + '"';
}

/// Appends "key":value.
void Field(std::string& out, std::string_view key, const auto& value) {
  out += '"';
  out += key;
  out += "\":";
  out += Text(value);
}

// ---------------------------------------------------------------------------
// Per-line CRC sealing (schema v5)
// ---------------------------------------------------------------------------
//
// Every committed line has the layout `<prefix>,"crc":"xxxxxxxx"}` where the
// CRC-32 covers <prefix> — the serialized record up to but excluding the crc
// suffix (equivalently: the whole JSON object minus its closing brace). A
// reader that finds the suffix intact but the sum wrong has hit bit rot or a
// torn overwrite; a missing suffix means the line predates v5 or was mangled.

constexpr std::string_view kCrcKey = ",\"crc\":\"";
constexpr std::size_t kCrcSuffixLength = 18;  // ,"crc":" + 8 hex + "}

enum class CrcStatus { kOk, kMissing, kMismatch };

CrcStatus VerifyLineCrc(std::string_view line) {
  if (line.size() < kCrcSuffixLength + 1) return CrcStatus::kMissing;
  const std::string_view suffix = line.substr(line.size() - kCrcSuffixLength);
  if (suffix.substr(0, kCrcKey.size()) != kCrcKey ||
      suffix.substr(kCrcKey.size() + 8) != "\"}") {
    return CrcStatus::kMissing;
  }
  std::uint32_t stored = 0;
  for (const char c : suffix.substr(kCrcKey.size(), 8)) {
    stored <<= 4;
    if (c >= '0' && c <= '9') {
      stored |= static_cast<std::uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      stored |= static_cast<std::uint32_t>(c - 'a' + 10);
    } else {
      return CrcStatus::kMissing;
    }
  }
  const std::string_view prefix = line.substr(0, line.size() - kCrcSuffixLength);
  return util::Crc32(prefix) == stored ? CrcStatus::kOk : CrcStatus::kMismatch;
}

/// Appends the crc field to a serialized JSON object (must end in '}').
std::string SealWithCrc(std::string object_json) {
  ECDRA_ASSERT(!object_json.empty() && object_json.back() == '}',
               "can only seal a serialized JSON object");
  object_json.pop_back();
  char hex[9];
  const std::string_view digest = util::Crc32Hex(util::Crc32(object_json), hex);
  object_json += kCrcKey;
  object_json += digest;
  object_json += "\"}";
  return object_json;
}

[[noreturn]] void BadRecord(const std::string& detail) {
  throw CheckpointError(CheckpointErrorKind::kBadRecord, detail);
}

const json::Value& Require(const json::Value& object, std::string_view key) {
  const json::Value* value = object.Find(key);
  if (value == nullptr) {
    BadRecord("missing field \"" + std::string(key) + '"');
  }
  return *value;
}

double RequireNumber(const json::Value& object, std::string_view key) {
  const json::Value& value = Require(object, key);
  if (value.kind() != json::Value::Kind::kNumber) {
    BadRecord("field \"" + std::string(key) + "\" is not a number");
  }
  return value.AsNumber();
}

std::uint64_t RequireUint(const json::Value& object, std::string_view key) {
  const double number = RequireNumber(object, key);
  const auto value = static_cast<std::uint64_t>(number);
  if (number < 0.0 || static_cast<double>(value) != number) {
    BadRecord("field \"" + std::string(key) +
              "\" is not a non-negative integer");
  }
  return value;
}

std::optional<double> RequireNumberOrNull(const json::Value& object,
                                          std::string_view key) {
  const json::Value& value = Require(object, key);
  if (value.is_null()) return std::nullopt;
  if (value.kind() != json::Value::Kind::kNumber) {
    BadRecord("field \"" + std::string(key) +
              "\" is neither a number nor null");
  }
  return value.AsNumber();
}

const std::string& RequireString(const json::Value& object,
                                 std::string_view key) {
  const json::Value& value = Require(object, key);
  if (value.kind() != json::Value::Kind::kString) {
    BadRecord("field \"" + std::string(key) + "\" is not a string");
  }
  return value.AsString();
}

/// uint64 values (seeds) are stored as decimal strings: JSON numbers travel
/// through double, which cannot represent every 64-bit seed exactly.
std::uint64_t RequireUint64String(const json::Value& object,
                                  std::string_view key) {
  const std::string& text = RequireString(object, key);
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size() || text.empty()) {
    BadRecord("field \"" + std::string(key) + "\" is not a uint64 string");
  }
  return value;
}

std::string HeaderToJson(const CheckpointHeader& header) {
  std::string out = "{";
  Field(out, "record", std::string_view("header"));
  out += ',';
  Field(out, "schema", std::uint64_t{header.schema_version});
  out += ',';
  Field(out, "seed", std::to_string(header.master_seed));
  out += ',';
  Field(out, "config", header.config_hash);
  out += '}';
  return out;
}

CheckpointHeader HeaderFromJson(const json::Value& object) {
  CheckpointHeader header;
  const std::uint64_t schema = RequireUint(object, "schema");
  header.schema_version = static_cast<std::uint32_t>(schema);
  header.master_seed = RequireUint64String(object, "seed");
  header.config_hash = RequireString(object, "config");
  return header;
}

/// Refuses a store of any schema other than `expected`. Load runs this
/// before the CRC check: an older build's lines may carry no crc at all,
/// and salvage must not mistake "written by an older build" for torn-write
/// damage and destroy a healthy store.
void RequireSchema(std::uint32_t found, std::uint32_t expected,
                   const std::string& context) {
  if (found != expected) {
    throw CheckpointError(CheckpointErrorKind::kSchemaVersion,
                          context + ": written with schema version " +
                              std::to_string(found) + ", this build reads " +
                              std::to_string(expected));
  }
}

/// Appends one block's rows of the result field table as "key":value pairs.
void AppendRows(std::string& out, const TrialResult& result,
                ResultBlock block) {
  bool first = true;
  for (const ResultField& field : ResultFields()) {
    if (field.block != block) continue;
    const ResultValue value = field.get(result);
    if (field.omit_when_zero && value == ResultValue{std::size_t{0}}) {
      continue;
    }
    if (!first) out += ',';
    first = false;
    std::visit([&](const auto& v) { Field(out, field.key, v); }, value);
  }
}

/// Reads one block's rows; every row is required except an omitted zero.
void ReadRows(const json::Value& object, TrialResult& result,
              ResultBlock block) {
  for (const ResultField& field : ResultFields()) {
    if (field.block != block) continue;
    if (field.omit_when_zero && object.Find(field.key) == nullptr) continue;
    // The alternative the row holds says which codec reads its key.
    std::visit(
        [&]<typename T>(const T&) {
          if constexpr (std::is_same_v<T, std::size_t>) {
            field.set(result, T{RequireUint(object, field.key)});
          } else if constexpr (std::is_same_v<T, double>) {
            field.set(result, RequireNumber(object, field.key));
          } else {
            field.set(result, RequireNumberOrNull(object, field.key));
          }
        },
        field.get(result));
  }
}

}  // namespace

void VerifyCheckpointHeader(const CheckpointHeader& found,
                            const CheckpointHeader& expected,
                            const std::string& context) {
  RequireSchema(found.schema_version, expected.schema_version, context);
  if (found.master_seed != expected.master_seed ||
      found.config_hash != expected.config_hash) {
    std::ostringstream os;
    os << context << ": checkpoint belongs to a different run (file: seed="
       << found.master_seed << " config=" << found.config_hash
       << "; this run: seed=" << expected.master_seed
       << " config=" << expected.config_hash << ")";
    throw CheckpointError(CheckpointErrorKind::kConfigMismatch, os.str());
  }
}

std::string ConfigFingerprint(const ExperimentSetup& setup,
                              const RunOptions& options) {
  // The fingerprint hashes the declarative *recipe* (policy::FingerprintText
  // over a ScenarioSpec), not the sampled artifacts: the environment is a
  // pure function of (master_seed, SetupOptions), so hashing the generating
  // options pins the sampled cluster/ETC/pmf table exactly while keeping the
  // preimage human-readable. Grid and harness knobs (num_trials, validation,
  // threads, traces, watchdog/retry, checkpoint paths) are deliberately
  // absent: they select which trials run and how, never what one computes.
  policy::ScenarioSpec spec;
  static_cast<policy::RunKnobs&>(spec) = options;
  spec.master_seed = setup.master_seed;
  spec.environment = setup.environment;
  return policy::SpecFingerprint(spec);
}

std::string TrialResultToJson(const TrialResult& result) {
  if (!result.task_records.empty() || !result.robustness_trace.empty()) {
    throw CheckpointError(
        CheckpointErrorKind::kUnsupportedOptions,
        "per-task records / robustness traces cannot be checkpointed; "
        "disable collect_task_records and collect_robustness_trace");
  }
  // The field table's rows, block by block; an extension block is written
  // only when enabled, so records of runs without it stay byte-identical to
  // builds that predate it.
  std::string out = "{";
  AppendRows(out, result, ResultBlock::kTop);
  for (const ResultBlock block : kExtensionBlocks) {
    if (!ResultBlockEnabled(result, block)) continue;
    out += ",\"";
    out += ResultBlockKey(block);
    out += "\":{";
    AppendRows(out, result, block);
    out += '}';
  }

  // Counters: non-zero slots only, via the generic field table.
  std::string counters;
  for (const obs::CounterField& field : obs::CounterFields()) {
    const std::uint64_t value = result.counters.*(field.slot);
    if (value == 0) continue;
    if (!counters.empty()) counters += ',';
    Field(counters, field.name, value);
  }
  if (result.counters.decision_seconds != 0.0) {
    if (!counters.empty()) counters += ',';
    Field(counters, "decision_seconds", result.counters.decision_seconds);
  }
  if (!counters.empty()) {
    out += ",\"counters\":{";
    out += counters;
    out += '}';
  }

  // Validation report (omitted entirely when validation was off and clean).
  const validate::ValidationReport& report = result.validation;
  if (report.mode != validate::ValidationMode::kOff || !report.ok()) {
    out += ",\"validation\":{";
    Field(out, "mode", validate::ValidationModeName(report.mode));
    out += ',';
    Field(out, "checks", report.checks_run);
    out += ',';
    Field(out, "violations", report.violations);
    if (!report.by_check.empty()) {
      out += ",\"by_check\":[";
      bool first = true;
      for (const validate::Violation& violation : report.by_check) {
        if (!first) out += ',';
        first = false;
        out += '{';
        Field(out, "check", violation.check);
        out += ',';
        Field(out, "detail", violation.detail);
        out += ',';
        Field(out, "sim_time", violation.sim_time);
        out += ',';
        Field(out, "occurrences", violation.occurrences);
        out += '}';
      }
      out += ']';
    }
    out += '}';
  }

  out += '}';
  return out;
}

namespace {

TrialResult TrialResultFromValue(const json::Value& object) {
  if (object.kind() != json::Value::Kind::kObject) {
    BadRecord("trial result is not a JSON object");
  }
  TrialResult result;
  ReadRows(object, result, ResultBlock::kTop);
  for (const ResultBlock block : kExtensionBlocks) {
    const std::string_view key = ResultBlockKey(block);
    if (const json::Value* block_object = object.Find(key)) {
      if (block_object->kind() != json::Value::Kind::kObject) {
        BadRecord("field \"" + std::string(key) + "\" is not an object");
      }
      ResultBlockEnabled(result, block) = true;
      ReadRows(*block_object, result, block);
    }
  }

  if (const json::Value* counters = object.Find("counters")) {
    if (counters->kind() != json::Value::Kind::kObject) {
      BadRecord("field \"counters\" is not an object");
    }
    for (const obs::CounterField& field : obs::CounterFields()) {
      if (counters->Find(field.name) != nullptr) {
        result.counters.*(field.slot) = RequireUint(*counters, field.name);
      }
    }
    if (counters->Find("decision_seconds") != nullptr) {
      result.counters.decision_seconds =
          RequireNumber(*counters, "decision_seconds");
    }
  }

  if (const json::Value* validation = object.Find("validation")) {
    if (validation->kind() != json::Value::Kind::kObject) {
      BadRecord("field \"validation\" is not an object");
    }
    const std::string& mode_name = RequireString(*validation, "mode");
    const auto mode = validate::ParseValidationMode(mode_name);
    if (!mode) BadRecord("unknown validation mode \"" + mode_name + '"');
    result.validation.mode = *mode;
    result.validation.checks_run = RequireUint(*validation, "checks");
    result.validation.violations = RequireUint(*validation, "violations");
    if (const json::Value* by_check = validation->Find("by_check")) {
      if (by_check->kind() != json::Value::Kind::kArray) {
        BadRecord("field \"by_check\" is not an array");
      }
      for (const json::Value& entry : by_check->AsArray()) {
        validate::Violation violation;
        violation.check = RequireString(entry, "check");
        violation.detail = RequireString(entry, "detail");
        violation.sim_time = RequireNumber(entry, "sim_time");
        violation.occurrences = RequireUint(entry, "occurrences");
        result.validation.by_check.push_back(std::move(violation));
      }
    }
  }

  return result;
}

}  // namespace

TrialResult TrialResultFromJson(std::string_view json_text) {
  const std::optional<json::Value> value = json::Parse(json_text);
  if (!value) BadRecord("trial result is not valid JSON");
  return TrialResultFromValue(*value);
}

// ---------------------------------------------------------------------------
// CheckpointStore
// ---------------------------------------------------------------------------

CheckpointStore CheckpointStore::Load(const std::string& path,
                                      const LoadOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw CheckpointError(CheckpointErrorKind::kIo,
                          path + ": cannot open for reading");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    throw CheckpointError(CheckpointErrorKind::kIo, path + ": read error");
  }
  const std::string text = buffer.str();

  CheckpointStore store;
  std::size_t line_number = 0;
  std::size_t line_start = 0;
  std::size_t pos = 0;

  // Salvage: everything from the first damaged byte on is counted and cut
  // away on disk, so a subsequent writer appends after the last good record.
  const auto salvage_from = [&](std::size_t damage_start) {
    for (std::size_t p = damage_start; p < text.size();) {
      ++store.dropped_records_;
      const std::size_t newline = text.find('\n', p);
      if (newline == std::string::npos) break;
      p = newline + 1;
    }
    std::error_code ec;
    std::filesystem::resize_file(path, damage_start, ec);
    if (ec) {
      throw CheckpointError(
          CheckpointErrorKind::kIo,
          path + ": cannot truncate damaged tail: " + ec.message());
    }
  };

  // Physical damage on the current line: salvage mode heals (true = stop
  // reading), strict mode throws — as kBadHeader when the header itself is
  // the casualty.
  const auto damaged = [&](CheckpointErrorKind kind,
                           const std::string& what) -> bool {
    if (options.salvage) {
      if (line_number <= 1) {
        store.header_valid_ = false;
        salvage_from(0);
      } else {
        salvage_from(line_start);
      }
      return true;
    }
    if (line_number <= 1) {
      throw CheckpointError(CheckpointErrorKind::kBadHeader,
                            path + ": " + what);
    }
    throw CheckpointError(kind, path + ": line " +
                                    std::to_string(line_number) + ": " + what);
  };

  if (text.empty()) {
    if (options.salvage) {
      store.header_valid_ = false;
      return store;
    }
    throw CheckpointError(CheckpointErrorKind::kBadHeader,
                          path + ": empty checkpoint (no header record)");
  }

  while (pos < text.size()) {
    const std::size_t newline = text.find('\n', pos);
    const bool terminated = newline != std::string::npos;
    line_start = pos;
    const std::string_view line(text.data() + pos,
                                (terminated ? newline : text.size()) - pos);
    pos = terminated ? newline + 1 : text.size();
    ++line_number;

    if (!terminated) {
      // A line without its trailing newline can only be the write that a
      // crash cut short — even if the text happens to parse, the record was
      // never committed.
      if (line_number > 1 && options.allow_partial_tail && !options.salvage) {
        store.dropped_partial_tail_ = true;
        break;
      }
      if (damaged(CheckpointErrorKind::kTruncatedRecord,
                  line_number == 1
                      ? "header record cut mid-write; --resume-salvage "
                        "recreates the file"
                      : "cut mid-write (no trailing newline); "
                        "--resume-salvage drops it")) {
        store.dropped_partial_tail_ = true;
        break;
      }
    }
    if (line.empty()) {
      // The writer never commits blank lines; one can only be damage.
      if (damaged(CheckpointErrorKind::kBadRecord, "blank line")) break;
    }

    if (line_number == 1) {
      // Header. Schema refusal outranks the CRC check (RequireSchema).
      const std::optional<json::Value> value = json::Parse(line);
      CheckpointHeader header;
      bool parsed = false;
      if (value && value->kind() == json::Value::Kind::kObject &&
          value->Find("record") != nullptr) {
        try {
          if (RequireString(*value, "record") != "header") {
            if (damaged(CheckpointErrorKind::kBadRecord,
                        "first record is \"" + RequireString(*value, "record") +
                            "\", not a header")) {
              break;
            }
          }
          header = HeaderFromJson(*value);
          parsed = true;
        } catch (const CheckpointError& error) {
          if (error.kind() != CheckpointErrorKind::kBadRecord) throw;
        }
      }
      if (!parsed) {
        if (damaged(CheckpointErrorKind::kBadRecord,
                    "first line is not a valid JSON header record")) {
          break;
        }
        continue;
      }
      RequireSchema(header.schema_version, kCheckpointSchemaVersion, path);
      const CrcStatus crc = VerifyLineCrc(line);
      if (crc != CrcStatus::kOk) {
        if (damaged(CheckpointErrorKind::kCrcMismatch,
                    crc == CrcStatus::kMismatch
                        ? "header record fails its crc"
                        : "header record carries no crc field")) {
          break;
        }
        continue;
      }
      store.header_ = header;
      continue;
    }

    const CrcStatus crc = VerifyLineCrc(line);
    if (crc != CrcStatus::kOk) {
      if (damaged(crc == CrcStatus::kMismatch
                      ? CheckpointErrorKind::kCrcMismatch
                      : CheckpointErrorKind::kBadRecord,
                  crc == CrcStatus::kMismatch
                      ? "crc mismatch (bit rot or a torn overwrite)"
                      : "record carries no crc field")) {
        break;
      }
      continue;
    }

    const std::optional<json::Value> value = json::Parse(line);
    if (!value || value->kind() != json::Value::Kind::kObject) {
      if (damaged(CheckpointErrorKind::kBadRecord,
                  "is not a valid JSON record")) {
        break;
      }
      continue;
    }
    try {
      const std::string& record = RequireString(*value, "record");
      if (record != "trial") {
        BadRecord(path + ": line " + std::to_string(line_number) +
                  ": unknown record type \"" + record + '"');
      }
      const std::string& heuristic = RequireString(*value, "heuristic");
      const std::string& filter = RequireString(*value, "filter");
      const std::size_t trial = RequireUint(*value, "trial");
      TrialResult result = TrialResultFromValue(Require(*value, "result"));
      // Later duplicates win: a crashed run may have been restarted without
      // --resume and re-appended triples it had already written.
      store.results_.insert_or_assign(std::tuple(heuristic, filter, trial),
                                      std::move(result));
    } catch (const CheckpointError& error) {
      // A record that passed its CRC but fails semantically was committed
      // intact and is wrong by construction, not by damage — salvage does
      // not swallow it.
      if (error.kind() == CheckpointErrorKind::kBadRecord) {
        throw CheckpointError(CheckpointErrorKind::kBadRecord,
                              path + ": line " + std::to_string(line_number) +
                                  ": " + error.what());
      }
      throw;
    }
  }

  return store;
}

const TrialResult* CheckpointStore::Find(std::string_view heuristic,
                                         std::string_view filter_variant,
                                         std::size_t trial_index) const {
  const auto it = results_.find(std::tuple(
      std::string(heuristic), std::string(filter_variant), trial_index));
  return it == results_.end() ? nullptr : &it->second;
}

// ---------------------------------------------------------------------------
// CheckpointWriter
// ---------------------------------------------------------------------------

struct CheckpointWriter::Impl {
  std::mutex mutex;
  std::ofstream out;
  std::string path;
};

CheckpointWriter::CheckpointWriter(const std::string& path,
                                   const CheckpointHeader& header)
    : impl_(std::make_unique<Impl>()) {
  impl_->path = path;

  // Decide append-vs-create from what is already on disk. A file whose
  // first line never got its newline holds no committed records (the header
  // write itself was cut short), so it is safe to start over.
  bool append = false;
  {
    std::ifstream existing(path, std::ios::binary);
    if (existing) {
      std::string first_line;
      if (std::getline(existing, first_line) && existing.good()) {
        const std::optional<json::Value> value = json::Parse(first_line);
        if (!value || value->kind() != json::Value::Kind::kObject ||
            value->Find("record") == nullptr ||
            RequireString(*value, "record") != "header") {
          throw CheckpointError(
              CheckpointErrorKind::kBadHeader,
              path + ": existing file's first line is not a header record");
        }
        VerifyCheckpointHeader(HeaderFromJson(*value), header, path);
        if (VerifyLineCrc(first_line) != CrcStatus::kOk) {
          throw CheckpointError(
              CheckpointErrorKind::kCrcMismatch,
              path + ": existing header record fails its crc");
        }
        append = true;
      }
    }
  }

  if (!append) {
    // Atomic create: the header is written to a sibling tmp file, flushed,
    // and renamed into place, so no crash can leave a file with a torn
    // header on disk — readers either see no checkpoint or a complete one.
    const std::string tmp_path = path + ".tmp";
    {
      std::ofstream tmp(tmp_path, std::ios::binary | std::ios::trunc);
      if (!tmp) {
        throw CheckpointError(CheckpointErrorKind::kIo,
                              tmp_path + ": cannot open for writing");
      }
      tmp << SealWithCrc(HeaderToJson(header)) << '\n';
      tmp.flush();
      if (!tmp) {
        throw CheckpointError(CheckpointErrorKind::kIo,
                              tmp_path + ": cannot write header record");
      }
    }
    if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
      throw CheckpointError(
          CheckpointErrorKind::kIo,
          path + ": cannot install header (rename from tmp failed)");
    }
  }

  impl_->out.open(path, std::ios::binary | std::ios::app);
  if (!impl_->out) {
    throw CheckpointError(CheckpointErrorKind::kIo,
                          path + ": cannot open for writing");
  }
}

CheckpointWriter::~CheckpointWriter() = default;

void CheckpointWriter::Append(std::string_view heuristic,
                              std::string_view filter_variant,
                              std::size_t trial_index,
                              const TrialResult& result) {
  std::string record = "{";
  Field(record, "record", std::string_view("trial"));
  record += ',';
  Field(record, "heuristic", heuristic);
  record += ',';
  Field(record, "filter", filter_variant);
  record += ',';
  Field(record, "trial", std::uint64_t{trial_index});
  record += ",\"result\":";
  record += TrialResultToJson(result);
  record += '}';
  std::string line = SealWithCrc(std::move(record));
  line += '\n';

  const std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->out << line;
  impl_->out.flush();
  if (!impl_->out) {
    throw CheckpointError(CheckpointErrorKind::kIo,
                          impl_->path + ": write error");
  }
}

}  // namespace ecdra::sim
