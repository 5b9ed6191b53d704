// Checkpoint/resume: exact JSON round-trip of trial results, typed errors
// for every corruption mode (torn tail, flipped bits, torn header, blank
// tail), salvage-mode healing, duplicate-triple semantics, config
// fingerprinting, and the headline guarantee — a killed-and-resumed sweep
// (salvaged or not) is bit-identical to an uninterrupted one.
#include "sim/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "obs/json.hpp"
#include "sim/experiment_runner.hpp"
#include "test_support.hpp"
#include "util/crc32.hpp"

namespace ecdra::sim {
namespace {

SetupOptions SmallOptions() {
  SetupOptions options;
  options.cluster.num_nodes = 3;
  options.cvb.num_task_types = 10;
  options.workload.arrivals =
      workload::ArrivalSpec::PaperBursty(15, 30, 1.0 / 8.0, 1.0 / 48.0);
  return options;
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "ecdra_checkpoint_" + name + ".jsonl";
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(os.good());
  os << content;
}

/// Seals a serialized JSON object with the v5 CRC suffix, exactly as the
/// writer does — hand-crafted corruption fixtures go through this so only
/// the deliberately damaged part is wrong.
std::string Sealed(std::string object_json) {
  object_json.pop_back();  // the closing '}'
  char hex[9];
  const std::string_view digest =
      util::Crc32Hex(util::Crc32(object_json), hex);
  object_json += ",\"crc\":\"";
  object_json += digest;
  object_json += "\"}";
  return object_json;
}

std::string ValidHeaderLine() {
  return Sealed(
             "{\"record\":\"header\",\"schema\":7,\"seed\":\"5\","
             "\"config\":\"x\"}") +
         "\n";
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// The kind of CheckpointError `action` throws (nullopt when it throws
/// none); `message` receives its text.
std::optional<CheckpointErrorKind> ErrorKind(const auto& action,
                                             std::string* message = nullptr) {
  try {
    action();
  } catch (const CheckpointError& error) {
    if (message != nullptr) *message = error.what();
    return error.kind();
  }
  return std::nullopt;
}

std::optional<CheckpointErrorKind> LoadErrorKind(
    const std::string& path, const CheckpointStore::LoadOptions& options = {},
    std::string* message = nullptr) {
  return ErrorKind([&] { (void)CheckpointStore::Load(path, options); },
                   message);
}

TEST(TrialResultJson, RoundTripIsBitExact) {
  const ExperimentSetup setup = BuildExperimentSetup(3, SmallOptions());
  RunOptions options;
  options.collect_counters = true;
  options.validation = validate::ValidationMode::kCheap;
  const TrialResult original = RunSingleTrial(setup, "SQ", "en+rob", 0,
                                              options);

  const TrialResult restored = TrialResultFromJson(TrialResultToJson(original));
  test::ExpectSameResult(original, restored);
  // Counters and validation ride along exactly.
  for (const obs::CounterField& field : obs::CounterFields()) {
    EXPECT_EQ(original.counters.*(field.slot), restored.counters.*(field.slot))
        << field.name;
  }
  EXPECT_EQ(original.counters.decision_seconds,
            restored.counters.decision_seconds);
  EXPECT_EQ(original.validation.mode, restored.validation.mode);
  EXPECT_EQ(original.validation.checks_run, restored.validation.checks_run);
  EXPECT_EQ(original.validation.violations, restored.validation.violations);
}

TEST(TrialResultJson, NullExhaustedAtAndViolationsRoundTrip) {
  TrialResult result;
  result.window_size = 10;
  result.completed = 10;
  result.total_energy = 0x1.8db3c4579b52dp+26;  // exactness probe
  result.validation.mode = validate::ValidationMode::kDeep;
  result.validation.checks_run = 7;
  result.validation.violations = 3;
  result.validation.by_check.push_back(
      validate::Violation{"pmf-mass", "lost mass", 12.5, 3});

  const TrialResult restored = TrialResultFromJson(TrialResultToJson(result));
  EXPECT_FALSE(restored.energy_exhausted_at.has_value());
  EXPECT_EQ(restored.total_energy, 0x1.8db3c4579b52dp+26);
  ASSERT_EQ(restored.validation.by_check.size(), 1u);
  EXPECT_EQ(restored.validation.by_check[0], result.validation.by_check[0]);
}

TEST(TrialResultJson, EconOffTrialsKeepThePreEconFormat) {
  // A trial without econ metering must serialize without any "econ" key —
  // and a pre-econ record line (no "econ" object) must load with the econ
  // block disabled, so old stores stay resumable.
  TrialResult result;
  result.window_size = 10;
  const std::string json = TrialResultToJson(result);
  EXPECT_EQ(json.find("\"econ\""), std::string::npos) << json;
  const TrialResult restored = TrialResultFromJson(json);
  EXPECT_FALSE(restored.econ.enabled);
  EXPECT_EQ(restored.econ, EconStats{});
}

TEST(TrialResultJson, RejectsTaskRecords) {
  TrialResult result;
  result.task_records.emplace_back();
  EXPECT_EQ(ErrorKind([&] { (void)TrialResultToJson(result); }),
            CheckpointErrorKind::kUnsupportedOptions);
}

TEST(ResultFields, EveryKeyIsUniqueInItsBlockAndAFullResultRoundTrips) {
  std::set<std::pair<ResultBlock, std::string_view>> keys;
  for (const ResultField& field : ResultFields()) {
    EXPECT_TRUE(keys.emplace(field.block, field.key).second)
        << "duplicate key " << ResultBlockKey(field.block) << '.'
        << field.key;
  }

  // Move every row off its default, each to a value no other row holds, so
  // two rows sharing one member (or a row reaching no member) shows.
  TrialResult result;
  for (const ResultBlock block : kExtensionBlocks) {
    ResultBlockEnabled(result, block) = true;
  }
  const TrialResult defaults;
  std::size_t n = 0;
  for (const ResultField& field : ResultFields()) {
    ++n;
    std::visit(
        [&]<typename T>(const T&) {
          if constexpr (std::is_same_v<T, std::size_t>) {
            field.set(result, n);
          } else {
            field.set(result, T(static_cast<double>(n) / 3.0));  // probe
          }
        },
        field.get(result));
  }
  std::set<ResultValue> values;
  for (const ResultField& field : ResultFields()) {
    SCOPED_TRACE(std::string(ResultBlockKey(field.block)) + "." +
                 std::string(field.key));
    EXPECT_NE(field.get(result), field.get(defaults));
    EXPECT_TRUE(values.insert(field.get(result)).second);
  }

  const std::string json = TrialResultToJson(result);
  for (const ResultBlock block : kExtensionBlocks) {
    EXPECT_NE(json.find("\"" + std::string(ResultBlockKey(block)) + "\":{"),
              std::string::npos)
        << json;
  }
  test::ExpectSameResult(result, TrialResultFromJson(json));
}

TEST(CheckpointGolden, RewritingEveryRecordReproducesTheFileByteForByte) {
  // Stores recorded by run_experiment_cli: one with every record block and
  // non-zero domain scalars (exhausted_at null), one whose budget ran out
  // (exhausted_at a number). Loading and re-appending each record under the
  // same header must give the file back exactly, CRCs included.
  for (const std::string name :
       {"checkpoint_all_blocks", "checkpoint_exhausted"}) {
    SCOPED_TRACE(name);
    const std::string golden_path =
        std::string(ECDRA_GOLDEN_DIR) + "/" + name + ".jsonl";
    const std::string golden = ReadFile(golden_path);
    ASSERT_FALSE(golden.empty()) << golden_path;
    const CheckpointStore store = CheckpointStore::Load(golden_path);

    const std::string path = TempPath("golden_" + name);
    std::remove(path.c_str());
    {
      CheckpointWriter writer(path, store.header());
      std::size_t records = 0;
      for (std::size_t pos = golden.find('\n') + 1; pos < golden.size();) {
        const std::size_t newline = golden.find('\n', pos);
        const std::optional<obs::json::Value> line =
            obs::json::Parse(golden.substr(pos, newline - pos));
        pos = newline + 1;
        ASSERT_TRUE(line.has_value());
        const std::string& heuristic = line->Find("heuristic")->AsString();
        const std::string& filter = line->Find("filter")->AsString();
        const auto trial =
            static_cast<std::size_t>(line->Find("trial")->AsNumber());
        const TrialResult* result = store.Find(heuristic, filter, trial);
        ASSERT_NE(result, nullptr);
        writer.Append(heuristic, filter, trial, *result);
        ++records;
      }
      EXPECT_EQ(records, store.size());
    }
    EXPECT_EQ(ReadFile(path), golden);
    std::remove(path.c_str());
  }
}

TEST(CheckpointWriter, WritesHeaderAndStoreLoadsTriples) {
  const std::string path = TempPath("writer_roundtrip");
  const CheckpointHeader header{.master_seed = 3, .config_hash = "abc"};
  TrialResult a;
  a.window_size = 5;
  a.completed = 4;
  TrialResult b;
  b.window_size = 5;
  b.completed = 2;
  {
    CheckpointWriter writer(path, header);
    writer.Append("SQ", "en+rob", 0, a);
    writer.Append("SQ", "en+rob", 2, b);
  }

  const CheckpointStore store = CheckpointStore::Load(path);
  EXPECT_EQ(store.header(), header);
  EXPECT_EQ(store.size(), 2u);
  ASSERT_NE(store.Find("SQ", "en+rob", 0), nullptr);
  EXPECT_EQ(store.Find("SQ", "en+rob", 0)->completed, 4u);
  ASSERT_NE(store.Find("SQ", "en+rob", 2), nullptr);
  EXPECT_EQ(store.Find("SQ", "en+rob", 2)->completed, 2u);
  EXPECT_EQ(store.Find("SQ", "en+rob", 1), nullptr);
  EXPECT_EQ(store.Find("LL", "en+rob", 0), nullptr);
  EXPECT_FALSE(store.dropped_partial_tail());
  std::remove(path.c_str());
}

TEST(CheckpointWriter, AppendsToMatchingFileAndDuplicateLastWins) {
  const std::string path = TempPath("writer_append");
  const CheckpointHeader header{.master_seed = 3, .config_hash = "abc"};
  TrialResult first;
  first.completed = 1;
  TrialResult second;
  second.completed = 2;
  {
    CheckpointWriter writer(path, header);
    writer.Append("SQ", "en", 0, first);
  }
  {
    // Re-opening with the same header appends; the re-written triple's
    // later record wins on load.
    CheckpointWriter writer(path, header);
    writer.Append("SQ", "en", 0, second);
  }
  const CheckpointStore store = CheckpointStore::Load(path);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.Find("SQ", "en", 0)->completed, 2u);
  std::remove(path.c_str());
}

TEST(CheckpointWriter, RefusesMismatchedExistingFile) {
  const std::string path = TempPath("writer_mismatch");
  {
    CheckpointWriter writer(path,
                            {.master_seed = 3, .config_hash = "abc"});
  }
  EXPECT_EQ(ErrorKind([&] {
              CheckpointWriter writer(path,
                                      {.master_seed = 4, .config_hash = "abc"});
            }),
            CheckpointErrorKind::kConfigMismatch);
  std::remove(path.c_str());
}

TEST(CheckpointStore, TruncatedFinalLineIsTypedStrictAndDroppedTolerant) {
  const std::string path = TempPath("truncated");
  TrialResult result;
  result.completed = 1;
  {
    CheckpointWriter writer(path, {.master_seed = 5, .config_hash = "x"});
    writer.Append("SQ", "en", 0, result);
  }
  // Simulate a SIGKILL mid-write: cut the (valid) final record in half.
  {
    std::ifstream in(path, std::ios::binary);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    WriteFile(path, text + "{\"record\":\"trial\",\"heuristic\":\"SQ");
  }
  EXPECT_EQ(LoadErrorKind(path), CheckpointErrorKind::kTruncatedRecord);
  const CheckpointStore store =
      CheckpointStore::Load(path, {.allow_partial_tail = true});
  EXPECT_TRUE(store.dropped_partial_tail());
  EXPECT_EQ(store.size(), 1u);  // the committed record survives
  std::remove(path.c_str());
}

TEST(CheckpointStore, EveryOtherSchemaVersionIsRefusedNamingBothVersions) {
  // Each older schema hashes a different fingerprint preimage or lacks
  // record fields (v2: run.governor; v3: run.mode and the stream block; v4:
  // CRCs, fault domains; v5: the job block; v6: the econ block), and 99
  // stands for a newer build. A load must refuse with a typed error naming
  // both versions instead of resuming against a stale fingerprint. Stores
  // before v5 carry no CRCs: the schema check outranks the CRC check, so
  // salvage refuses too and leaves the file untouched.
  const std::pair<unsigned, bool> versions[] = {
      {1, false}, {2, false}, {3, false}, {4, false},
      {5, true},  {6, true},  {99, false}};
  for (const auto& [version, sealed] : versions) {
    SCOPED_TRACE("schema " + std::to_string(version));
    const std::string path = TempPath("schema_v" + std::to_string(version));
    const std::string header = "{\"record\":\"header\",\"schema\":" +
                               std::to_string(version) +
                               ",\"seed\":\"5\",\"config\":"
                               "\"deadbeefdeadbeef\"}";
    const std::string content = (sealed ? Sealed(header) : header) + "\n";
    WriteFile(path, content);
    for (const bool salvage : {false, true}) {
      std::string message;
      EXPECT_EQ(LoadErrorKind(path, {.salvage = salvage}, &message),
                CheckpointErrorKind::kSchemaVersion)
          << "salvage=" << salvage;
      EXPECT_NE(message.find("schema version " + std::to_string(version)),
                std::string::npos)
          << message;
      EXPECT_NE(message.find("this build reads 7"), std::string::npos)
          << message;
    }
    // Salvage never truncates a logical refusal.
    EXPECT_EQ(ReadFile(path), content);
    std::remove(path.c_str());
  }
}

TEST(CheckpointStore, MalformedInteriorRecordIsTyped) {
  const std::string path = TempPath("bad_record");
  WriteFile(path, ValidHeaderLine() + "{not json}\n");
  EXPECT_EQ(LoadErrorKind(path), CheckpointErrorKind::kBadRecord);
  std::remove(path.c_str());
}

TEST(CheckpointStore, MissingHeaderAndMissingFileAreTyped) {
  const std::string path = TempPath("no_header");
  WriteFile(path, "{\"record\":\"trial\"}\n");
  EXPECT_EQ(LoadErrorKind(path), CheckpointErrorKind::kBadHeader);
  std::remove(path.c_str());
  EXPECT_EQ(LoadErrorKind(TempPath("does_not_exist")),
            CheckpointErrorKind::kIo);
}

// ---------------------------------------------------------------------------
// Torn-write matrix: each damage mode is refused (typed) under a strict load
// and healed under salvage, which truncates the file to its longest valid
// prefix and reports how many records were dropped.
// ---------------------------------------------------------------------------

/// Header + `trials` sequential trial records written through the real
/// writer, so every line carries a correct CRC.
void WriteStore(const std::string& path, std::size_t trials) {
  CheckpointWriter writer(path, {.master_seed = 5, .config_hash = "x"});
  for (std::size_t i = 0; i < trials; ++i) {
    TrialResult result;
    result.window_size = 10;
    result.completed = i + 1;
    writer.Append("SQ", "en", i, result);
  }
}

TEST(CheckpointSalvage, TruncatedMidRecordRefusedStrictHealedBySalvage) {
  const std::string path = TempPath("salvage_torn_tail");
  WriteStore(path, 2);
  WriteFile(path, ReadFile(path) + "{\"record\":\"trial\",\"heuristic\":\"SQ");
  EXPECT_EQ(LoadErrorKind(path), CheckpointErrorKind::kTruncatedRecord);
  const CheckpointStore store = CheckpointStore::Load(path, {.salvage = true});
  EXPECT_TRUE(store.header_valid());
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.dropped_records(), 1u);
  // The file was truncated to the valid prefix: a strict load now succeeds.
  EXPECT_EQ(CheckpointStore::Load(path).size(), 2u);
  std::remove(path.c_str());
}

TEST(CheckpointSalvage, CorruptedCrcRefusedStrictHealedBySalvage) {
  const std::string path = TempPath("salvage_bit_rot");
  WriteStore(path, 3);
  // Flip payload bits in the *second* trial record (line 3): bit rot in the
  // middle, with a perfectly good record after it.
  std::string text = ReadFile(path);
  std::size_t line_start = 0;
  for (int skipped = 0; skipped < 2; ++skipped) {
    line_start = text.find('\n', line_start) + 1;
  }
  const std::size_t hit = text.find("\"record\":\"trial\"", line_start);
  ASSERT_NE(hit, std::string::npos);
  text[hit + 10] = 'x';  // "trial" -> "xrial"; the line's CRC no longer holds
  WriteFile(path, text);

  // Strict refuses even with the partial-tail allowance: flipped bits are
  // not a torn tail.
  EXPECT_EQ(LoadErrorKind(path, {.allow_partial_tail = true}),
            CheckpointErrorKind::kCrcMismatch);
  // Salvage keeps everything before the damage; the good record *after* the
  // damage is gone too (append-only files have no trustworthy frame resync)
  // and is counted so the caller can say how many trials re-run.
  const CheckpointStore store = CheckpointStore::Load(path, {.salvage = true});
  EXPECT_TRUE(store.header_valid());
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.dropped_records(), 2u);
  EXPECT_EQ(CheckpointStore::Load(path).size(), 1u);
  std::remove(path.c_str());
}

TEST(CheckpointSalvage, TornHeaderRefusedStrictRecreatedAfterSalvage) {
  const std::string path = TempPath("salvage_torn_header");
  WriteFile(path, "{\"record\":\"head");  // header write cut by a crash
  EXPECT_EQ(LoadErrorKind(path, {.allow_partial_tail = true}),
            CheckpointErrorKind::kBadHeader);
  const CheckpointStore store = CheckpointStore::Load(path, {.salvage = true});
  EXPECT_FALSE(store.header_valid());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.dropped_records(), 1u);
  // The salvaged file is empty; the writer starts it over atomically.
  WriteStore(path, 1);
  EXPECT_EQ(CheckpointStore::Load(path).size(), 1u);
  std::remove(path.c_str());
}

TEST(CheckpointSalvage, BlankTailLineRefusedStrictHealedBySalvage) {
  const std::string path = TempPath("salvage_blank_tail");
  WriteStore(path, 1);
  WriteFile(path, ReadFile(path) + "\n");  // committed blank line
  for (const bool allow_partial : {false, true}) {
    EXPECT_EQ(LoadErrorKind(path, {.allow_partial_tail = allow_partial}),
              CheckpointErrorKind::kBadRecord);
  }
  const CheckpointStore store = CheckpointStore::Load(path, {.salvage = true});
  EXPECT_TRUE(store.header_valid());
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.dropped_records(), 1u);
  EXPECT_EQ(CheckpointStore::Load(path).size(), 1u);
  std::remove(path.c_str());
}

TEST(CheckpointSalvage, CrcValidButSemanticallyBadRecordIsNeverSalvaged) {
  // A record that passed its CRC was committed intact: if it is wrong it is
  // wrong by construction (a writer bug), and papering over it would hide
  // the bug — salvage refuses exactly like a strict load.
  const std::string path = TempPath("salvage_semantic");
  WriteFile(path, ValidHeaderLine() +
                      Sealed("{\"record\":\"trial\",\"heuristic\":\"SQ\","
                             "\"filter\":\"en\",\"trial\":0,\"result\":{}}") +
                      "\n");
  for (const bool salvage : {false, true}) {
    EXPECT_EQ(LoadErrorKind(path, {.salvage = salvage}),
              CheckpointErrorKind::kBadRecord)
        << "salvage=" << salvage;
  }
  std::remove(path.c_str());
}

TEST(ConfigFingerprint, SensitiveToResultsShapingOptionsOnly) {
  const ExperimentSetup setup = BuildExperimentSetup(3, SmallOptions());
  RunOptions options;
  const std::string base = ConfigFingerprint(setup, options);
  EXPECT_EQ(base.size(), 16u);
  EXPECT_EQ(base, ConfigFingerprint(setup, options));  // deterministic

  // A different sampled environment changes the hash.
  const ExperimentSetup other = BuildExperimentSetup(4, SmallOptions());
  EXPECT_NE(base, ConfigFingerprint(other, options));

  // Trial-shaping knobs change the hash...
  RunOptions changed = options;
  changed.filter_options.robustness_threshold = 0.75;
  EXPECT_NE(base, ConfigFingerprint(setup, changed));
  changed = options;
  changed.fault.mtbf = 1000.0;
  EXPECT_NE(base, ConfigFingerprint(setup, changed));
  // ...including the econ block: an econ run settles profit per trial, so a
  // resume must never splice its records into a paper-metric series.
  changed = options;
  changed.econ_enabled = true;
  changed.econ.type_values = {1.0, 4.0};
  EXPECT_NE(base, ConfigFingerprint(setup, changed));

  // ...execution mechanics do not.
  RunOptions mechanics = options;
  mechanics.num_threads = 7;
  mechanics.num_trials = 999;
  mechanics.trial_timeout = 5.0;
  mechanics.max_attempts = 3;
  mechanics.validation = validate::ValidationMode::kDeep;
  mechanics.checkpoint_path = "/tmp/elsewhere.jsonl";
  mechanics.collect_counters = true;
  EXPECT_EQ(base, ConfigFingerprint(setup, mechanics));
}

TEST(Resume, InterruptedSweepResumesBitIdentical) {
  const ExperimentSetup setup = BuildExperimentSetup(3, SmallOptions());
  const std::string path = TempPath("resume_golden");
  std::remove(path.c_str());

  RunOptions options;
  options.num_trials = 6;
  options.num_threads = 2;

  // Uninterrupted reference run.
  const SweepResult reference = RunSweep(setup, "SQ", "en+rob", options);
  ASSERT_TRUE(reference.complete());
  ASSERT_EQ(reference.results.size(), 6u);

  // "Crashed" run: only the first 3 trials reach the checkpoint.
  RunOptions partial = options;
  partial.num_trials = 3;
  partial.checkpoint_path = path;
  ASSERT_TRUE(RunSweep(setup, "SQ", "en+rob", partial).complete());

  // Resumed run: 3 trials served from the store, 3 executed fresh.
  const CheckpointStore store = CheckpointStore::Load(path);
  RunOptions resumed_options = options;
  resumed_options.checkpoint_path = path;
  resumed_options.resume = &store;
  const SweepResult resumed = RunSweep(setup, "SQ", "en+rob", resumed_options);
  ASSERT_TRUE(resumed.complete());
  EXPECT_EQ(resumed.trials_resumed, 3u);
  ASSERT_EQ(resumed.results.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    test::ExpectSameResult(reference.results[i], resumed.results[i]);
  }

  // The checkpoint now holds all six trials; a further resume re-runs none.
  const CheckpointStore full = CheckpointStore::Load(path);
  RunOptions all_resumed = options;
  all_resumed.resume = &full;
  const SweepResult nothing_to_do = RunSweep(setup, "SQ", "en+rob",
                                             all_resumed);
  EXPECT_EQ(nothing_to_do.trials_resumed, 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    test::ExpectSameResult(reference.results[i], nothing_to_do.results[i]);
  }
  std::remove(path.c_str());
}

TEST(Resume, SalvagedResumeIsBitIdenticalToUninterrupted) {
  const ExperimentSetup setup = BuildExperimentSetup(3, SmallOptions());
  const std::string path = TempPath("resume_salvage");
  std::remove(path.c_str());

  RunOptions options;
  options.num_trials = 6;
  options.num_threads = 1;  // append order == trial order

  const SweepResult reference = RunSweep(setup, "SQ", "en+rob", options);
  ASSERT_TRUE(reference.complete());
  ASSERT_EQ(reference.results.size(), 6u);

  // Full run, then a SIGKILL torn tail: the final record loses half itself.
  RunOptions checkpointed = options;
  checkpointed.checkpoint_path = path;
  ASSERT_TRUE(RunSweep(setup, "SQ", "en+rob", checkpointed).complete());
  {
    std::string text = ReadFile(path);
    ASSERT_EQ(text.back(), '\n');
    const std::size_t final_start = text.rfind('\n', text.size() - 2) + 1;
    text.resize(final_start + (text.size() - final_start) / 2);
    WriteFile(path, text);
  }

  // Salvage drops the torn record and truncates; resuming re-runs exactly
  // that trial and lands bit-identical to the uninterrupted reference.
  const CheckpointStore store =
      CheckpointStore::Load(path, {.salvage = true});
  EXPECT_TRUE(store.header_valid());
  EXPECT_EQ(store.size(), 5u);
  EXPECT_EQ(store.dropped_records(), 1u);
  RunOptions resumed_options = checkpointed;
  resumed_options.resume = &store;
  const SweepResult resumed = RunSweep(setup, "SQ", "en+rob", resumed_options);
  ASSERT_TRUE(resumed.complete());
  EXPECT_EQ(resumed.trials_resumed, 5u);
  ASSERT_EQ(resumed.results.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    test::ExpectSameResult(reference.results[i], resumed.results[i]);
  }
  // The healed checkpoint is whole again: a strict load serves all six.
  EXPECT_EQ(CheckpointStore::Load(path).size(), 6u);
  std::remove(path.c_str());
}

TEST(Resume, RefusesStoreFromDifferentConfig) {
  const ExperimentSetup setup = BuildExperimentSetup(3, SmallOptions());
  const ExperimentSetup other = BuildExperimentSetup(4, SmallOptions());
  const std::string path = TempPath("resume_mismatch");
  std::remove(path.c_str());

  RunOptions options;
  options.num_trials = 2;
  options.checkpoint_path = path;
  ASSERT_TRUE(RunSweep(other, "SQ", "en+rob", options).complete());

  const CheckpointStore store = CheckpointStore::Load(path);
  RunOptions resume_options;
  resume_options.num_trials = 2;
  resume_options.resume = &store;
  EXPECT_EQ(
      ErrorKind([&] { (void)RunSweep(setup, "SQ", "en+rob", resume_options); }),
      CheckpointErrorKind::kConfigMismatch);
  std::remove(path.c_str());
}

TEST(Resume, CheckpointingRejectsPerTaskCollection) {
  const ExperimentSetup setup = BuildExperimentSetup(3, SmallOptions());
  RunOptions options;
  options.num_trials = 1;
  options.checkpoint_path = TempPath("records_reject");
  options.collect_task_records = true;
  EXPECT_EQ(ErrorKind([&] { (void)RunSweep(setup, "SQ", "en+rob", options); }),
            CheckpointErrorKind::kUnsupportedOptions);
}

}  // namespace
}  // namespace ecdra::sim
