// End-to-end tests of run_experiment_cli: input validation produces
// one-line diagnostics with non-zero exit codes, the spec-key flags and
// --help follow the knob table, and the checkpoint/resume flags work
// through the real binary. The binary path is injected by CMake
// as ECDRA_CLI_PATH.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "policy/scenario_spec.hpp"

namespace {

struct CliResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

CliResult RunCli(const std::string& args) {
  const std::string command = std::string(ECDRA_CLI_PATH) + " " + args +
                              " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  CliResult result;
  if (pipe == nullptr) return result;
  char buffer[4096];
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    result.output += buffer;
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "ecdra_cli_" + name + ".jsonl";
}

TEST(Cli, UnknownPolicyNamesListValidChoices) {
  // Deleted policies (race-to-idle, deadline-aware, migrate) and unknown
  // names fail alike, from a flag or from a spec file, before any trial
  // runs; a name no run would use (placement without --jobs) fails too.
  const auto spec_with = [](const std::string& name, const std::string& line) {
    const std::string path = TempPath(name);
    const std::string write = std::string(ECDRA_CLI_PATH) +
                              " --print-spec > " + path + " && echo '" +
                              line + "' >> " + path;
    EXPECT_EQ(std::system(write.c_str()), 0) << write;
    return path;
  };
  const std::string specs[] = {
      spec_with("unknown_recovery", "run.recovery = migrate"),
      spec_with("unknown_governor", "run.governor = race-to-idle"),
      spec_with("unknown_admission", "stream.admission = nosuch"),
      spec_with("unknown_placement", "run.jobs.placement = nosuch"),
  };
  const std::string governors = "budget-feedback, profit-guard, static";
  const std::string admissions = "none, rho, value-density";
  const std::string placements = "pack, serial, spread";
  const struct {
    std::string args;
    std::vector<std::string> expected;
  } cases[] = {
      {"--heuristic BOGUS", {"unknown heuristic 'BOGUS'", "SQ", "Random"}},
      {"--governor race-to-idle", {"run.governor (--governor)", governors}},
      {"--governor deadline-aware", {governors}},
      {"--stream --energy-rate 2611.8 --admission nosuch",
       {"stream.admission (--admission)", admissions}},
      {"--jobs --gang-policy nosuch",
       {"run.jobs.placement (--gang-policy)", placements}},
      {"--recovery migrate", {"(valid: drop, requeue)"}},
      {"--spec " + specs[0], {"(valid: drop, requeue)"}},
      {"--spec " + specs[1], {"run.governor (--governor)", governors}},
      {"--spec " + specs[2] + " --stream --energy-rate 2611.8",
       {"stream.admission (--admission)", admissions}},
      {"--spec " + specs[3] + " --jobs",
       {"run.jobs.placement (--gang-policy)", placements}},
      {"--spec " + specs[3], {"run.jobs.placement (--gang-policy)"}},
  };
  for (const auto& input : cases) {
    SCOPED_TRACE(input.args);
    const CliResult result = RunCli(input.args + " --trials 1");
    EXPECT_EQ(result.exit_code, 2);
    for (const std::string& fragment : input.expected) {
      EXPECT_NE(result.output.find(fragment), std::string::npos)
          << result.output;
    }
  }
  for (const std::string& path : specs) std::remove(path.c_str());
}

TEST(Cli, UnknownVariantListsValidChoices) {
  const CliResult result = RunCli("--variant=bogus");
  EXPECT_EQ(result.exit_code, 2);
  // The registry's diagnostic names the bad filter and the registered keys;
  // the CLI appends the composite syntax.
  EXPECT_NE(result.output.find("unknown filter 'bogus'"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("en"), std::string::npos);
  EXPECT_NE(result.output.find("rob"), std::string::npos);
  EXPECT_NE(result.output.find("en+rob"), std::string::npos);
}

TEST(Cli, MalformedNumbersAreRejected) {
  EXPECT_EQ(RunCli("--trials 10x").exit_code, 2);
  EXPECT_EQ(RunCli("--trials -3").exit_code, 2);
  EXPECT_EQ(RunCli("--budget-scale nan.3").exit_code, 2);
  EXPECT_EQ(RunCli("--trial-timeout -1").exit_code, 2);
  const CliResult result = RunCli("--seed 12junk");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--seed"), std::string::npos) << result.output;
}

TEST(Cli, MissingValueAndUnknownFlagAreRejected) {
  EXPECT_EQ(RunCli("--trials").exit_code, 2);
  const CliResult result = RunCli("--no-such-flag");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("unknown flag"), std::string::npos)
      << result.output;
}

TEST(Cli, ResumeRequiresCheckpoint) {
  const CliResult result = RunCli("--resume");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--resume requires --checkpoint"),
            std::string::npos)
      << result.output;
}

TEST(Cli, UnknownValidateModeIsRejected) {
  const CliResult result = RunCli("--validate=wat");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("valid: off, cheap, deep"), std::string::npos)
      << result.output;
}

TEST(Cli, SpecFileAndFlagsRefuseTheSameOutOfRangeValues) {
  // One check serves both inputs: the flag and the spec line that set the
  // same knob are refused with the same one-line diagnostic, before any
  // trial runs.
  const struct {
    const char* flag;
    const char* spec_line;
  } knobs[] = {
      {"--energy-price -5", "run.econ.energy_price = -5"},
      {"--value-decay -1", "run.econ.value_decay = -1"},
      {"--econ-values -3", "env.econ.values = -3"},
      {"--sla-tiers gold@3@2@1.5@1", "env.econ.tiers = gold@3@2@1.5@1"},
      {"--job-deadline-scale 0.2", "env.workload.jobs.deadline_scale = 0.2"},
      {"--rho-thresh -1", "run.filter.rho_thresh = -1"},
      {"--job-widths 0@1", "env.workload.jobs.widths = 0@1"},
      {"--throttle-floor 9", "run.fault.throttle_floor = 9"},
      {"--degraded-rho-scale 0.5", "stream.degraded_rho_scale = 0.5"},
      {"--trials 0", "harness.trials = 0"},
      // Non-finite numbers have no spec spelling, so both inputs refuse
      // them; inf passes every ">= 0" range check on its own.
      {"--fault-mtbf inf", "run.fault.mtbf = inf"},
      {"--energy-price -inf", "run.econ.energy_price = -inf"},
      {"--econ-values 1,inf", "env.econ.values = 1,inf"},
      {"--rho-thresh nan", "run.filter.rho_thresh = nan"},
  };
  for (const auto& knob : knobs) {
    SCOPED_TRACE(knob.spec_line);
    const std::string spec_path = TempPath("out_of_range");
    const std::string write = std::string(ECDRA_CLI_PATH) +
                              " --print-spec > " + spec_path + " && echo '" +
                              knob.spec_line + "' >> " + spec_path;
    ASSERT_EQ(std::system(write.c_str()), 0) << write;
    // A trailing --trials 1 keeps a wrongly accepted run short; the trials
    // case itself must not be overridden by it.
    const std::string trials =
        std::string(knob.flag).starts_with("--trials") ? "" : " --trials 1";
    const CliResult from_flag = RunCli(std::string(knob.flag) + trials);
    const CliResult from_spec = RunCli("--spec " + spec_path + trials);
    EXPECT_EQ(from_flag.exit_code, 2);
    EXPECT_EQ(from_spec.exit_code, 2);
    EXPECT_NE(from_flag.output.find("must "), std::string::npos)
        << from_flag.output;
    // The diagnostic echoes the value as given.
    const std::string value =
        std::string(knob.flag).substr(std::string(knob.flag).find(' ') + 1);
    EXPECT_NE(from_flag.output.find(", got " + value + "\n"),
              std::string::npos)
        << from_flag.output;
    EXPECT_EQ(from_flag.output, from_spec.output);
    // One line: the only newline is the terminating one.
    EXPECT_EQ(from_flag.output.find('\n'), from_flag.output.size() - 1)
        << from_flag.output;
    std::remove(spec_path.c_str());
  }
}

TEST(Cli, ResumeRefusesADifferentGangPolicy) {
  // Gang placement shapes results, so a checkpoint written under one policy
  // must not be resumed under another.
  const std::string path = TempPath("gang_policy");
  std::remove(path.c_str());
  const std::string jobs =
      "--trials 1 --heuristic SQ --variant en --jobs "
      "--job-widths 2@0.5,1@0.5 --checkpoint " + path;
  const CliResult serial = RunCli(jobs + " --gang-policy serial");
  ASSERT_EQ(serial.exit_code, 0) << serial.output;
  const CliResult pack = RunCli(jobs + " --gang-policy pack --resume");
  EXPECT_EQ(pack.exit_code, 2) << pack.output;
  EXPECT_NE(pack.output.find("different run"), std::string::npos)
      << pack.output;
  std::remove(path.c_str());
}

TEST(Cli, HelpListsEveryKnobFlag) {
  const CliResult help = RunCli("--help");
  ASSERT_EQ(help.exit_code, 0);
  for (const ecdra::policy::Knob& knob : ecdra::policy::Knobs()) {
    if (knob.flag.empty()) continue;
    EXPECT_NE(help.output.find("  " + std::string(knob.flag) + " "),
              std::string::npos)
        << knob.flag;
    EXPECT_NE(help.output.find(std::string(knob.key)), std::string::npos)
        << knob.key;
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(Cli, PrintSpecMatchesTheRecordedText) {
  // The flag sets the CI round-trips exercise, against --print-spec output
  // recorded before the knob table replaced the per-flag parsing.
  const struct {
    const char* flags;
    const char* golden;
  } cases[] = {
      {"", "spec_paper.txt"},
      {"--stream --energy-rate 1500 --admission rho", "spec_cli_stream.txt"},
      {"--jobs --job-widths 2@0.5,4@0.5 --job-depths 1@0.5,2@0.5 "
       "--job-deadline-scale 1.5 --gang-policy spread",
       "spec_cli_jobs.txt"},
      {"--econ --econ-values 1,4,0.5 "
       "--sla-tiers gold@3@2@0.8@0.2,be@1@1@0@0.8 --energy-price 2.5e-6 "
       "--value-decay 150",
       "spec_cli_econ.txt"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.flags);
    const std::string golden =
        ReadFile(std::string(ECDRA_GOLDEN_DIR) + "/" + c.golden);
    ASSERT_FALSE(golden.empty()) << c.golden;
    const CliResult printed = RunCli(std::string(c.flags) + " --print-spec");
    EXPECT_EQ(printed.exit_code, 0);
    EXPECT_EQ(printed.output, golden);
  }
}

TEST(Cli, CheckpointThenResumeServesTrialsFromTheFile) {
  const std::string path = TempPath("resume_smoke");
  std::remove(path.c_str());

  const CliResult first = RunCli(
      "--trials 2 --heuristic SQ --variant en --checkpoint " + path);
  ASSERT_EQ(first.exit_code, 0) << first.output;
  EXPECT_NE(first.output.find("checkpoint written to"), std::string::npos);

  const CliResult second = RunCli(
      "--trials 2 --heuristic SQ --variant en --resume --checkpoint " + path);
  ASSERT_EQ(second.exit_code, 0) << second.output;
  EXPECT_NE(second.output.find("2 resumed"), std::string::npos)
      << second.output;

  // A mismatched configuration must refuse to resume.
  const CliResult mismatched = RunCli(
      "--trials 2 --heuristic SQ --variant en --seed 99 --resume "
      "--checkpoint " + path);
  EXPECT_EQ(mismatched.exit_code, 2);
  EXPECT_NE(mismatched.output.find("different run"), std::string::npos)
      << mismatched.output;

  std::remove(path.c_str());
}

}  // namespace
