// The run_experiment flag registry: the generated --help text must mention
// every registered flag (this is the drift guard that was missing when the
// PR-2 scheduler flags landed in the parser but the usage text went stale),
// and the registry must cover every subsystem's knobs. Flag values parse
// strictly: the whole string or an error, never a silent 0.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>

#include "fl/flags.h"

namespace fedtrip::fl {
namespace {

TEST(FlagsTest, UsageMentionsEveryRegisteredFlag) {
  const std::string usage = experiment_usage();
  for (const auto& spec : experiment_flags()) {
    EXPECT_NE(usage.find(spec.name), std::string::npos)
        << "--help text omits " << spec.name;
  }
}

TEST(FlagsTest, NoDuplicateFlagNames) {
  std::set<std::string> seen;
  for (const auto& spec : experiment_flags()) {
    EXPECT_TRUE(seen.insert(spec.name).second)
        << spec.name << " registered twice";
  }
}

TEST(FlagsTest, EveryFlagHasHelpText) {
  for (const auto& spec : experiment_flags()) {
    ASSERT_NE(spec.help, nullptr) << spec.name;
    EXPECT_GT(std::string(spec.help).size(), 0u) << spec.name;
  }
}

TEST(FlagsTest, CoversEverySubsystemsFlags) {
  std::set<std::string> names;
  for (const auto& spec : experiment_flags()) names.insert(spec.name);
  // The PR-2 scheduler flags whose documentation drifted.
  for (const char* flag : {"--schedule", "--overselect", "--buffer",
                           "--staleness-alpha", "--delta"}) {
    EXPECT_TRUE(names.count(flag)) << flag;
  }
  // The comm subsystem flags.
  for (const char* flag : {"--compressor", "--down-compressor", "--network",
                           "--bandwidth", "--latency"}) {
    EXPECT_TRUE(names.count(flag)) << flag;
  }
  // The client heterogeneity flags.
  for (const char* flag :
       {"--compute-profile", "--seconds-per-sample", "--availability",
        "--avail-on", "--avail-off", "--deadline"}) {
    EXPECT_TRUE(names.count(flag)) << flag;
  }
  // The checkpoint flags.
  for (const char* flag : {"--load-model", "--save-model"}) {
    EXPECT_TRUE(names.count(flag)) << flag;
  }
  // The elastic coordinator flags (PR 7).
  for (const char* flag :
       {"--elastic", "--heartbeat-interval", "--worker-deadline"}) {
    EXPECT_TRUE(names.count(flag)) << flag;
  }
  // The live telemetry flags (docs/OBSERVABILITY.md).
  for (const char* flag : {"--obs", "--trace-out", "--metrics-out",
                           "--metrics-interval", "--metrics-ndjson",
                           "--flight-recorder"}) {
    EXPECT_TRUE(names.count(flag)) << flag;
  }
}

TEST(FlagsTest, WorkerRegistryCoversItsFlagsAndUsage) {
  const std::string usage = worker_usage();
  std::set<std::string> names;
  for (const auto& spec : worker_flags()) {
    EXPECT_NE(usage.find(spec.name), std::string::npos)
        << "worker --help text omits " << spec.name;
    ASSERT_NE(spec.help, nullptr) << spec.name;
    EXPECT_GT(std::string(spec.help).size(), 0u) << spec.name;
    EXPECT_TRUE(names.insert(spec.name).second)
        << spec.name << " registered twice";
  }
  // The serve-loop, chaos and forensics knobs must all be registered.
  for (const char* flag :
       {"--connect", "--listen", "--max-sessions", "--chaos-kill-after",
        "--chaos-drop-after", "--chaos-delay-ms", "--flight-recorder"}) {
    EXPECT_TRUE(names.count(flag)) << flag;
  }
}

TEST(FlagsTest, ValuePlaceholdersRenderInUsage) {
  const std::string usage = experiment_usage();
  // A value flag renders "--name PLACEHOLDER".
  EXPECT_NE(usage.find("--schedule P"), std::string::npos);
  EXPECT_NE(usage.find("--deadline T"), std::string::npos);
  // The deadline policy must be discoverable from --help.
  EXPECT_NE(usage.find("sync|fastk|async|deadline"), std::string::npos);
}

TEST(FlagsTest, CountsParseStrictly) {
  // A count is all digits: anything else is an error, never a silent 0, a
  // parsed prefix or a wrapped negative.
  for (const char* bad : {"abc", "12x", "-1", "", "+3", " 7", "1.5"}) {
    EXPECT_THROW(parse_flag<std::size_t>(bad), std::invalid_argument)
        << "'" << bad << "'";
  }
  EXPECT_EQ(parse_flag<std::size_t>("30"), 30u);
  EXPECT_EQ(parse_flag<std::size_t>("0"), 0u);
  EXPECT_EQ(parse_flag<int>("8"), 8);
  // A count must fit its type: a port is at most 65535.
  EXPECT_EQ(parse_flag<std::uint16_t>("65535"), 65535u);
  EXPECT_THROW(parse_flag<std::uint16_t>("65536"), std::invalid_argument);
  EXPECT_THROW(parse_flag<std::uint64_t>("18446744073709551616"),
               std::invalid_argument);
}

TEST(FlagsTest, NumbersParseStrictly) {
  EXPECT_EQ(parse_flag<double>("0.5"), 0.5);
  EXPECT_EQ(parse_flag<double>("-2"), -2.0);
  EXPECT_EQ(parse_flag<double>("1e-3"), 1e-3);
  // Floats round through double, exactly as static_cast<float>(atof(s)).
  EXPECT_EQ(parse_flag<float>("0.01"), static_cast<float>(0.01));
  for (const char* bad : {"abc", "0.5x", "", " 1", "nan", "inf", "1e400"}) {
    EXPECT_THROW(parse_flag<double>(bad), std::invalid_argument)
        << "'" << bad << "'";
  }
}

}  // namespace
}  // namespace fedtrip::fl
