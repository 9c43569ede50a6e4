// Scheduler registry and config plumbing.
#include <gtest/gtest.h>

#include "sched/policies.h"
#include "sched/registry.h"

namespace fedtrip::sched {
namespace {

TEST(SchedRegistryTest, MakesEveryRegisteredPolicy) {
  for (const auto& name : all_policies()) {
    for (const bool remote_trainable : {false, true}) {
      SchedConfig cfg;
      cfg.policy = name;
      auto scheduler = make_scheduler(cfg, remote_trainable);
      ASSERT_NE(scheduler, nullptr);
      EXPECT_EQ(scheduler->name(), name);
    }
  }
}

TEST(SchedRegistryTest, SyncIsFirstAndDefault) {
  ASSERT_FALSE(all_policies().empty());
  EXPECT_EQ(all_policies().front(), "sync");
  EXPECT_EQ(SchedConfig{}.policy, "sync");
}

TEST(SchedRegistryTest, UnknownPolicyThrows) {
  SchedConfig cfg;
  cfg.policy = "semiasync";
  EXPECT_THROW(make_scheduler(cfg, false), std::invalid_argument);
}

TEST(SchedConfigTest, TransparentDefaults) {
  SchedConfig cfg;
  EXPECT_EQ(cfg.overselect, 0u);
  EXPECT_EQ(cfg.buffer_size, 0u);
  EXPECT_DOUBLE_EQ(cfg.staleness_alpha, 0.5);
}

TEST(FastKTest, OverselectDefaultsToTwiceKClampedToN) {
  SchedConfig cfg;
  EXPECT_EQ(FastKScheduler::overselect_for(cfg, 4, 100), 8u);
  EXPECT_EQ(FastKScheduler::overselect_for(cfg, 4, 6), 6u);  // capped at N
  cfg.overselect = 5;
  EXPECT_EQ(FastKScheduler::overselect_for(cfg, 4, 100), 5u);
  cfg.overselect = 2;  // below K: clamped up
  EXPECT_EQ(FastKScheduler::overselect_for(cfg, 4, 100), 4u);
  cfg.overselect = 1000;  // above N: clamped down
  EXPECT_EQ(FastKScheduler::overselect_for(cfg, 4, 10), 10u);
}

}  // namespace
}  // namespace fedtrip::sched
