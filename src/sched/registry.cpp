#include "sched/registry.h"

#include <stdexcept>

#include "sched/policies.h"

namespace fedtrip::sched {

SchedulerPtr make_scheduler(const SchedConfig& config,
                            bool remote_trainable) {
  if (config.policy == "sync") return std::make_unique<SyncScheduler>();
  if (config.policy == "fastk") {
    return std::make_unique<FastKScheduler>(config);
  }
  if (config.policy == "async") {
    return std::make_unique<AsyncScheduler>(config, remote_trainable);
  }
  if (config.policy == "deadline") {
    return std::make_unique<DeadlineScheduler>(config, remote_trainable);
  }
  throw std::invalid_argument("unknown schedule policy: " + config.policy);
}

const std::vector<std::string>& all_policies() {
  static const std::vector<std::string> names = {"sync", "fastk", "async",
                                                 "deadline"};
  return names;
}

}  // namespace fedtrip::sched
