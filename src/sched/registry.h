// Registry: create round schedulers by policy name, mirroring the
// compressor registry (comm/registry.h) so drivers sweep the
// algorithm x compressor x network x schedule grid with strings.
#pragma once

#include <string>
#include <vector>

#include "sched/config.h"
#include "sched/scheduler.h"

namespace fedtrip::sched {

/// Instantiates a policy: "sync" | "fastk" | "async" | "deadline". Throws
/// std::invalid_argument otherwise. `remote_trainable`: the algorithm's
/// training is a pure function of the dispatch
/// (fl::FederatedAlgorithm::remote_trainable()), so async and deadline may
/// train an arrival before it pops, batched with others.
SchedulerPtr make_scheduler(const SchedConfig& config, bool remote_trainable);

/// All registry names, sync first.
const std::vector<std::string>& all_policies();

}  // namespace fedtrip::sched
