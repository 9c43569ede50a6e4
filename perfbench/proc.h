// Process and host readings the benchmark prints beside its metrics, so a
// run slowed by the shared host can be told from a slow program.
#pragma once

namespace perfbench {

/// CPU seconds (user + system) this process has used so far, all threads.
double process_cpu_s();

/// Host-wide steal seconds so far, summed over every CPU (/proc/stat);
/// 0 where the kernel does not report steal.
double host_steal_s();

/// Resident set size now, in MB.
double current_rss_mb();

/// Highest resident set size since the process started or since the last
/// reset_peak_rss(), in MB (VmHWM).
double peak_rss_mb();

/// Restarts the peak at the current resident set size, so a trial's peak
/// does not include an earlier trial's. A no-op where the kernel does not
/// allow it; the peak then runs from the process start.
void reset_peak_rss();

/// Wall seconds of a fixed single-threaded compute-and-memory loop. Steal
/// misses a host that is slower without stealing (frequency, memory
/// contention); this loop slows with it while the program is unchanged.
double reference_loop_s();

}  // namespace perfbench
