// CPU placement for steady timings.
//
// The timed thread (set-ups, deploy stages, monitor cycles) is pinned
// to one CPU of the process's allowed set, and the helper threads (query
// server, load generator) are started on the other CPUs. An unpinned timed
// thread migrates between CPUs, and on a virtual machine a migration can
// land on an idle virtual CPU that first has to be woken — one run then
// measures 1.5x slower than the next with no change to the code.
//
// Each query connection's client thread and the server thread serving
// it share one CPU, so a request wakes its server thread on the CPU
// that sent it, and the reply wakes the client there: no wake-up of an
// idle virtual CPU sits inside a query's latency.
#pragma once

#include <sched.h>
#include <sys/types.h>

#include <cstdlib>
#include <filesystem>
#include <set>
#include <system_error>
#include <vector>

namespace perfbench {

/// CPUs this process may run on, ascending.
[[nodiscard]] inline std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Restrict thread `tid` (0: the calling thread), and threads it creates
/// afterwards, to `cpus`; false, and no change, when `cpus` is empty or
/// refused.
inline bool pin_thread(pid_t tid, const std::vector<int>& cpus) {
  if (cpus.empty()) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  return sched_setaffinity(tid, sizeof(set), &set) == 0;
}
inline bool pin_current_thread(const std::vector<int>& cpus) { return pin_thread(0, cpus); }

/// Thread ids of this process (its /proc/self/task entries); empty when
/// they cannot be listed.
[[nodiscard]] inline std::set<pid_t> thread_ids() {
  std::set<pid_t> ids;
  std::error_code error;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task", error)) {
    ids.insert(static_cast<pid_t>(std::atoi(entry.path().filename().c_str())));
  }
  return ids;
}

/// Pin every thread that is in thread_ids() now but not in `before`
/// (threads some other component started in between) to `cpus`.
inline void pin_new_threads(const std::set<pid_t>& before, const std::vector<int>& cpus) {
  for (const pid_t tid : thread_ids()) {
    if (before.count(tid) == 0) pin_thread(tid, cpus);
  }
}

}  // namespace perfbench
