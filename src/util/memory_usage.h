#ifndef TSC_UTIL_MEMORY_USAGE_H_
#define TSC_UTIL_MEMORY_USAGE_H_

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>

namespace tsc {

/// Resident set size of this process now, in MiB (from /proc/self/statm;
/// 0 where that file is unavailable).
inline double CurrentRssMiB() {
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0.0;
  unsigned long size_pages = 0;
  unsigned long resident_pages = 0;
  const int fields = std::fscanf(statm, "%lu %lu", &size_pages, &resident_pages);
  std::fclose(statm);
  if (fields != 2) return 0.0;
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Largest resident set size this process has reached, in MiB.
inline double PeakRssMiB() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace tsc

#endif  // TSC_UTIL_MEMORY_USAGE_H_
