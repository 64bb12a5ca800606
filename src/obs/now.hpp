// The one clock of the repo.
//
// The determinism contract (docs/ARCHITECTURE.md, "Threading model
// and determinism contract") bans wall-clock reads from
// result-producing code; ictm_lint ICTM-D002 enforces that ban
// statically.  Timings still need timestamps, so every clock read in
// src/, tools/, bench/ and examples/ goes through obs::Now(), whose
// definition (src/obs/now.cpp) is the only allowlisted ICTM-D002
// site.  Stage timings use obs::Span (obs/trace.hpp); run-level
// timings (the scenario notes channel, the CLI's "in N s" lines, the
// benches) take the difference of two reads.
#pragma once

#include <cstdint>

namespace ictm::obs {

/// Monotonic time in nanoseconds since an arbitrary epoch.  Values
/// are only meaningful as differences.
std::uint64_t Now();

/// Seconds elapsed since `startNs`, an earlier Now() reading.
inline double ElapsedSeconds(std::uint64_t startNs) {
  return static_cast<double>(Now() - startNs) * 1e-9;
}

}  // namespace ictm::obs
