// The single sanctioned clock for the observability layer.
//
// The determinism contract (docs/ARCHITECTURE.md, "Threading model
// and determinism contract") bans wall-clock reads from
// result-producing code; ictm_lint ICTM-D002 enforces that ban
// statically.  Observability still needs timestamps, so this header
// funnels every clock read in the repo's instrumentation through one
// function whose definition (src/obs/now.cpp) is the only
// obs-side allowlisted ICTM-D002 site.  Calling obs::Now() never
// trips the lint; calling std::chrono::steady_clock::now() anywhere
// else does.
#pragma once

#include <cstdint>

namespace ictm::obs {

/// Monotonic time in nanoseconds since an arbitrary epoch
/// (std::chrono::steady_clock).  Values are only meaningful as
/// differences.
std::uint64_t Now();

}  // namespace ictm::obs
