// Lightweight scoped tracing that emits Chrome trace_event JSON
// (load the file at chrome://tracing or https://ui.perfetto.dev).
//
// A trace session is process-global and bound to one output file
// (`--trace-out` on the CLI).  While a session is active, TraceScope
// records one complete ("ph":"X") event per scope into a per-thread
// buffer; buffers are only merged and serialized at Stop(), so the
// per-scope cost is two obs::Now() reads and one vector push_back
// under an uncontended per-thread mutex.  When no session is active
// a scope costs one relaxed atomic load.
//
// Tracing follows the same contract as the metrics registry: it never
// touches estimation inputs or outputs, so results are bit-identical
// with tracing on or off.
#pragma once

#include <cstdint>
#include <string>

namespace ictm::obs {

namespace tracing {

/// Opens `path` and starts the process-wide session.  Fails (with
/// *error set) if a session is already active or the file cannot be
/// opened.
bool Start(const std::string& path, std::string* error);

/// True between a successful Start() and the matching Stop().
bool Active();

/// Serializes all buffered events to the session file and closes it.
/// No-op when no session is active.  Returns false (with *error set)
/// if the file cannot be written.
bool Stop(std::string* error);

/// Records a zero-duration instant event ("ph":"i") marker.
void Instant(const char* name, const char* category = "ictm");

}  // namespace tracing

/// RAII scope: records a complete event [construction, destruction)
/// named `name` when a trace session is active.  `name` and
/// `category` must be string literals (they are captured by pointer
/// and read at Stop()).
class TraceScope {
 public:
  explicit TraceScope(const char* name, const char* category = "ictm");
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  const char* name_;
  const char* category_;
  std::uint64_t startNs_ = 0;
  bool recording_ = false;
};

}  // namespace ictm::obs
