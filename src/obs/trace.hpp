// One timed scope for the whole observability layer: obs::Span times
// a stage for the metrics registry and, while a trace session runs,
// for a Chrome trace_event JSON file (load it at chrome://tracing or
// https://ui.perfetto.dev).
//
// A trace session is process-global and bound to one output file
// (`--trace-out` on the CLI).  While it runs, each Span records one
// complete ("ph":"X") event into a per-thread buffer, so the per-scope
// cost is two obs::Now() reads and one vector push_back under an
// uncontended per-thread mutex.  A buffer holds at most 4096 events:
// the thread that fills it writes them to the file under the session
// mutex, so a session's memory stays bounded however long it runs.  A
// Span with neither metrics recording nor a session running reads no
// clock.
//
// Spans follow the same contract as the metrics registry: they never
// touch estimation inputs or outputs, so results are bit-identical
// with metrics and tracing on or off.
#pragma once

#include <cstdint>
#include <string>

namespace ictm::obs {

class Counter;
class Histogram;

namespace tracing {

/// Opens `path` as an OutputFile, writes the JSON header and starts
/// the process-wide session.  Throws ictm::Error if a session is
/// already running or the file cannot be opened.  A session that is
/// never stopped leaves no file.
void Start(const std::string& path);

/// True between Start() and the matching Stop().
bool Active();

/// Writes the events still buffered and the JSON footer to the
/// session file and commits it.  No-op when no session is running.
/// Throws ictm::Error, leaving no partial file, if the file cannot be
/// written completely, including by a buffer flushed earlier.
void Stop();

}  // namespace tracing

/// RAII timed scope [construction, destruction).  While metrics
/// record, the elapsed nanoseconds are added to `ns` and recorded in
/// `dist` (either may be null); while a trace session runs, one
/// complete event named `name` is appended.  `name` and `category`
/// must be string literals (they are captured by pointer and read at
/// Stop()).
class Span {
 public:
  Span(const char* name, const char* category, Counter* ns = nullptr,
       Histogram* dist = nullptr);
  ~Span();
  Span(const Span&) = delete;             ///< non-copyable
  Span& operator=(const Span&) = delete;  ///< non-copyable

 private:
  const char* name_;
  const char* category_;
  Counter* ns_;
  Histogram* dist_;
  std::uint64_t startNs_ = 0;
  bool tracing_ = false;
};

}  // namespace ictm::obs
