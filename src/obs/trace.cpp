#include "obs/trace.hpp"

#include <atomic>
#include <charconv>
#include <memory>
#include <mutex>
#include <ostream>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/output_file.hpp"
#include "obs/metrics.hpp"
#include "obs/now.hpp"

namespace ictm::obs {

namespace {

// A thread writes its buffered events to the session file once it
// holds this many (128 KB), so a session's memory does not grow with
// its length.
constexpr std::size_t kFlushEvents = 4096;

struct Event {
  const char* name;
  const char* category;
  std::uint64_t tsNs;
  std::uint64_t durNs;
};

/// Per-thread event buffer of at most kFlushEvents events.  The mutex
/// is uncontended on the hot path (only its owner thread appends);
/// Stop() takes it to drain safely even if a straggler scope is still
/// finishing.
struct ThreadBuffer {
  ThreadBuffer() { events.reserve(kFlushEvents); }
  std::mutex mutex;
  std::vector<Event> events;
  std::uint32_t tid = 0;
};

struct TraceState {
  std::atomic<bool> active{false};
  // Guards everything below, and the file's stream; taken before a
  // buffer's mutex.
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::vector<ThreadBuffer*> freeList;  // buffers of exited threads
  // The running session's file; removed uncommitted if the process
  // ends without Stop().
  std::unique_ptr<OutputFile> file;
  const char* separator = "";  // before the next event written
  std::uint64_t startNs = 0;
  std::uint32_t nextTid = 0;
};

TraceState& State() {
  // One session per process, like the metrics registry
  // (ICTM-D004 allowlisted).
  static TraceState state;
  return state;
}

/// Returns this thread's buffer, registering (or recycling) one on
/// first use.  The unregister-on-thread-exit hook returns the buffer
/// to the free list so serve processes that spawn per-session worker
/// threads do not grow the buffer list without bound; recycled
/// buffers keep their tid and any not-yet-drained events.
struct Registration {
  ThreadBuffer* buffer = nullptr;
  ~Registration() {
    if (buffer == nullptr) return;
    TraceState& state = State();
    std::lock_guard<std::mutex> lock(state.mutex);
    state.freeList.push_back(buffer);
  }
};

ThreadBuffer* LocalBuffer() {
  thread_local Registration reg;
  if (reg.buffer == nullptr) {
    TraceState& state = State();
    std::lock_guard<std::mutex> lock(state.mutex);
    if (!state.freeList.empty()) {
      reg.buffer = state.freeList.back();
      state.freeList.pop_back();
    } else {
      state.buffers.push_back(std::make_unique<ThreadBuffer>());
      reg.buffer = state.buffers.back().get();
      reg.buffer->tid = state.nextTid++;
    }
  }
  return reg.buffer;
}

/// Writes `ns` as microseconds with three decimals, the text printf's
/// "%.3f" gives, without the stream's locale-aware number formatting,
/// which took most of a flush's time.
void WriteMicros(std::ostream& out, std::uint64_t ns) {
  char text[32];
  const std::to_chars_result result =
      std::to_chars(text, text + sizeof text, static_cast<double>(ns) / 1e3,
                    std::chars_format::fixed, 3);
  out.write(text, result.ptr - text);
}

/// Writes `buffer`'s events to the running session's file, if any,
/// and empties the buffer.  An event that began before the session
/// started is a straggler of an earlier one (its scope ended after
/// that session stopped) and is dropped.  The caller holds the state
/// mutex and the buffer's.  A failed write leaves the stream failed,
/// so Stop()'s commit reports it.
void WriteEvents(TraceState& state, ThreadBuffer& buffer) {
  if (state.file != nullptr) {
    std::ostream& out = state.file->stream();
    for (const Event& event : buffer.events) {
      if (event.tsNs < state.startNs) continue;
      out << state.separator << "\n{\"name\":\"" << event.name
          << "\",\"cat\":\"" << event.category
          << "\",\"ph\":\"X\",\"ts\":";
      WriteMicros(out, event.tsNs - state.startNs);
      out << ",\"pid\":1,\"tid\":" << buffer.tid << ",\"dur\":";
      WriteMicros(out, event.durNs);
      out << '}';
      state.separator = ",";
    }
  }
  buffer.events.clear();
}

/// Called from ~Span, so it must not throw: an event that cannot be
/// buffered or written fails the session's stream instead, and Stop()
/// reports the file as not written completely.
void Append(const Event& event) noexcept {
  TraceState& state = State();
  try {
    ThreadBuffer* buffer = LocalBuffer();
    {
      std::lock_guard<std::mutex> lock(buffer->mutex);
      buffer->events.push_back(event);
      if (buffer->events.size() < kFlushEvents) return;
    }
    // Full: write it out (Stop() may have drained it meanwhile).
    std::lock_guard<std::mutex> lock(state.mutex);
    std::lock_guard<std::mutex> bufferLock(buffer->mutex);
    WriteEvents(state, *buffer);
  } catch (...) {
    std::lock_guard<std::mutex> lock(state.mutex);
    if (state.file != nullptr) state.file->stream().setstate(std::ios::badbit);
  }
}

}  // namespace

namespace tracing {

void Start(const std::string& path) {
  TraceState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  ICTM_REQUIRE(!state.active.load(std::memory_order_relaxed),
               "a trace session is already active");
  // Open eagerly so a bad path fails at Start, not after the run.
  state.file = std::make_unique<OutputFile>(path);
  state.file->stream() << "{\"traceEvents\":[";
  state.separator = "";
  state.startNs = Now();
  state.active.store(true, std::memory_order_release);
}

bool Active() {
  return State().active.load(std::memory_order_acquire);
}

void Stop() {
  TraceState& state = State();
  // Flip the flag first: scopes that check after this point record
  // nothing, so the drain below sees a quiescent set of buffers.
  if (!state.active.exchange(false, std::memory_order_acq_rel)) return;
  std::lock_guard<std::mutex> lock(state.mutex);
  for (const auto& buffer : state.buffers) {
    std::lock_guard<std::mutex> bufferLock(buffer->mutex);
    WriteEvents(state, *buffer);
  }
  const std::unique_ptr<OutputFile> file = std::move(state.file);
  file->stream() << "\n],\"displayTimeUnit\":\"ms\"}\n";
  file->commit();
}

}  // namespace tracing

Span::Span(const char* name, const char* category, Counter* ns,
           Histogram* dist)
    : name_(name), category_(category), ns_(ns), dist_(dist) {
  if ((ns_ != nullptr || dist_ != nullptr) && !Enabled()) {
    ns_ = nullptr;
    dist_ = nullptr;
  }
  tracing_ = tracing::Active();
  if (ns_ != nullptr || dist_ != nullptr || tracing_) startNs_ = Now();
}

Span::~Span() {
  if (startNs_ == 0) return;  // neither metrics nor a session was on
  const std::uint64_t elapsed = Now() - startNs_;
  if (ns_ != nullptr) ns_->add(elapsed);
  if (dist_ != nullptr) dist_->record(static_cast<double>(elapsed));
  if (tracing_ && tracing::Active()) {
    Append({name_, category_, startNs_, elapsed});
  }
}

}  // namespace ictm::obs
