#include "obs/trace.hpp"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/now.hpp"

namespace ictm::obs {

namespace {

struct Event {
  const char* name;
  const char* category;
  char phase;         // 'X' complete, 'i' instant
  std::uint64_t tsNs;
  std::uint64_t durNs;
};

/// Per-thread event buffer.  The mutex is uncontended on the hot path
/// (only its owner thread appends); Stop() takes it to drain safely
/// even if a straggler scope is still finishing.
struct ThreadBuffer {
  std::mutex mutex;
  std::vector<Event> events;
  std::uint32_t tid = 0;
};

struct TraceState {
  std::atomic<bool> active{false};
  std::mutex mutex;  // guards buffers/freeList/path/nextTid
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::vector<ThreadBuffer*> freeList;  // buffers of exited threads
  std::string path;
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

void Append(const Event& event) {
  ThreadBuffer* buffer = LocalBuffer();
  std::lock_guard<std::mutex> lock(buffer->mutex);
  buffer->events.push_back(event);
}

}  // namespace

namespace tracing {

bool Start(const std::string& path, std::string* error) {
  TraceState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  if (state.active.load(std::memory_order_relaxed)) {
    if (error != nullptr) *error = "a trace session is already active";
    return false;
  }
  // Open eagerly so a bad path fails at Start, not after the run.
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    if (error != nullptr) {
      *error = "cannot open trace file for writing: " + path;
    }
    return false;
  }
  std::fclose(file);
  state.path = path;
  state.startNs = Now();
  state.active.store(true, std::memory_order_release);
  return true;
}

bool Active() {
  return State().active.load(std::memory_order_acquire);
}

bool Stop(std::string* error) {
  TraceState& state = State();
  // Flip the flag first: scopes that check after this point record
  // nothing, so the drain below sees a quiescent set of buffers.
  if (!state.active.exchange(false, std::memory_order_acq_rel)) {
    return true;
  }
  std::lock_guard<std::mutex> lock(state.mutex);
  std::FILE* file = std::fopen(state.path.c_str(), "w");
  if (file == nullptr) {
    if (error != nullptr) {
      *error = "cannot write trace file: " + state.path;
    }
    return false;
  }
  std::fputs("{\"traceEvents\":[", file);
  bool first = true;
  for (const auto& buffer : state.buffers) {
    std::vector<Event> events;
    {
      std::lock_guard<std::mutex> bufferLock(buffer->mutex);
      events = std::move(buffer->events);
      buffer->events.clear();
    }
    for (const Event& event : events) {
      const double tsUs =
          static_cast<double>(event.tsNs - state.startNs) / 1e3;
      const double durUs = static_cast<double>(event.durNs) / 1e3;
      std::fprintf(file,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\","
                   "\"ts\":%.3f,\"pid\":1,\"tid\":%u",
                   first ? "" : ",", event.name, event.category,
                   event.phase, tsUs, buffer->tid);
      if (event.phase == 'X') {
        std::fprintf(file, ",\"dur\":%.3f", durUs);
      } else {
        std::fputs(",\"s\":\"t\"", file);
      }
      std::fputs("}", file);
      first = false;
    }
  }
  std::fputs("\n],\"displayTimeUnit\":\"ms\"}\n", file);
  const bool ok = std::fclose(file) == 0;
  if (!ok && error != nullptr) {
    *error = "error closing trace file: " + state.path;
  }
  return ok;
}

void Instant(const char* name, const char* category) {
  if (!Active()) return;
  Append({name, category, 'i', Now(), 0});
}

}  // namespace tracing

TraceScope::TraceScope(const char* name, const char* category)
    : name_(name), category_(category) {
  recording_ = tracing::Active();
  if (recording_) startNs_ = Now();
}

TraceScope::~TraceScope() {
  if (!recording_ || !tracing::Active()) return;
  Append({name_, category_, 'X', startNs_, Now() - startNs_});
}

}  // namespace ictm::obs
