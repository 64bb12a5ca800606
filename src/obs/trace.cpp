#include "obs/trace.hpp"

#include <atomic>
#include <iomanip>
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

struct Event {
  const char* name;
  const char* category;
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
  std::mutex mutex;  // guards buffers/freeList/file/startNs/nextTid
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::vector<ThreadBuffer*> freeList;  // buffers of exited threads
  // The running session's file; removed uncommitted if the process
  // ends without Stop().
  std::unique_ptr<OutputFile> file;
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

void Start(const std::string& path) {
  TraceState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  ICTM_REQUIRE(!state.active.load(std::memory_order_relaxed),
               "a trace session is already active");
  // Open eagerly so a bad path fails at Start, not after the run.
  state.file = std::make_unique<OutputFile>(path);
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
  const std::unique_ptr<OutputFile> file = std::move(state.file);
  std::ostream& out = file->stream();
  out << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
  const char* separator = "";
  for (const auto& buffer : state.buffers) {
    std::vector<Event> events;
    {
      std::lock_guard<std::mutex> bufferLock(buffer->mutex);
      events.swap(buffer->events);
    }
    for (const Event& event : events) {
      out << separator << "\n{\"name\":\"" << event.name
          << "\",\"cat\":\"" << event.category << "\",\"ph\":\"X\",\"ts\":"
          << static_cast<double>(event.tsNs - state.startNs) / 1e3
          << ",\"pid\":1,\"tid\":" << buffer->tid
          << ",\"dur\":" << static_cast<double>(event.durNs) / 1e3 << "}";
      separator = ",";
    }
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
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
