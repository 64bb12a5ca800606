#include "server/server.hpp"

#include <utility>

namespace ictm::server {

Server::Server(ServerOptions options)
    : options_(std::move(options)), cache_(options_.cacheCapacity) {
  if (!options_.checkpointDir.empty()) {
    store_ = std::make_unique<CheckpointStore>(options_.checkpointDir);
  }
}

Server::~Server() { stop(); }

bool Server::start(std::string* error) {
  if (!listener_.bind(options_.listen, error)) return false;
  started_ = true;
  acceptThread_ = std::thread([this] { acceptLoop(); });
  return true;
}

const Endpoint& Server::endpoint() const noexcept {
  return listener_.boundEndpoint();
}

void Server::stop() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_release);
  listener_.interrupt();
  {
    std::lock_guard<std::mutex> lock(sessionsMutex_);
    for (SessionSlot& slot : sessions_) slot.session->abort();
  }
  if (acceptThread_.joinable()) acceptThread_.join();
  std::vector<SessionSlot> slots;
  {
    // Second abort pass: the accept loop may have registered one last
    // session between the first pass and the stopping_ check it does
    // after accept() returns.
    std::lock_guard<std::mutex> lock(sessionsMutex_);
    for (SessionSlot& slot : sessions_) slot.session->abort();
    slots.swap(sessions_);
  }
  for (SessionSlot& slot : slots) {
    if (slot.thread.joinable()) slot.thread.join();
  }
  listener_.close();
  started_ = false;
}

TopologyStateCache::Stats Server::cacheStats() const { return cache_.stats(); }

std::size_t Server::sessionsAccepted() const noexcept {
  return accepted_.load(std::memory_order_relaxed);
}

void Server::acceptLoop() {
  for (;;) {
    Socket client = listener_.accept();
    if (!client.valid()) return;  // interrupted or listener failed
    if (stopping_.load(std::memory_order_acquire)) return;
    accepted_.fetch_add(1, std::memory_order_relaxed);
    auto session = std::make_unique<Session>(std::move(client), &cache_,
                                             store_.get(), options_.limits,
                                             &stopping_);
    Session* raw = session.get();
    std::lock_guard<std::mutex> lock(sessionsMutex_);
    reapFinishedLocked();
    SessionSlot slot;
    slot.session = std::move(session);
    slot.thread = std::thread([raw] { raw->run(); });
    sessions_.push_back(std::move(slot));
  }
}

void Server::reapFinishedLocked() {
  for (std::size_t i = 0; i < sessions_.size();) {
    if (sessions_[i].session->done()) {
      if (sessions_[i].thread.joinable()) sessions_[i].thread.join();
      sessions_.erase(sessions_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
}

}  // namespace ictm::server
