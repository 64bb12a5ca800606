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
  // Accepting ends first.  Once the accept thread is joined nothing
  // can register a session, so one pass aborts them all and one joins
  // them.
  stopping_.store(true, std::memory_order_release);
  listener_.interrupt();
  if (acceptThread_.joinable()) acceptThread_.join();
  for (SessionSlot& slot : sessions_) slot.session->abort();
  for (SessionSlot& slot : sessions_) {
    if (slot.thread.joinable()) slot.thread.join();
  }
  sessions_.clear();
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
    reapFinished();
    SessionSlot slot;
    slot.session = std::move(session);
    slot.thread = std::thread([raw] { raw->run(); });
    sessions_.push_back(std::move(slot));
  }
}

void Server::reapFinished() {
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
