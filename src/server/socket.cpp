#include "server/socket.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace ictm::server {
namespace {

#ifdef MSG_NOSIGNAL
constexpr int kSendFlags = MSG_NOSIGNAL;
#else
constexpr int kSendFlags = 0;
#endif

/// Pause before retrying an accept() that failed for want of a
/// resource (EMFILE, ENFILE, ENOBUFS, ...).  The connection stays
/// pending, so poll keeps reporting it and an immediate retry would
/// spin.
constexpr int kAcceptBackoffMs = 50;

bool ParsePort(const std::string& text, std::uint16_t* out) {
  if (text.empty() || text.size() > 5) return false;
  unsigned long value = 0;
  for (char ch : text) {
    if (ch < '0' || ch > '9') return false;
    value = value * 10 + static_cast<unsigned long>(ch - '0');
  }
  if (value > 65535) return false;
  *out = static_cast<std::uint16_t>(value);
  return true;
}

int OpenTcp(const Endpoint& ep, bool listen, std::string* error) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  if (listen) hints.ai_flags = AI_PASSIVE;
  const std::string portText = std::to_string(ep.port);
  addrinfo* res = nullptr;
  const int rc = ::getaddrinfo(ep.host.empty() ? nullptr : ep.host.c_str(),
                               portText.c_str(), &hints, &res);
  if (rc != 0) {
    if (error != nullptr) *error = std::string("resolve: ") + gai_strerror(rc);
    return -1;
  }
  int fd = -1;
  std::string lastError = "no addresses";
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      lastError = std::string("socket: ") + std::strerror(errno);
      continue;
    }
    if (listen) {
      int one = 1;
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
      lastError = std::string("bind: ") + std::strerror(errno);
    } else {
      if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
      lastError = std::string("connect: ") + std::strerror(errno);
    }
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0 && error != nullptr) *error = lastError;
  return fd;
}

bool FillUnixAddr(const std::string& path, sockaddr_un* addr,
                  std::string* error) {
  if (path.size() >= sizeof(addr->sun_path)) {
    if (error != nullptr) *error = "unix socket path too long: " + path;
    return false;
  }
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return true;
}

}  // namespace

bool Endpoint::Parse(const std::string& spec, Endpoint* out) {
  Endpoint ep;
  if (spec.rfind("unix:", 0) == 0) {
    ep.kind = Kind::kUnix;
    ep.path = spec.substr(5);
    if (ep.path.empty()) return false;
  } else if (spec.rfind("tcp:", 0) == 0) {
    ep.kind = Kind::kTcp;
    const std::string rest = spec.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos) return false;
    ep.host = rest.substr(0, colon);
    if (!ParsePort(rest.substr(colon + 1), &ep.port)) return false;
  } else if (spec.find('/') != std::string::npos ||
             spec.find(':') == std::string::npos) {
    if (spec.empty()) return false;
    ep.kind = Kind::kUnix;
    ep.path = spec;
  } else {
    return false;
  }
  *out = ep;
  return true;
}

std::string Endpoint::describe() const {
  if (kind == Kind::kUnix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

bool Socket::sendAll(const void* data, std::size_t len) noexcept {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const long n = ::send(fd_, p, len, kSendFlags);
    if (n > 0) {
      p += n;
      len -= static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

long Socket::recvSome(void* data, std::size_t len) noexcept {
  for (;;) {
    const long n = ::recv(fd_, data, len, 0);
    if (n >= 0) return n;
    if (errno == EINTR) continue;
    return -1;
  }
}

bool Socket::writable() const noexcept {
  pollfd pfd{fd_, POLLOUT, 0};
  return ::poll(&pfd, 1, 0) == 1 && (pfd.revents & POLLOUT) != 0;
}

void Socket::setBufferSizes(int bytes) noexcept {
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes));
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes));
}

void Socket::shutdownBoth() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket Socket::Connect(const Endpoint& ep, std::string* error) {
  if (ep.kind == Endpoint::Kind::kUnix) {
    sockaddr_un addr{};
    if (!FillUnixAddr(ep.path, &addr, error)) return Socket();
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      if (error != nullptr) *error = std::string("socket: ") + std::strerror(errno);
      return Socket();
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      if (error != nullptr)
        *error = std::string("connect ") + ep.path + ": " + std::strerror(errno);
      ::close(fd);
      return Socket();
    }
    return Socket(fd);
  }
  return Socket(OpenTcp(ep, /*listen=*/false, error));
}

Listener::Listener() = default;

Listener::~Listener() {
  close();
  for (int& fd : wakePipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
}

bool Listener::bind(const Endpoint& ep, std::string* error) {
  if (::pipe(wakePipe_) != 0) {
    if (error != nullptr) *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  if (ep.kind == Endpoint::Kind::kUnix) {
    sockaddr_un addr{};
    if (!FillUnixAddr(ep.path, &addr, error)) return false;
    ::unlink(ep.path.c_str());
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
      if (error != nullptr) *error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      if (error != nullptr)
        *error = std::string("bind ") + ep.path + ": " + std::strerror(errno);
      close();
      return false;
    }
    unlinkPath_ = ep.path;
  } else {
    fd_ = OpenTcp(ep, /*listen=*/true, error);
    if (fd_ < 0) return false;
  }
  if (::listen(fd_, SOMAXCONN) != 0) {
    if (error != nullptr) *error = std::string("listen: ") + std::strerror(errno);
    close();
    return false;
  }
  bound_ = ep;
  if (ep.kind == Endpoint::Kind::kTcp && ep.port == 0) {
    sockaddr_storage ss{};
    socklen_t slen = sizeof(ss);
    if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&ss), &slen) == 0) {
      if (ss.ss_family == AF_INET) {
        bound_.port =
            ntohs(reinterpret_cast<const sockaddr_in*>(&ss)->sin_port);
      } else if (ss.ss_family == AF_INET6) {
        bound_.port =
            ntohs(reinterpret_cast<const sockaddr_in6*>(&ss)->sin6_port);
      }
    }
  }
  return true;
}

Socket Listener::accept() {
  for (;;) {
    if (fd_ < 0) return Socket();
    pollfd fds[2];
    fds[0].fd = fd_;
    fds[0].events = POLLIN;
    fds[0].revents = 0;
    fds[1].fd = wakePipe_[0];
    fds[1].events = POLLIN;
    fds[1].revents = 0;
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Socket();
    }
    if ((fds[1].revents & POLLIN) != 0) return Socket();
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int client = ::accept(fd_, nullptr, nullptr);
    if (client >= 0) return Socket(client);
    if (errno == EINTR || errno == ECONNABORTED) continue;
    // Only these mean the listener itself is gone.  Anything else,
    // such as running out of descriptors, passes, and the daemon must
    // keep accepting once it does: back off on the wake pipe, so
    // stop() stays prompt, and retry.
    if (errno == EBADF || errno == EINVAL || errno == ENOTSOCK) {
      return Socket();
    }
    pollfd wake{wakePipe_[0], POLLIN, 0};
    if (::poll(&wake, 1, kAcceptBackoffMs) > 0) return Socket();
  }
}

void Listener::interrupt() noexcept {
  if (wakePipe_[1] >= 0) {
    const char byte = 1;
    // A full pipe already guarantees a pending wake-up.
    [[maybe_unused]] const long n = ::write(wakePipe_[1], &byte, 1);
  }
}

void Listener::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (!unlinkPath_.empty()) {
    ::unlink(unlinkPath_.c_str());
    unlinkPath_.clear();
  }
}

}  // namespace ictm::server
