#include "net/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "io/bytes.h"

namespace ctbus::net {
namespace {

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

bool Socket::SendAll(const std::uint8_t* data, std::size_t size,
                     std::string* error) {
  std::size_t sent = 0;
  while (sent < size) {
    // MSG_NOSIGNAL: a peer that closed early must surface as EPIPE here,
    // not kill the process with SIGPIPE.
    const ssize_t n =
        ::send(fd_, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) *error = Errno("send");
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool Socket::RecvAll(std::uint8_t* data, std::size_t size,
                     std::string* error) {
  std::size_t received = 0;
  while (received < size) {
    const ssize_t n = ::recv(fd_, data + received, size - received, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) *error = Errno("recv");
      return false;
    }
    if (n == 0) {
      if (error != nullptr) {
        *error = received == 0 ? "connection closed"
                               : "connection closed mid-frame";
      }
      return false;
    }
    received += static_cast<std::size_t>(n);
  }
  return true;
}

void Socket::Shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::ShutdownWrite() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket ConnectLoopback(std::uint16_t port, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = Errno("socket");
    return Socket();
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (error != nullptr) *error = Errno("connect");
    ::close(fd);
    return Socket();
  }
  // Request/response round-trips are latency-bound; never batch them.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Socket(fd);
}

bool ListenSocket::Listen(std::uint16_t port, std::string* error) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    if (error != nullptr) *error = Errno("socket");
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (error != nullptr) *error = Errno("bind");
    Close();
    return false;
  }
  if (::listen(fd_, SOMAXCONN) < 0) {
    if (error != nullptr) *error = Errno("listen");
    Close();
    return false;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) <
      0) {
    if (error != nullptr) *error = Errno("getsockname");
    Close();
    return false;
  }
  port_ = ntohs(bound.sin_port);
  return true;
}

Socket ListenSocket::Accept(std::string* error) {
  while (true) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    if (error != nullptr) *error = Errno("accept");
    return Socket();
  }
}

void ListenSocket::Shutdown() {
  // Wakes a concurrently blocked accept() (close() alone is not
  // guaranteed to on Linux) and leaves fd_ untouched, so the accept
  // thread never races a descriptor teardown.
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void ListenSocket::Close() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
  }
}

bool ReadFrame(Socket* socket, FrameHeader* header,
               std::vector<std::uint8_t>* payload, std::string* error) {
  std::uint8_t header_bytes[kHeaderBytes];
  if (!socket->RecvAll(header_bytes, kHeaderBytes, error)) return false;
  if (!DecodeFrameHeader(header_bytes, kHeaderBytes, header, error)) {
    return false;
  }
  payload->resize(header->payload_bytes);
  if (header->payload_bytes > 0 &&
      !socket->RecvAll(payload->data(), payload->size(), error)) {
    return false;
  }
  const std::uint32_t checksum =
      io::Fnv1a32(payload->data(), payload->size());
  if (checksum != header->payload_checksum) {
    if (error != nullptr) {
      *error = "payload checksum mismatch (declared " +
               std::to_string(header->payload_checksum) + ", computed " +
               std::to_string(checksum) + ")";
    }
    return false;
  }
  return true;
}

bool WriteFrame(Socket* socket, const std::vector<std::uint8_t>& frame,
                std::string* error) {
  return socket->SendAll(frame.data(), frame.size(), error);
}

}  // namespace ctbus::net
