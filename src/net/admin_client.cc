#include "src/net/admin_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

namespace bouncer::net {

namespace {

bool ReadExact(int fd, uint8_t* buf, size_t len) {
  size_t got = 0;
  while (got < len) {
    const ssize_t n = ::read(fd, buf + got, len - got);
    if (n > 0) {
      got += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;  // EOF, timeout or hard error.
  }
  return true;
}

bool WriteExact(int fd, const uint8_t* buf, size_t len) {
  size_t sent = 0;
  while (sent < len) {
    // MSG_NOSIGNAL: a server that closed the socket fails the fetch
    // rather than killing the caller with SIGPIPE.
    const ssize_t n = ::send(fd, buf + sent, len - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

}  // namespace

Status FetchAdmin(const AdminFetch& fetch, std::string* payload) {
  payload->clear();
  if (!IsAdminOp(fetch.op)) {
    return Status::InvalidArgument("not an admin opcode");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(fetch.port);
  if (::inet_pton(AF_INET, fetch.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad host address: " + fetch.host);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::Internal("socket() failed");
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(fetch.timeout / 1'000'000'000);
  tv.tv_usec = static_cast<suseconds_t>((fetch.timeout % 1'000'000'000) /
                                        1'000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status s = Status::Internal(std::string("connect failed: ") +
                                      std::strerror(errno));
    ::close(fd);
    return s;
  }

  RequestFrame request;
  request.id = 1;
  request.op = fetch.op;
  uint8_t encoded[kRequestFrameBytes];
  const size_t frame_bytes = EncodeRequest(request, encoded);
  if (!WriteExact(fd, encoded, frame_bytes)) {
    ::close(fd);
    return Status::Internal("send failed");
  }

  // Chunk loop: each frame is a response body plus a payload slice; the
  // u64 value field repeats the total payload size so the buffer can be
  // reserved up front.
  for (;;) {
    uint8_t head[kLengthPrefixBytes];
    if (!ReadExact(fd, head, sizeof(head))) {
      ::close(fd);
      return Status::Internal("short read on chunk header");
    }
    const uint32_t body_len = wire::GetU32(head);
    if (body_len < kResponseBodyBytes ||
        body_len > kResponseBodyBytes + kAdminMaxChunk) {
      ::close(fd);
      return Status::Internal("bad admin chunk length");
    }
    uint8_t body[kResponseBodyBytes];
    if (!ReadExact(fd, body, sizeof(body))) {
      ::close(fd);
      return Status::Internal("short read on chunk body");
    }
    ResponseFrame frame;
    DecodeResponseBody(body, &frame);
    if (frame.status != ResponseStatus::kOk) {
      ::close(fd);
      return Status::Internal("admin request refused by server");
    }
    const size_t chunk = body_len - kResponseBodyBytes;
    if (payload->empty() && frame.value > 0) {
      payload->reserve(static_cast<size_t>(frame.value));
    }
    if (chunk > 0) {
      std::vector<uint8_t> buf(chunk);
      if (!ReadExact(fd, buf.data(), chunk)) {
        ::close(fd);
        return Status::Internal("short read on chunk payload");
      }
      payload->append(reinterpret_cast<const char*>(buf.data()), chunk);
    }
    if ((frame.flags & kAdminFlagMore) == 0) break;
  }
  ::close(fd);
  return Status::OK();
}

}  // namespace bouncer::net
