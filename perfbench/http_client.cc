#include "http_client.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cstdlib>
#include <cstring>

namespace perfbench {

namespace {

std::string PercentEncode(const std::string& raw) {
  static const char* hex = "0123456789ABCDEF";
  std::string out;
  out.reserve(raw.size() * 3);
  for (unsigned char c : raw) {
    if (std::isalnum(c) || c == '-' || c == '_' || c == '.' || c == '~') {
      out.push_back(static_cast<char>(c));
    } else {
      out.push_back('%');
      out.push_back(hex[c >> 4]);
      out.push_back(hex[c & 0xf]);
    }
  }
  return out;
}

/// Case-insensitive search for a header name at the start of a line.
size_t FindHeader(const std::string& head, const char* name) {
  std::string lower = head;
  for (char& c : lower) c = static_cast<char>(std::tolower(c));
  std::string needle = std::string("\r\n") + name;
  size_t pos = lower.find(needle);
  return pos == std::string::npos ? pos : pos + needle.size();
}

}  // namespace

HttpClient::HttpClient(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return;
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

HttpClient::~HttpClient() {
  if (fd_ >= 0) ::close(fd_);
}

std::string HttpClient::Get(const std::string& sparql) {
  return "GET /sparql?query=" + PercentEncode(sparql) +
         " HTTP/1.1\r\nHost: perfbench\r\n\r\n";
}

std::string HttpClient::PostJson(const std::string& sparql) {
  return "POST /sparql HTTP/1.1\r\nHost: perfbench\r\n"
         "Content-Type: application/sparql-query\r\n"
         "Accept: application/sparql-results+json\r\n"
         "Content-Length: " +
         std::to_string(sparql.size()) + "\r\n\r\n" + sparql;
}

int HttpClient::RoundTrip(const std::string& request, std::string* body) {
  body->clear();
  if (fd_ < 0 || !SendAll(request)) return -1;
  size_t hdr_end;
  while ((hdr_end = buf_.find("\r\n\r\n")) == std::string::npos) {
    if (!ReadMore()) return -1;
  }
  std::string head = buf_.substr(0, hdr_end + 2);
  buf_.erase(0, hdr_end + 4);
  if (head.compare(0, 5, "HTTP/") != 0 || head.size() < 12) return -1;
  int status = std::atoi(head.c_str() + 9);

  size_t clen = FindHeader(head, "content-length:");
  if (clen != std::string::npos) {
    size_t len = std::strtoull(head.c_str() + clen, nullptr, 10);
    while (buf_.size() < len) {
      if (!ReadMore()) return -1;
    }
    body->assign(buf_, 0, len);
    buf_.erase(0, len);
    return status;
  }
  size_t te = FindHeader(head, "transfer-encoding:");
  if (te != std::string::npos &&
      head.find("chunked", te) != std::string::npos) {
    return ReadChunked(body) ? status : -1;
  }
  return status;  // no body
}

bool HttpClient::SendAll(const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

bool HttpClient::ReadMore() {
  char tmp[65536];
  ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
  if (n <= 0) return false;
  buf_.append(tmp, static_cast<size_t>(n));
  return true;
}

bool HttpClient::ReadChunked(std::string* body) {
  for (;;) {
    size_t eol;
    while ((eol = buf_.find("\r\n")) == std::string::npos) {
      if (!ReadMore()) return false;
    }
    char* end = nullptr;
    size_t chunk = std::strtoull(buf_.c_str(), &end, 16);
    if (end == buf_.c_str()) return false;
    buf_.erase(0, eol + 2);
    while (buf_.size() < chunk + 2) {
      if (!ReadMore()) return false;
    }
    if (buf_.compare(chunk, 2, "\r\n") != 0) return false;
    body->append(buf_, 0, chunk);
    buf_.erase(0, chunk + 2);
    if (chunk == 0) return true;
  }
}

}  // namespace perfbench
