// Blocking keep-alive HTTP/1.1 client for the sp2b-http workload: sends one
// request, reads one complete response (Content-Length or chunked framing)
// and returns its status and de-chunked body, so the next request can be
// timed on the same connection.

#ifndef PERFBENCH_HTTP_CLIENT_H_
#define PERFBENCH_HTTP_CLIENT_H_

#include <cstdint>
#include <string>

namespace perfbench {

class HttpClient {
 public:
  explicit HttpClient(uint16_t port);
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  bool ok() const { return fd_ >= 0; }

  /// One full round trip. Returns the HTTP status, or -1 on a transport or
  /// framing failure (the connection is then unusable).
  int RoundTrip(const std::string& request, std::string* body);

  static std::string Get(const std::string& sparql);
  static std::string PostJson(const std::string& sparql);

 private:
  bool SendAll(const std::string& bytes);
  bool ReadMore();
  bool ReadChunked(std::string* body);

  int fd_ = -1;
  std::string buf_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HTTP_CLIENT_H_
