#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cstdlib>
#include <string_view>

namespace perfbench {
namespace {

/// Case-insensitive header lookup inside the raw header block.
std::string HeaderValue(std::string_view headers, std::string_view name) {
  std::size_t pos = 0;
  while (pos < headers.size()) {
    std::size_t eol = headers.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = headers.size();
    const std::string_view line = headers.substr(pos, eol - pos);
    const std::size_t colon = line.find(':');
    if (colon == name.size()) {
      bool match = true;
      for (std::size_t i = 0; i < name.size() && match; ++i) {
        match = std::tolower(static_cast<unsigned char>(line[i])) ==
                std::tolower(static_cast<unsigned char>(name[i]));
      }
      if (match) {
        std::size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return std::string(line.substr(start));
      }
    }
    pos = eol + 2;
  }
  return {};
}

}  // namespace

KeepAliveClient::~KeepAliveClient() { Close(); }

bool KeepAliveClient::Connect() {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port_));
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  return true;
}

void KeepAliveClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  pending_.clear();
}

bool KeepAliveClient::Get(const std::string& target, bool debug,
                          HttpResponse* response) {
  if (fd_ < 0 && !Connect()) return false;
  std::string request = "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (debug) request += "X-Tsc-Debug: 1\r\n";
  request += "\r\n";
  for (std::size_t sent = 0; sent < request.size();) {
    const ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      Close();
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }

  char chunk[16384];
  auto read_more = [&]() {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    pending_.append(chunk, static_cast<std::size_t>(n));
    return true;
  };
  std::size_t header_end = pending_.find("\r\n\r\n");
  while (header_end == std::string::npos) {
    if (!read_more()) {
      Close();
      return false;
    }
    header_end = pending_.find("\r\n\r\n");
  }
  if (pending_.compare(0, 9, "HTTP/1.1 ") != 0) {
    Close();
    return false;
  }
  const std::string_view headers(pending_.data(), header_end);
  response->status = std::atoi(pending_.c_str() + 9);
  const std::string length_text = HeaderValue(headers, "Content-Length");
  if (length_text.empty()) {
    Close();
    return false;
  }
  const std::size_t length =
      static_cast<std::size_t>(std::strtoull(length_text.c_str(), nullptr, 10));
  response->trace_id = HeaderValue(headers, "X-Trace-Id");
  response->query_cost = HeaderValue(headers, "X-Query-Cost");
  const bool close_after = HeaderValue(headers, "Connection") == "close";
  const std::size_t body_start = header_end + 4;
  while (pending_.size() < body_start + length) {
    if (!read_more()) {
      Close();
      return false;
    }
  }
  response->body.assign(pending_, body_start, length);
  pending_.erase(0, body_start + length);
  if (close_after) Close();
  return true;
}

std::string UrlEncode(const std::string& text) {
  static const char kHex[] = "0123456789ABCDEF";
  std::string out;
  for (const char c : text) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (std::isalnum(u) || c == '-' || c == '_' || c == '.' || c == '~') {
      out.push_back(c);
    } else {
      out.push_back('%');
      out.push_back(kHex[u >> 4]);
      out.push_back(kHex[u & 15]);
    }
  }
  return out;
}

}  // namespace perfbench
