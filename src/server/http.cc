#include "server/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>
#include <cstring>

namespace tsc::server {
namespace {

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return 10 + (c - 'a');
  if (c >= 'A' && c <= 'F') return 10 + (c - 'A');
  return -1;
}

std::string ToLower(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string_view StripSpaces(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t' ||
                           text.back() == '\r')) {
    text.remove_suffix(1);
  }
  return text;
}

/// Splits the query string into decoded key/value pairs under the
/// parameter cap. Repeated keys keep the first value (matching how the
/// routing code reads them: one meaning per knob).
Status ParseParams(std::string_view query, const HttpLimits& limits,
                   std::map<std::string, std::string>* out) {
  while (!query.empty()) {
    const std::size_t amp = query.find('&');
    const std::string_view pair =
        amp == std::string_view::npos ? query : query.substr(0, amp);
    query.remove_prefix(amp == std::string_view::npos ? query.size()
                                                      : amp + 1);
    if (pair.empty()) continue;
    if (out->size() >= limits.max_params) {
      return Status::InvalidArgument("too many query parameters");
    }
    const std::size_t eq = pair.find('=');
    TSC_ASSIGN_OR_RETURN(
        std::string key,
        UrlDecode(eq == std::string_view::npos ? pair : pair.substr(0, eq)));
    TSC_ASSIGN_OR_RETURN(std::string value,
                         UrlDecode(eq == std::string_view::npos
                                       ? std::string_view()
                                       : pair.substr(eq + 1)));
    out->emplace(std::move(key), std::move(value));
  }
  return Status::Ok();
}

}  // namespace

bool FindHeaderEnd(std::string_view buffer, std::size_t* end) {
  const std::size_t crlf = buffer.find("\r\n\r\n");
  const std::size_t lf = buffer.find("\n\n");
  if (crlf == std::string_view::npos && lf == std::string_view::npos) {
    return false;
  }
  if (crlf != std::string_view::npos && (lf == std::string_view::npos ||
                                         crlf < lf)) {
    *end = crlf + 4;
  } else {
    *end = lf + 2;
  }
  return true;
}

StatusOr<std::string> UrlDecode(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '+') {
      out.push_back(' ');
    } else if (c == '%') {
      if (i + 2 >= text.size()) {
        return Status::InvalidArgument("truncated percent escape");
      }
      const int hi = HexValue(text[i + 1]);
      const int lo = HexValue(text[i + 2]);
      if (hi < 0 || lo < 0) {
        return Status::InvalidArgument("bad percent escape");
      }
      const char decoded = static_cast<char>((hi << 4) | lo);
      if (decoded == '\0') {
        return Status::InvalidArgument("NUL byte in escape");
      }
      out.push_back(decoded);
      i += 2;
    } else if (c == '\0') {
      return Status::InvalidArgument("NUL byte in component");
    } else {
      out.push_back(c);
    }
  }
  return out;
}

StatusOr<HttpRequest> ParseRequest(std::string_view text,
                                   const HttpLimits& limits) {
  if (text.size() > limits.max_header_bytes) {
    return Status::InvalidArgument("request headers too large");
  }
  // Request line: METHOD SP target SP HTTP/1.x
  std::size_t line_end = text.find('\n');
  if (line_end == std::string_view::npos) {
    return Status::InvalidArgument("missing request line");
  }
  const std::string_view line = StripSpaces(text.substr(0, line_end));
  std::string_view rest = text.substr(line_end + 1);

  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = line.rfind(' ');
  if (sp1 == std::string_view::npos || sp2 == sp1) {
    return Status::InvalidArgument("malformed request line");
  }
  HttpRequest request;
  request.method = std::string(line.substr(0, sp1));
  if (request.method.empty() ||
      !std::all_of(request.method.begin(), request.method.end(),
                   [](unsigned char c) { return std::isupper(c) != 0; })) {
    return Status::InvalidArgument("malformed method");
  }
  const std::string_view target =
      StripSpaces(line.substr(sp1 + 1, sp2 - sp1 - 1));
  const std::string_view version = line.substr(sp2 + 1);
  if (target.empty() || target.size() > limits.max_target_bytes) {
    return Status::InvalidArgument("bad request target");
  }
  if (version == "HTTP/1.1") {
    request.version_minor = 1;
  } else if (version == "HTTP/1.0") {
    request.version_minor = 0;
  } else {
    return Status::InvalidArgument("unsupported HTTP version");
  }

  // Split target into path + query string, decode both.
  const std::size_t qmark = target.find('?');
  TSC_ASSIGN_OR_RETURN(request.path,
                       UrlDecode(qmark == std::string_view::npos
                                     ? target
                                     : target.substr(0, qmark)));
  if (request.path.empty() || request.path.front() != '/') {
    return Status::InvalidArgument("request path must be absolute");
  }
  if (qmark != std::string_view::npos) {
    TSC_RETURN_IF_ERROR(
        ParseParams(target.substr(qmark + 1), limits, &request.params));
  }

  // Headers: "Name: value" lines until the blank terminator.
  std::size_t header_count = 0;
  while (!rest.empty()) {
    line_end = rest.find('\n');
    if (line_end == std::string_view::npos) line_end = rest.size();
    const std::string_view raw = rest.substr(0, line_end);
    rest.remove_prefix(std::min(rest.size(), line_end + 1));
    const std::string_view header = StripSpaces(raw);
    if (header.empty()) break;  // end of header section
    if (++header_count > limits.max_headers) {
      return Status::InvalidArgument("too many headers");
    }
    const std::size_t colon = header.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return Status::InvalidArgument("malformed header line");
    }
    request.headers.emplace(
        ToLower(StripSpaces(header.substr(0, colon))),
        std::string(StripSpaces(header.substr(colon + 1))));
  }

  // Connection semantics: 1.1 defaults to keep-alive, 1.0 to close.
  request.keep_alive = request.version_minor >= 1;
  if (auto it = request.headers.find("connection");
      it != request.headers.end()) {
    const std::string value = ToLower(it->second);
    if (value == "close") request.keep_alive = false;
    if (value == "keep-alive") request.keep_alive = true;
  }
  return request;
}

const char* HttpStatusText(int code) {
  switch (code) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default:  return "Unknown";
  }
}

std::string SerializeResponse(int status, std::string_view content_type,
                              std::string_view body, bool keep_alive) {
  return SerializeResponse(status, content_type, body, keep_alive, {});
}

std::string SerializeResponse(int status, std::string_view content_type,
                              std::string_view body, bool keep_alive,
                              const HeaderList& extra_headers) {
  const std::string_view reason = HttpStatusText(status);
  const std::string_view connection = keep_alive ? "keep-alive" : "close";
  // Fixed text of the head: status line, three headers, blank line.
  constexpr std::size_t kFixedHead = 128;
  std::size_t size = kFixedHead + reason.size() + content_type.size() +
                     connection.size() + body.size();
  for (const auto& [name, value] : extra_headers) {
    size += name.size() + value.size() + 4;
  }
  std::string out;
  out.reserve(size);
  char digits[24];
  out += "HTTP/1.1 ";
  out.append(digits,
             std::to_chars(digits, digits + sizeof(digits), status).ptr);
  out += ' ';
  out += reason;
  out += "\r\n";
  if (!content_type.empty()) {
    out += "Content-Type: ";
    out += content_type;
    out += "\r\n";
  }
  out += "Content-Length: ";
  out.append(digits,
             std::to_chars(digits, digits + sizeof(digits), body.size()).ptr);
  out += "\r\nConnection: ";
  out += connection;
  out += "\r\n";
  for (const auto& [name, value] : extra_headers) {
    out += name;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  out += "\r\n";
  out += body;
  return out;
}

StatusOr<HttpGetResult> HttpGet(const std::string& host, int port,
                                const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError("socket() failed");
  struct FdCloser {
    int fd;
    ~FdCloser() { ::close(fd); }
  } closer{fd};

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad host address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Status::IoError("connect to " + host + ":" +
                           std::to_string(port) + " failed: " +
                           std::strerror(errno));
  }

  const std::string request = "GET " + target + " HTTP/1.1\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) return Status::IoError("send failed");
    sent += static_cast<std::size_t>(n);
  }

  std::string raw;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) return Status::IoError("recv failed");
    if (n == 0) break;
    raw.append(chunk, static_cast<std::size_t>(n));
  }

  std::size_t header_end = 0;
  if (!FindHeaderEnd(raw, &header_end)) {
    return Status::IoError("truncated response (no header terminator)");
  }
  HttpGetResult result;
  const std::string_view head = std::string_view(raw).substr(0, header_end);
  const std::size_t space = head.find(' ');
  if (space == std::string_view::npos) {
    return Status::IoError("malformed status line");
  }
  result.status =
      std::atoi(std::string(head.substr(space + 1, 3)).c_str());
  if (result.status < 100) return Status::IoError("malformed status line");
  result.body = raw.substr(header_end);
  return result;
}

}  // namespace tsc::server
