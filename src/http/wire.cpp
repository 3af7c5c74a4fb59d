#include "http/wire.h"

#include <cctype>
#include <limits>

#include "util/strings.h"

namespace urlf::http {

namespace {

struct HeaderBlock {
  HeaderMap headers;
  std::string_view rest;  // body bytes
};

/// Parse "Name: value\r\n"* up to the blank line.
std::optional<HeaderBlock> parseHeaderBlock(std::string_view s) {
  HeaderBlock out;
  while (true) {
    const std::size_t eol = s.find("\r\n");
    if (eol == std::string_view::npos) return std::nullopt;  // no blank line
    const std::string_view line = s.substr(0, eol);
    s.remove_prefix(eol + 2);
    if (line.empty()) break;  // end of headers
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) return std::nullopt;
    const std::string_view name = util::trim(line.substr(0, colon));
    const std::string_view value = util::trim(line.substr(colon + 1));
    if (name.empty()) return std::nullopt;
    out.headers.add(name, value);
  }
  out.rest = s;
  return out;
}

std::optional<int> parseStatusCode(std::string_view s) {
  if (s.size() != 3) return std::nullopt;
  int code = 0;
  for (char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return std::nullopt;
    code = code * 10 + (c - '0');
  }
  return code;
}

/// A Content-Length value: one or more digits that fit a size_t.
std::optional<std::size_t> parseContentLength(std::string_view value) {
  if (value.empty()) return std::nullopt;
  std::size_t n = 0;
  for (const char c : value) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return std::nullopt;
    const auto digit = static_cast<std::size_t>(c - '0');
    if (n > (std::numeric_limits<std::size_t>::max() - digit) / 10)
      return std::nullopt;
    n = n * 10 + digit;
  }
  return n;
}

}  // namespace

std::string serialize(const Request& req) {
  std::string out = req.requestLine();
  out += "\r\n";
  out += req.headers.serialize();
  out += "\r\n";
  out += req.body;
  return out;
}

std::string serialize(const Response& resp) {
  std::string out;
  out.reserve(serializedSizeBound(resp));
  serializeTo(resp, out);
  return out;
}

void serializeTo(const Response& resp, std::string& out) {
  out += resp.statusLine();
  out += "\r\n";
  for (const auto& field : resp.headers.fields()) {
    out += field.name;
    out += ": ";
    out += field.value;
    out += "\r\n";
  }
  out += "\r\n";
  out += resp.body;
}

std::size_t serializedSizeBound(const Response& resp) {
  // "HTTP/1.1 NNN " + reason + CRLF, with slack for long status codes.
  std::size_t n = 16 + resp.reason.size() + 2;
  for (const auto& field : resp.headers.fields())
    n += field.name.size() + 2 + field.value.size() + 2;
  n += 2 + resp.body.size();
  return n;
}

std::optional<Response> parseResponse(std::string_view wire) {
  const std::size_t eol = wire.find("\r\n");
  if (eol == std::string_view::npos) return std::nullopt;
  const std::string_view statusLine = wire.substr(0, eol);

  // "HTTP/1.1 SP 3DIGIT SP reason"
  if (!util::startsWith(statusLine, "HTTP/1.")) return std::nullopt;
  const std::size_t sp1 = statusLine.find(' ');
  if (sp1 == std::string_view::npos) return std::nullopt;
  const std::size_t sp2 = statusLine.find(' ', sp1 + 1);
  const std::string_view codeText =
      sp2 == std::string_view::npos
          ? statusLine.substr(sp1 + 1)
          : statusLine.substr(sp1 + 1, sp2 - sp1 - 1);
  const auto code = parseStatusCode(codeText);
  if (!code) return std::nullopt;

  auto block = parseHeaderBlock(wire.substr(eol + 2));
  if (!block) return std::nullopt;

  Response resp;
  resp.statusCode = *code;
  resp.reason = sp2 == std::string_view::npos
                    ? std::string(reasonPhrase(*code))
                    : std::string(statusLine.substr(sp2 + 1));
  resp.headers = std::move(block->headers);
  if (const auto lengths = resp.headers.getAll("Content-Length");
      !lengths.empty()) {
    const auto n = parseContentLength(lengths.front());
    if (!n) return std::nullopt;
    for (const auto other : lengths)  // conflicting lengths: unframeable
      if (parseContentLength(other) != n) return std::nullopt;
    if (*n > block->rest.size()) return std::nullopt;  // truncated
    resp.body = std::string(block->rest.substr(0, *n));
  } else {
    resp.body = std::string(block->rest);  // connection-close framing
  }
  return resp;
}

std::optional<Request> parseRequest(std::string_view wire) {
  const std::size_t eol = wire.find("\r\n");
  if (eol == std::string_view::npos) return std::nullopt;
  const std::string_view requestLine = wire.substr(0, eol);

  const auto parts = util::split(requestLine, ' ');
  if (parts.size() != 3) return std::nullopt;
  const std::string& method = parts[0];
  const std::string& target = parts[1];
  if (method.empty() || target.empty() || parts[2].substr(0, 7) != "HTTP/1.")
    return std::nullopt;

  auto block = parseHeaderBlock(wire.substr(eol + 2));
  if (!block) return std::nullopt;

  const auto host = block->headers.get("Host");
  if (!host) return std::nullopt;

  const auto url = net::Url::parse("http://" + std::string(*host) + target);
  if (!url) return std::nullopt;

  Request req;
  req.method = method;
  req.url = *url;
  req.headers = std::move(block->headers);
  req.body = std::string(block->rest);
  return req;
}

Frame messageFrame(std::string_view buffer) {
  // One whole line must be buffered before we can even reject the stream.
  const std::size_t eol = buffer.find("\r\n");
  if (eol == std::string_view::npos)
    // Bound the damage a never-terminating first line can do.
    return {buffer.size() > 64 * 1024 ? Frame::State::kBad
                                      : Frame::State::kIncomplete,
            0};
  const std::size_t headerEnd = buffer.find("\r\n\r\n", eol);
  if (headerEnd == std::string_view::npos)
    return {Frame::State::kIncomplete, 0};

  // Scan the header block for Content-Length (case-insensitive name match,
  // same tolerance as HeaderMap). Repeats must agree.
  std::optional<std::size_t> bodyLen;
  std::string_view block = buffer.substr(eol + 2, headerEnd - eol);
  while (!block.empty()) {
    const std::size_t lineEnd = block.find("\r\n");
    const std::string_view line =
        lineEnd == std::string_view::npos ? block : block.substr(0, lineEnd);
    const std::size_t colon = line.find(':');
    if (colon != std::string_view::npos) {
      const std::string_view name = util::trim(line.substr(0, colon));
      if (util::toLower(std::string(name)) == "content-length") {
        const auto n = parseContentLength(util::trim(line.substr(colon + 1)));
        if (!n || (bodyLen && *bodyLen != *n)) return {Frame::State::kBad, 0};
        bodyLen = n;
      }
    }
    if (lineEnd == std::string_view::npos) break;
    block.remove_prefix(lineEnd + 2);
  }

  const std::size_t headerSize = headerEnd + 4;
  if (bodyLen.value_or(0) >
      std::numeric_limits<std::size_t>::max() - headerSize)
    return {Frame::State::kBad, 0};
  const std::size_t total = headerSize + bodyLen.value_or(0);
  if (buffer.size() < total) return {Frame::State::kIncomplete, 0};
  return {Frame::State::kComplete, total};
}

}  // namespace urlf::http
