#include "serve/client.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>

#include "support/require.hpp"

namespace slim::serve {

Client::Client(std::string socketPath) : socketPath_(std::move(socketPath)) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  SLIM_REQUIRE(socketPath_.size() < sizeof(addr.sun_path),
               "client: socket path too long for AF_UNIX ('" + socketPath_ +
                   "')");
  std::memcpy(addr.sun_path, socketPath_.c_str(), socketPath_.size() + 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  SLIM_REQUIRE(fd_ >= 0, "client: cannot create socket");
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("client: cannot connect to '" + socketPath_ +
                             "': " + detail);
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

support::JsonValue Client::call(const std::string& requestLine) {
  const std::string payload = requestLine + "\n";
  std::size_t sent = 0;
  while (sent < payload.size()) {
    const ssize_t n = ::send(fd_, payload.data() + sent,
                             payload.size() - sent, MSG_NOSIGNAL);
    SLIM_REQUIRE(n > 0, "client: connection to daemon lost while sending");
    sent += static_cast<std::size_t>(n);
  }

  char chunk[4096];
  for (;;) {
    const auto nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return support::parseJson(line);
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    SLIM_REQUIRE(n > 0, "client: connection closed before a response arrived");
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::string resolveCtlPaths(std::string_view ctl,
                            const std::filesystem::path& base) {
  constexpr std::string_view kSpace = " \t\n\v\f\r";
  const auto trim = [&](std::string_view s) {
    const auto b = s.find_first_not_of(kSpace);
    if (b == std::string_view::npos) return s.substr(s.size());
    return s.substr(b, s.find_last_not_of(kSpace) + 1 - b);
  };
  std::string out;
  while (!ctl.empty()) {
    const auto nl = ctl.find('\n');
    const std::string_view line =
        ctl.substr(0, nl == std::string_view::npos ? nl : nl + 1);
    ctl.remove_prefix(line.size());
    // Config::parse's reading of a line: a comment ('*' or '#') ends it, and
    // the key and value sit either side of the first '='.
    const std::string_view code = line.substr(0, line.find_first_of("*#\n"));
    if (const auto eq = code.find('='); eq != std::string_view::npos) {
      const std::string_view key = trim(code.substr(0, eq));
      const std::string_view value = trim(code.substr(eq + 1));
      if ((key == "seqfile" || key == "treefile") && !value.empty() &&
          std::filesystem::path(value).is_relative()) {
        const auto at = static_cast<std::size_t>(value.data() - line.data());
        out.append(line.substr(0, at));
        out.append((base / value).string());
        out.append(line.substr(at + value.size()));
        continue;
      }
    }
    out.append(line);
  }
  return out;
}

}  // namespace slim::serve
