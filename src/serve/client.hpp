#pragma once
// Minimal blocking client for the slimcodeml-serve-v1 protocol: one UNIX
// stream connection, one JSON line out, one JSON line back.  Used by the
// `slimcodeml_client` tool and by serve_test; kept in the library so tests
// exercise exactly the code the tool ships.

#include <filesystem>
#include <string>
#include <string_view>

#include "support/json_parse.hpp"

namespace slim::serve {

class Client {
 public:
  /// Connects immediately; throws std::runtime_error when the daemon is not
  /// listening on `socketPath`.
  explicit Client(std::string socketPath);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Send one request line (newline appended here) and block for the
  /// daemon's one-line response, parsed as JSON.  Throws on connection loss
  /// or a response that fails to parse.  The same connection serves any
  /// number of sequential calls.
  support::JsonValue call(const std::string& requestLine);

  const std::string& socketPath() const noexcept { return socketPath_; }

 private:
  std::string socketPath_;
  int fd_ = -1;
  std::string buffer_;  ///< Bytes past the last consumed newline.
};

/// `ctl` with every relative `seqfile`/`treefile` value made absolute under
/// `base` (by default the working directory: how the CLI reads the same
/// ctl), so a daemon in another directory opens the files the submitter
/// meant.  Every other byte (keys, comments, spacing, line ends) is kept.
std::string resolveCtlPaths(
    std::string_view ctl,
    const std::filesystem::path& base = std::filesystem::current_path());

}  // namespace slim::serve
