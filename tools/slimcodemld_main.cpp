// slimcodemld: the persistent analysis daemon.  Accepts control-file jobs
// over a UNIX-domain socket (slimcodeml-serve-v1, see docs/protocol.md),
// keeps parsed alignments and trees resident across jobs, and — with
// --state — journals the queue and checkpoints jobs so a killed daemon
// recovers them on restart.
//
//   slimcodemld --socket /tmp/slim.sock [--state dir] [--workers 2]

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "serve/server.hpp"
#include "support/build_info.hpp"

namespace {

constexpr const char* kUsage = R"(usage: slimcodemld --socket <path> [options]

Persistent analysis server.  Clients submit control-file jobs over the
socket with slimcodeml_client (or any slimcodeml-serve-v1 speaker); results
are bit-identical to `slimcodeml --json` runs of the same control file.

  --socket <path>     UNIX-domain socket to listen on (required)
  --state <dir>       persist the job queue, checkpoints and results here;
                      a restarted daemon recovers interrupted jobs from it
  --workers <n>       concurrently running jobs (default 2)
  --max-queued <n>    admission bound on waiting jobs (default 64)
  --cache-entries <n> resident parsed gene contexts (default 16)
  --version           print build information and exit

SIGTERM/SIGINT drain gracefully: admission stops, running fits cancel at
their next iteration boundary (checkpointed jobs keep their snapshot), the
queue is persisted, and the daemon exits 0.
)";

std::atomic<int> gSignal{0};

void handleSignal(int sig) { gSignal.store(sig); }

/// A count flag's value: a decimal integer in [1, INT_MAX] (strtoll
/// saturates out-of-range text, which the range check then refuses).
bool parseCount(const char* text, int& out) {
  char* end = nullptr;
  const long long n = std::strtoll(text, &end, 10);
  if (*end != '\0' || n < 1 || n > INT_MAX) return false;
  out = static_cast<int>(n);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  slim::serve::ServerOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool hasValue = i + 1 < argc;
    int n = 0;
    if (arg == "--help" || arg == "-h") {
      std::cerr << kUsage;
      return 0;
    } else if (arg == "--version") {
      std::cout << slim::support::buildInfoLine() << '\n';
      return 0;
    } else if (arg == "--socket" && hasValue) {
      options.socketPath = argv[++i];
    } else if (arg == "--state" && hasValue) {
      options.stateDir = argv[++i];
    } else if (arg == "--workers" && hasValue && parseCount(argv[++i], n)) {
      options.workers = n;
    } else if (arg == "--max-queued" && hasValue && parseCount(argv[++i], n)) {
      options.maxQueued = static_cast<std::size_t>(n);
    } else if (arg == "--cache-entries" && hasValue &&
               parseCount(argv[++i], n)) {
      options.contextCacheEntries = static_cast<std::size_t>(n);
    } else {
      std::cerr << "slimcodemld: error: bad argument '" << arg << "'\n"
                << kUsage;
      return 1;
    }
  }
  if (options.socketPath.empty()) {
    std::cerr << kUsage;
    return 1;
  }

  std::signal(SIGTERM, handleSignal);
  std::signal(SIGINT, handleSignal);
  std::signal(SIGPIPE, SIG_IGN);

  try {
    slim::serve::AnalysisServer server(std::move(options));
    server.start();
    std::cerr << "slimcodemld: " << slim::support::buildInfoLine() << '\n'
              << "slimcodemld: listening on " << server.socketPath() << '\n';
    while (gSignal.load() == 0 && !server.stopRequested())
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::cerr << "slimcodemld: draining ("
              << (gSignal.load() != 0 ? "signal" : "drain request") << ")\n";
    server.drainAndStop();
    std::cerr << "slimcodemld: stopped\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "slimcodemld: error: " << e.what() << '\n';
    return 1;
  }
}
