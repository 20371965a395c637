// slimcodeml_client: command-line driver for a running slimcodemld.
//
//   slimcodeml_client --socket /tmp/slim.sock submit analysis.ctl --wait
//
// `submit --wait` and `result` print the job's JSON report to stdout — the
// same numbers `slimcodeml --json` writes for that control file (the daemon
// splices the report verbatim; numbers re-emit losslessly on both sides).

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "support/build_info.hpp"
#include "support/json.hpp"

namespace {

constexpr const char* kUsage = R"(usage: slimcodeml_client [--socket <path>] <command>

commands:
  ping                                liveness probe
  status [<job-id>]                   daemon (or one job's) status
  submit <ctl-file> [submit options]  queue a control-file job
  result <job-id> [--wait]            fetch a finished job's JSON report
  cancel <job-id>                     cancel a queued or running job
  drain                               ask the daemon to drain and exit

submit options:
  --priority <n>   -100..100, higher runs first (default 0)
  --timeout <sec>  wall-clock budget once the job starts running
  --checkpoint     snapshot optimizer state (daemon needs --state)
  --wait           block until the job finishes and print its report
  Relative seqfile/treefile paths in the control file resolve against the
  current directory, as they do for slimcodeml.

  --socket defaults to $SLIMCODEMLD_SOCKET.
  --version prints build information and exits.
)";

using slim::support::JsonValue;

int fail(const std::string& message) {
  std::cerr << "slimcodeml_client: error: " << message << '\n';
  return 1;
}

void printResponse(const JsonValue& response) {
  slim::support::writeJson(std::cout, response);
  std::cout << '\n';
}

/// Shared by `result` and `submit --wait`: print the report alone on
/// success (scripting-friendly), the daemon's error on anything else.
int printResult(const JsonValue& response) {
  if (const JsonValue* ok = response.find("ok"); ok && ok->isBool() &&
      ok->asBool()) {
    slim::support::writeJson(std::cout, response.at("report"));
    std::cout << '\n';
    return 0;
  }
  const JsonValue* error = response.find("error");
  return fail(error != nullptr && error->isString() ? error->asString()
                                                    : "request failed");
}

int checkOk(const JsonValue& response) {
  if (const JsonValue* ok = response.find("ok"); ok && ok->isBool() &&
      ok->asBool()) {
    printResponse(response);
    return 0;
  }
  const JsonValue* error = response.find("error");
  return fail(error != nullptr && error->isString() ? error->asString()
                                                    : "request failed");
}

/// A submit flag's value: the whole word as a finite number.  It is sent as
/// given, so the daemon's protocol checks decide whether it is in range.
std::optional<double> parseNumber(const std::string& word) {
  char* end = nullptr;
  const double v = std::strtod(word.c_str(), &end);
  if (end == word.c_str() || *end != '\0' || !std::isfinite(v))
    return std::nullopt;
  return v;
}

std::string resultRequest(const std::string& id, bool wait) {
  std::ostringstream os;
  os << "{\"schema\":\"" << slim::serve::kServeSchema
     << "\",\"op\":\"result\",\"id\":";
  slim::support::jsonString(os, id);
  if (wait) os << ",\"wait\":true";
  os << '}';
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string socketPath;
  if (const char* env = std::getenv("SLIMCODEMLD_SOCKET")) socketPath = env;
  std::vector<std::string> words;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cerr << kUsage;
      return 0;
    } else if (arg == "--version") {
      std::cout << slim::support::buildInfoLine() << '\n';
      return 0;
    } else if (arg == "--socket" && i + 1 < argc) {
      socketPath = argv[++i];
    } else {
      words.emplace_back(arg);
    }
  }
  if (words.empty()) {
    std::cerr << kUsage;
    return 1;
  }
  if (socketPath.empty())
    return fail("no socket (pass --socket or set $SLIMCODEMLD_SOCKET)");

  try {
    // Connect on the first request, so a bad argument is reported as such
    // whether or not a daemon is listening.
    std::optional<slim::serve::Client> client;
    const auto call = [&](const std::string& request) {
      if (!client) client.emplace(socketPath);
      return client->call(request);
    };
    const std::string& command = words[0];
    std::ostringstream os;
    os << "{\"schema\":\"" << slim::serve::kServeSchema << "\",\"op\":";

    if (command == "ping" || command == "drain") {
      if (words.size() != 1) return fail(command + " takes no arguments");
      os << '"' << command << "\"}";
      return checkOk(call(os.str()));
    }

    if (command == "status") {
      if (words.size() > 2) return fail("status takes at most one job id");
      os << "\"status\"";
      if (words.size() == 2) {
        os << ",\"id\":";
        slim::support::jsonString(os, words[1]);
      }
      os << '}';
      return checkOk(call(os.str()));
    }

    if (command == "cancel") {
      if (words.size() != 2) return fail("cancel takes exactly one job id");
      os << "\"cancel\",\"id\":";
      slim::support::jsonString(os, words[1]);
      os << '}';
      return checkOk(call(os.str()));
    }

    if (command == "result") {
      bool wait = false;
      std::string id;
      for (std::size_t w = 1; w < words.size(); ++w) {
        if (words[w] == "--wait")
          wait = true;
        else if (id.empty())
          id = words[w];
        else
          return fail("result takes one job id and optionally --wait");
      }
      if (id.empty()) return fail("result needs a job id");
      return printResult(call(resultRequest(id, wait)));
    }

    if (command == "submit") {
      std::string ctlPath;
      std::optional<double> priority;
      std::optional<double> timeoutSec;
      bool checkpoint = false;
      bool wait = false;
      for (std::size_t w = 1; w < words.size(); ++w) {
        const std::string& word = words[w];
        const bool hasValue = w + 1 < words.size();
        if (word == "--wait") {
          wait = true;
        } else if (word == "--checkpoint") {
          checkpoint = true;
        } else if ((word == "--priority" || word == "--timeout") &&
                   hasValue) {
          const std::string& value = words[++w];
          std::optional<double>& field =
              word == "--priority" ? priority : timeoutSec;
          field = parseNumber(value);
          if (!field)
            return fail(word + " needs a finite number, not '" + value + "'");
        } else if (ctlPath.empty()) {
          ctlPath = word;
        } else {
          return fail("bad submit argument '" + word + "'");
        }
      }
      if (ctlPath.empty()) return fail("submit needs a control file");
      std::ifstream in(ctlPath);
      if (!in.good()) return fail("cannot open control file '" + ctlPath + "'");
      std::ostringstream ctl;
      ctl << in.rdbuf();

      os << "\"submit\",\"ctl\":";
      slim::support::jsonString(os, slim::serve::resolveCtlPaths(ctl.str()));
      if (priority) {
        os << ",\"priority\":";
        slim::support::jsonNumber(os, *priority);
      }
      if (timeoutSec) {
        os << ",\"timeoutSec\":";
        slim::support::jsonNumber(os, *timeoutSec);
      }
      if (checkpoint) os << ",\"checkpoint\":true";
      os << '}';

      const JsonValue response = call(os.str());
      if (const JsonValue* ok = response.find("ok");
          ok == nullptr || !ok->isBool() || !ok->asBool()) {
        const JsonValue* error = response.find("error");
        return fail(error != nullptr && error->isString()
                        ? error->asString()
                        : "submit failed");
      }
      if (!wait) {
        printResponse(response);
        return 0;
      }
      const std::string id = response.at("id").asString();
      std::cerr << "slimcodeml_client: submitted " << id << ", waiting\n";
      return printResult(call(resultRequest(id, /*wait=*/true)));
    }

    return fail("unknown command '" + command + "'");
  } catch (const std::exception& e) {
    return fail(e.what());
  }
}
