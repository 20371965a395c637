// Tests for the analysis daemon stack: the strict JSON parser, the
// slimcodeml-serve-v1 protocol, cooperative cancellation in both optimizers,
// and the AnalysisServer end to end — daemon results bit-identical
// (EXPECT_EQ) to CLI runs of the same control file, warm context reuse
// across jobs, admission control and malformed-request handling (keyed
// errors, never UB), cancellation of queued and running jobs, deadline
// enforcement, and kill -9 + restart recovery of checkpointed jobs.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/config.hpp"
#include "core/report.hpp"
#include "opt/bfgs.hpp"
#include "opt/cancel.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "support/build_info.hpp"
#include "support/json.hpp"
#include "support/json_parse.hpp"

namespace slim::serve {
namespace {

namespace fs = std::filesystem;
using support::JsonError;
using support::JsonValue;
using support::parseJson;

/// Fresh per-test scratch directory (removed on destruction).
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag)
      : path(fs::path(::testing::TempDir()) /
             ("slim_serve_" + tag + "_" + std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string file(const std::string& name) const {
    return (path / name).string();
  }
};

/// The 5-species primate gene + #1-marked tree used across integration-level
/// tests; small enough that a full H0/H1 fit runs in milliseconds.
void writeGene(const TempDir& dir, const std::string& stem) {
  std::ofstream fasta(dir.file(stem + ".fasta"));
  fasta << ">human\nATGGCTAAATTTCCCGGGACTTGCGGAGAT\n"
           ">chimp\nATGGCTAAATTCCCCGGGACTTGCGGAGAT\n"
           ">gorilla\nATGGCAAAATTTCCCGGAACTTGTGGAGAC\n"
           ">orangutan\nATGGCTAAGTTTCCAGGGACATGCGGTGAT\n"
           ">macaque\nATGGCGAAGTTTCCAGGAACATGTGGTGAC\n";
  std::ofstream nwk(dir.file(stem + ".nwk"));
  nwk << "(((human:0.02,chimp:0.02) #1:0.015,gorilla:0.04):0.02,"
         "(orangutan:0.08,macaque:0.10):0.03);\n";
}

/// Control file for `repeats` copies of one gene.  threads = 1 keeps every
/// run on one deterministic schedule (batch == sequential is an invariant
/// anyway; this just removes wall-clock noise from tiny fixtures).
std::string makeCtl(const TempDir& dir, const std::string& stem,
                    int maxIterations, int repeats = 1,
                    const std::string& extra = {}) {
  std::string ctl;
  for (int r = 0; r < repeats; ++r)
    ctl += "seqfile = " + dir.file(stem + ".fasta") + "\n";
  ctl += "treefile = " + dir.file(stem + ".nwk") + "\n";
  ctl += "threads = 1\n";
  ctl += "maxIterations = " + std::to_string(maxIterations) + "\n";
  ctl += extra;
  return ctl;
}

/// What `slimcodeml --json` would emit for this control file, as parsed
/// JSON.  Runs the same core entry points the CLI binary calls.
JsonValue cliReport(const std::string& ctl, const TempDir& dir) {
  core::Config config = core::Config::parseString(ctl);
  config.outfile = dir.file("cli_baseline.txt");
  std::ostringstream os;
  if (config.seqfiles.size() == 1) {
    const auto test = core::runFromConfig(config);
    core::writeJsonTestReport(os, test, config.engine);
  } else {
    const auto out = core::runBatchFromConfig(config);
    core::writeJsonBatchReport(os, out.tests, out.geneNames, config.engine,
                               out.totals, out.info);
  }
  return parseJson(os.str());
}

/// Deep copy with the named object keys removed at every level — used to
/// compare reports modulo fields that legitimately differ (wall-clock, and
/// where stated, counters / resume provenance).
JsonValue strip(const JsonValue& v, const std::set<std::string>& skip) {
  if (v.isObject()) {
    JsonValue::Object out;
    for (const auto& [key, value] : v.asObject())
      if (skip.find(key) == skip.end()) out.emplace_back(key, strip(value, skip));
    return JsonValue::makeObject(std::move(out));
  }
  if (v.isArray()) {
    JsonValue::Array out;
    for (const auto& item : v.asArray()) out.push_back(strip(item, skip));
    return JsonValue::makeArray(std::move(out));
  }
  return v;
}

std::string dump(const JsonValue& v) {
  std::ostringstream os;
  support::writeJson(os, v);
  return os.str();
}

/// Wall-clock fields differ between any two runs; everything else must not.
const std::set<std::string> kClockOnly = {"seconds", "totalSeconds"};
/// Plus engine counters: a warm cache changes *which* work is done (hits vs
/// builds), never any result bit.
const std::set<std::string> kClockAndCounters = {"seconds", "totalSeconds",
                                                 "counters", "totals",
                                                 "batch"};
/// Plus resume provenance, for runs recovered from a checkpoint.
const std::set<std::string> kClockCountersResume = {
    "seconds",     "totalSeconds",      "counters", "totals",
    "batch",       "resumedFrom",       "iterationsReplayed"};

// ---------- request builders ----------

std::string jsonEscaped(const std::string& s) {
  std::ostringstream os;
  support::jsonString(os, s);
  return os.str();
}

std::string submitRequest(const std::string& ctl, const std::string& extra = {}) {
  std::string r = "{\"schema\":\"" + std::string(kServeSchema) +
                  "\",\"op\":\"submit\",\"ctl\":" + jsonEscaped(ctl);
  r += extra;
  r += "}";
  return r;
}

std::string idRequest(const char* op, const std::string& id,
                      const std::string& extra = {}) {
  return "{\"schema\":\"" + std::string(kServeSchema) + "\",\"op\":\"" + op +
         "\",\"id\":" + jsonEscaped(id) + extra + "}";
}

bool isOk(const JsonValue& response) {
  const JsonValue* ok = response.find("ok");
  return ok != nullptr && ok->isBool() && ok->asBool();
}

std::string errorOf(const JsonValue& response) {
  const JsonValue* e = response.find("error");
  return e != nullptr && e->isString() ? e->asString() : std::string();
}

/// Submit and block for the finished report; fails the test on any error.
JsonValue submitAndWait(Client& client, const std::string& ctl,
                        const std::string& extra = {}) {
  const JsonValue submitted = client.call(submitRequest(ctl, extra));
  EXPECT_TRUE(isOk(submitted)) << errorOf(submitted);
  const std::string id = submitted.at("id").asString();
  const JsonValue result =
      client.call(idRequest("result", id, ",\"wait\":true"));
  EXPECT_TRUE(isOk(result)) << errorOf(result);
  return result.at("report");
}

std::string jobState(Client& client, const std::string& id) {
  const JsonValue status = client.call(idRequest("status", id));
  EXPECT_TRUE(isOk(status)) << errorOf(status);
  return status.at("job").at("state").asString();
}

void waitForState(Client& client, const std::string& id,
                  const std::string& want) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    if (jobState(client, id) == want) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  FAIL() << "job " << id << " never reached state " << want;
}

// ---------- JSON parser ----------

TEST(JsonParse, RoundTripsScalarsAndStructure) {
  const std::string text =
      "{\"a\":1,\"b\":-2.5,\"c\":1e-3,\"d\":true,\"e\":false,\"f\":null,"
      "\"g\":\"hi\\n\\\"there\\\"\",\"h\":[1,2,[3]],\"i\":{}}";
  const JsonValue v = parseJson(text);
  EXPECT_EQ(v.at("a").asNumber(), 1.0);
  EXPECT_EQ(v.at("b").asNumber(), -2.5);
  EXPECT_EQ(v.at("c").asNumber(), 1e-3);
  EXPECT_TRUE(v.at("d").asBool());
  EXPECT_FALSE(v.at("e").asBool());
  EXPECT_TRUE(v.at("f").isNull());
  EXPECT_EQ(v.at("g").asString(), "hi\n\"there\"");
  EXPECT_EQ(v.at("h").asArray().size(), 3u);
  EXPECT_EQ(v.at("h").asArray()[2].asArray()[0].asNumber(), 3.0);
  EXPECT_TRUE(v.at("i").isObject());
  // parse -> write -> parse is a fixed point.
  EXPECT_EQ(parseJson(dump(v)), v);
}

TEST(JsonParse, NumbersRoundTripBitExactly) {
  // The wire format for results reuses jsonNumber (max_digits10), so any
  // double the report writers emit must survive parseJson bit for bit.
  for (const double value :
       {0.1, -1.0 / 3.0, 1e-300, -2.2250738585072014e-308, 12345.6789,
        5e-324, 9007199254740993.0}) {
    std::ostringstream os;
    support::jsonNumber(os, value);
    const double back = parseJson(os.str()).asNumber();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back),
              std::bit_cast<std::uint64_t>(value))
        << os.str();
  }
}

TEST(JsonParse, UnicodeEscapesAndSurrogatePairs) {
  EXPECT_EQ(parseJson("\"\\u0041\"").asString(), "A");
  EXPECT_EQ(parseJson("\"\\u00e9\"").asString(), "\xc3\xa9");      // é
  EXPECT_EQ(parseJson("\"\\u20ac\"").asString(), "\xe2\x82\xac");  // €
  EXPECT_EQ(parseJson("\"\\ud83d\\ude00\"").asString(),
            "\xf0\x9f\x98\x80");  // emoji via surrogate pair
  EXPECT_THROW(parseJson("\"\\ud800\""), JsonError);       // lone high
  EXPECT_THROW(parseJson("\"\\ude00\""), JsonError);       // lone low
  EXPECT_THROW(parseJson("\"\\ud800\\u0041\""), JsonError);  // bad pair
}

TEST(JsonParse, RejectsMalformedInput) {
  const char* bad[] = {
      "",         "   ",       "{",       "}",          "[",
      "[1,]",     "{\"a\":}",  "{\"a\"}", "{\"a\":1,}", "{1:2}",
      "nul",      "tru",       "falsey",  "01",         "1.",
      ".5",       "+1",        "1e",      "0x10",       "-",
      "1 2",      "{}{}",      "\"abc",   "\"\\x\"",    "\"\t\"",
      "{\"a\":1}extra",         "[1] [2]", "'single'",   "1e999",
      "{\"dup\":1,\"dup\":2}",
  };
  for (const char* text : bad)
    EXPECT_THROW(parseJson(text), JsonError) << "input: " << text;

  // Offsets are reported in bytes so a client can locate the defect.
  try {
    parseJson("{\"a\":01}");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos);
  }

  // Depth cap: hostile nesting must throw, not overflow the stack.
  std::string bomb(10000, '[');
  EXPECT_THROW(parseJson(bomb), JsonError);
  std::string closed = std::string(100, '[') + std::string(100, ']');
  EXPECT_THROW(parseJson(closed), JsonError);  // > kMaxJsonDepth
  std::string okDepth = std::string(20, '[') + std::string(20, ']');
  EXPECT_TRUE(parseJson(okDepth).isArray());
}

TEST(JsonParse, EveryTruncationOfAValidRequestFails) {
  // A strict prefix of a JSON object is never a valid document, so a
  // connection dropped mid-request can only produce a keyed parse error.
  const std::string request = submitRequest(
      "seqfile = g.fasta\ntreefile = g.nwk\n", ",\"priority\":3");
  ASSERT_TRUE(parseJson(request).isObject());
  for (std::size_t n = 0; n < request.size(); ++n)
    EXPECT_THROW(parseJson(request.substr(0, n)), JsonError) << "length " << n;
}

// ---------- protocol ----------

TEST(Protocol, ParsesSubmitRequest) {
  const Request req = parseRequest(submitRequest(
      "seqfile = a\n", ",\"priority\":-7,\"timeoutSec\":1.5,"
                       "\"checkpoint\":true"));
  EXPECT_EQ(req.op, Op::Submit);
  EXPECT_EQ(req.ctl, "seqfile = a\n");
  EXPECT_EQ(req.priority, -7);
  EXPECT_EQ(req.timeoutSec, 1.5);
  EXPECT_TRUE(req.checkpoint);
  EXPECT_EQ(parseRequest("{\"op\":\"ping\"}").op, Op::Ping);  // schema optional
}

TEST(Protocol, KeyedErrors) {
  const auto errorContains = [](const std::string& line,
                                const std::string& needle) {
    try {
      parseRequest(line);
      ADD_FAILURE() << "expected ProtocolError for: " << line;
    } catch (const std::exception& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "error '" << e.what() << "' for " << line;
    }
  };
  errorContains("[1]", "object");
  errorContains("{\"op\":\"launch\"}", "unknown op");
  errorContains("{\"op\":\"submit\",\"ctl\":\"x\",\"priorty\":1}", "priorty");
  errorContains("{\"op\":\"ping\",\"id\":\"x\"}", "accepts no field");
  errorContains("{\"op\":\"submit\"}", "requires field \"ctl\"");
  errorContains("{\"op\":\"result\"}", "requires field \"id\"");
  errorContains("{\"op\":\"cancel\",\"id\":\"\"}", "must not be empty");
  errorContains("{\"op\":\"submit\",\"ctl\":\"x\",\"priority\":1000}",
                "priority");
  errorContains("{\"op\":\"submit\",\"ctl\":\"x\",\"priority\":1.5}",
                "integer");
  errorContains("{\"op\":\"submit\",\"ctl\":\"x\",\"timeoutSec\":-1}",
                "timeoutSec");
  errorContains("{\"schema\":\"other-v9\",\"op\":\"ping\"}", "schema");
}

// ---------- build info ----------

TEST(BuildInfo, CarriesSchemaVersions) {
  const support::BuildInfo info = support::buildInfo();
  EXPECT_FALSE(info.gitDescribe.empty());
  EXPECT_FALSE(info.compiler.empty());
  EXPECT_FALSE(info.simd.empty());
  bool serveSchema = false;
  for (const auto& s : info.schemas)
    serveSchema |= s.name == "serve" && s.version == kServeSchema;
  EXPECT_TRUE(serveSchema);
  EXPECT_NE(support::buildInfoLine().find("slimcodeml "), std::string::npos);
  const JsonValue parsed = parseJson(support::buildInfoJson());
  EXPECT_EQ(parsed.at("schemas").at("serve").asString(), kServeSchema);
}

// ---------- cooperative cancellation in the optimizers ----------

TEST(CancelPredicate, BfgsStopsAtLastAcceptedPoint) {
  const opt::Objective rosenbrock = [](std::span<const double> x) {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    return a * a + 100.0 * b * b;
  };
  const std::vector<double> x0 = {-1.2, 1.0};

  // Uncancelled reference run, capturing the per-iteration snapshots.
  opt::CallableObjective full(rosenbrock);
  std::vector<opt::BfgsState> states;
  const auto reference = opt::minimizeBfgs(
      full, x0, {}, [&](const opt::BfgsState& st) { states.push_back(st); });
  ASSERT_FALSE(reference.cancelled);
  ASSERT_GT(reference.iterations, 5);

  // The predicate is polled once before the first gradient, then at the top
  // of every iteration; this cancels at the top of iteration 3.
  int polls = 0;
  opt::BfgsOptions options;
  options.cancel = [&polls] { return ++polls > 4; };
  opt::CallableObjective cut(rosenbrock);
  const auto cancelled = opt::minimizeBfgs(cut, x0, options);
  EXPECT_TRUE(cancelled.cancelled);
  EXPECT_FALSE(cancelled.converged);
  EXPECT_EQ(cancelled.message, "cancelled");
  EXPECT_EQ(cancelled.iterations, 3);

  // The result is the last *accepted* point: bit-identical to the reference
  // trajectory after 3 iterations.
  const opt::BfgsState* at3 = nullptr;
  for (const auto& st : states)
    if (st.iterations == 3) at3 = &st;
  ASSERT_NE(at3, nullptr);
  ASSERT_EQ(cancelled.x.size(), at3->x.size());
  for (std::size_t i = 0; i < at3->x.size(); ++i)
    EXPECT_EQ(cancelled.x[i], at3->x[i]);
  EXPECT_EQ(cancelled.value, at3->value);

  // An already-cancelled fit stops after the mandatory initial evaluation.
  opt::BfgsOptions immediate;
  immediate.cancel = [] { return true; };
  const auto stopped = opt::minimizeBfgs(rosenbrock, x0, immediate);
  EXPECT_TRUE(stopped.cancelled);
  EXPECT_EQ(stopped.iterations, 0);
  EXPECT_EQ(stopped.functionEvaluations, 1);
  EXPECT_EQ(stopped.gradientEvaluations, 0);
}

TEST(CancelPredicate, TimeoutSecCtlKeyCancelsRun) {
  const TempDir dir("timeout");
  writeGene(dir, "gene");
  // A nanoscopic budget: the first deadline poll already trips, every fit
  // stops at its first boundary, and the run still produces a full report
  // with the interrupted fits marked.
  const std::string ctl =
      makeCtl(dir, "gene", 200, 1, "timeoutSec = 0.000001\n");
  core::Config config = core::Config::parseString(ctl);
  EXPECT_EQ(config.timeoutSec, 0.000001);
  config.outfile = dir.file("report.txt");
  const auto test = core::runFromConfig(config);
  EXPECT_TRUE(test.h0.cancelled);
  EXPECT_TRUE(test.h1.cancelled);
  EXPECT_EQ(test.h0.message, "cancelled");
  ASSERT_TRUE(fs::exists(dir.file("report.txt")));
  std::ifstream in(dir.file("report.txt"));
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find("cancelled"), std::string::npos);
  std::ostringstream json;
  core::writeJsonTestReport(json, test, config.engine);
  EXPECT_NE(json.str().find("\"cancelled\":true"), std::string::npos);

  // timeoutSec must not leak into the checkpoint identity: cancellation
  // truncates trajectories, it never alters them.
  core::Config woTimeout = core::Config::parseString(makeCtl(dir, "gene", 200));
  EXPECT_EQ(core::checkpointConfigHash(config),
            core::checkpointConfigHash(woTimeout));

  EXPECT_THROW(core::Config::parseString("timeoutSec = -1\n"),
               core::ConfigError);
}

// ---------- server end to end ----------

TEST(Server, PingStatusAndVersion) {
  const TempDir dir("ping");
  ServerOptions options;
  options.socketPath = dir.file("d.sock");
  AnalysisServer server(std::move(options));
  server.start();

  Client client(dir.file("d.sock"));
  const JsonValue pong = client.call("{\"op\":\"ping\"}");
  EXPECT_TRUE(isOk(pong));
  EXPECT_EQ(pong.at("schema").asString(), kServeSchema);

  const JsonValue status = client.call("{\"op\":\"status\"}");
  ASSERT_TRUE(isOk(status));
  const JsonValue& info = status.at("server");
  EXPECT_FALSE(info.at("draining").asBool());
  EXPECT_EQ(info.at("workers").asNumber(), 2.0);
  EXPECT_EQ(info.at("jobs").at("queued").asNumber(), 0.0);
  EXPECT_EQ(info.at("jobs").at("running").asNumber(), 0.0);
  EXPECT_EQ(info.at("version").at("schemas").at("serve").asString(),
            kServeSchema);
  EXPECT_FALSE(info.at("version").at("compiler").asString().empty());

  EXPECT_EQ(errorOf(client.call(idRequest("status", "job-99"))),
            "unknown job id \"job-99\"");
  server.drainAndStop();
}

TEST(Server, RefusesSecondDaemonOnLiveSocket) {
  const TempDir dir("livesock");
  ServerOptions options;
  options.socketPath = dir.file("d.sock");
  AnalysisServer server(std::move(options));
  server.start();
  ServerOptions second;
  second.socketPath = dir.file("d.sock");
  EXPECT_THROW(AnalysisServer another(std::move(second)), std::runtime_error);
  // The live daemon must still answer (the probe must not unlink its socket).
  Client client(dir.file("d.sock"));
  EXPECT_TRUE(isOk(client.call("{\"op\":\"ping\"}")));
  server.drainAndStop();
}

TEST(Server, DaemonReportMatchesCliByteForByte) {
  const TempDir dir("identity");
  writeGene(dir, "gene");
  const std::string ctl = makeCtl(dir, "gene", 8);
  const JsonValue baseline = cliReport(ctl, dir);

  ServerOptions options;
  options.socketPath = dir.file("d.sock");
  options.workers = 1;
  AnalysisServer server(std::move(options));
  server.start();
  Client client(dir.file("d.sock"));
  const JsonValue report = submitAndWait(client, ctl);

  // First job on a cold daemon: even the engine counters match the CLI run
  // exactly — only wall-clock may differ.
  EXPECT_EQ(strip(report, kClockOnly), strip(baseline, kClockOnly))
      << dump(report);

  // Multi-gene: batch report against the CLI batch runner.
  const std::string batchCtl = makeCtl(dir, "gene", 5, 3);
  const JsonValue batchBaseline = cliReport(batchCtl, dir);
  const JsonValue batchReport = submitAndWait(client, batchCtl);
  EXPECT_EQ(strip(batchReport, kClockAndCounters),
            strip(batchBaseline, kClockAndCounters));
  server.drainAndStop();
}

TEST(Server, ConcurrentClientsMatchSequentialCli) {
  const TempDir dir("concurrent");
  writeGene(dir, "alpha");
  writeGene(dir, "beta");
  const std::string ctls[4] = {
      makeCtl(dir, "alpha", 6), makeCtl(dir, "beta", 6),
      makeCtl(dir, "alpha", 9), makeCtl(dir, "beta", 9)};
  JsonValue baselines[4];
  for (int j = 0; j < 4; ++j) baselines[j] = cliReport(ctls[j], dir);

  ServerOptions options;
  options.socketPath = dir.file("d.sock");
  options.workers = 2;
  AnalysisServer server(std::move(options));
  server.start();

  JsonValue reports[4];
  std::vector<std::thread> clients;
  for (int j = 0; j < 4; ++j)
    clients.emplace_back([&, j] {
      Client client(dir.file("d.sock"));
      reports[j] = submitAndWait(client, ctls[j]);
    });
  for (auto& t : clients) t.join();

  // Two workers race over shared warm state (including the busy-entry
  // private-clone path for same-gene jobs); every result must still equal
  // its sequential CLI baseline bit for bit.
  for (int j = 0; j < 4; ++j)
    EXPECT_EQ(strip(reports[j], kClockAndCounters),
              strip(baselines[j], kClockAndCounters))
        << "job " << j;
  server.drainAndStop();
}

TEST(Server, SecondJobWarmStartsFromContextCache) {
  const TempDir dir("warm");
  writeGene(dir, "gene");
  // maxIterations = 0: each fit evaluates the likelihood (and its FD
  // gradient) only around the initial point, so two identical jobs trace
  // identical specs and the second one's first evaluations hit the
  // propagators the first job left in the shared shards.  (The first job's
  // site scan runs last, at the initial-point spec, which is exactly where
  // the second job's H1 fit starts.)  cachePropagators = 1 opts in — the
  // default `slim` engine preset keeps the shard cache off.
  const std::string ctl =
      makeCtl(dir, "gene", 0, 1, "cachePropagators = 1\n");

  ServerOptions options;
  options.socketPath = dir.file("d.sock");
  options.workers = 1;
  AnalysisServer server(std::move(options));
  server.start();
  Client client(dir.file("d.sock"));

  const JsonValue first = submitAndWait(client, ctl);
  const JsonValue second = submitAndWait(client, ctl);

  // Same analysis, bit for bit...
  EXPECT_EQ(strip(first, kClockAndCounters), strip(second, kClockAndCounters));
  // ...but the context cache served the second job warm...
  const ContextCacheStats stats = server.cacheStats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_GE(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  // ...and its warm start shows up in the engine counters.
  const auto cacheHits = [](const JsonValue& report) {
    return report.at("test").at("counters").at("cacheHits").asNumber();
  };
  EXPECT_GT(cacheHits(second), cacheHits(first))
      << "first: " << dump(first.at("test").at("counters"))
      << " second: " << dump(second.at("test").at("counters"));
  server.drainAndStop();
}

TEST(Server, CancelsQueuedAndRunningJobs) {
  const TempDir dir("cancel");
  writeGene(dir, "gene");
  ServerOptions options;
  options.socketPath = dir.file("d.sock");
  options.workers = 1;
  AnalysisServer server(std::move(options));
  server.start();
  Client client(dir.file("d.sock"));

  // A long job (80 fits) occupies the single worker...
  const JsonValue longJob =
      client.call(submitRequest(makeCtl(dir, "gene", 500, 40)));
  ASSERT_TRUE(isOk(longJob));
  const std::string runningId = longJob.at("id").asString();
  waitForState(client, runningId, "running");

  // ...so this one is deterministically still queued when cancelled.
  const JsonValue queued = client.call(submitRequest(makeCtl(dir, "gene", 5)));
  const std::string queuedId = queued.at("id").asString();
  ASSERT_EQ(jobState(client, queuedId), "queued");
  const JsonValue cancelQueued = client.call(idRequest("cancel", queuedId));
  EXPECT_TRUE(isOk(cancelQueued));
  EXPECT_EQ(cancelQueued.at("state").asString(), "cancelled");
  const JsonValue queuedResult = client.call(idRequest("result", queuedId));
  EXPECT_FALSE(isOk(queuedResult));
  EXPECT_EQ(errorOf(queuedResult), "cancelled by client");

  // Cancelling the running job stops it at the next iteration boundary.
  EXPECT_TRUE(isOk(client.call(idRequest("cancel", runningId))));
  const JsonValue runningResult =
      client.call(idRequest("result", runningId, ",\"wait\":true"));
  EXPECT_FALSE(isOk(runningResult));
  EXPECT_EQ(runningResult.at("state").asString(), "cancelled");
  EXPECT_EQ(errorOf(runningResult), "cancelled by client");
  // Cancel is idempotent on a finished job.
  const JsonValue again = client.call(idRequest("cancel", runningId));
  EXPECT_TRUE(isOk(again));
  EXPECT_EQ(again.at("state").asString(), "cancelled");
  server.drainAndStop();
}

TEST(Server, DeadlineExceededFailsJob) {
  const TempDir dir("deadline");
  writeGene(dir, "gene");
  ServerOptions options;
  options.socketPath = dir.file("d.sock");
  options.workers = 1;
  AnalysisServer server(std::move(options));
  server.start();
  Client client(dir.file("d.sock"));

  const JsonValue submitted = client.call(submitRequest(
      makeCtl(dir, "gene", 500, 40), ",\"timeoutSec\":0.02"));
  ASSERT_TRUE(isOk(submitted));
  const JsonValue result = client.call(
      idRequest("result", submitted.at("id").asString(), ",\"wait\":true"));
  EXPECT_FALSE(isOk(result));
  EXPECT_EQ(result.at("state").asString(), "failed");
  EXPECT_EQ(errorOf(result), "deadline exceeded");
  server.drainAndStop();
}

TEST(Server, AdmissionControlAndMalformedRequests) {
  const TempDir dir("admission");
  writeGene(dir, "gene");
  ServerOptions options;
  options.socketPath = dir.file("d.sock");
  options.workers = 1;
  options.maxQueued = 1;
  options.maxRequestBytes = 4096;
  AnalysisServer server(std::move(options));
  server.start();
  Client client(dir.file("d.sock"));

  // Malformed and invalid requests: keyed error responses, connection stays
  // usable for the next request.
  EXPECT_NE(errorOf(client.call("{oops")).find("JSON parse error"),
            std::string::npos);
  EXPECT_NE(errorOf(client.call("{\"op\":\"submit\",\"ctl\":\"x\","
                                "\"priorty\":1}"))
                .find("priorty"),
            std::string::npos);
  EXPECT_NE(errorOf(client.call(submitRequest("no such key = 1\n")))
                .find("ctl:"),
            std::string::npos);
  EXPECT_NE(errorOf(client.call(submitRequest(
                        makeCtl(dir, "gene", 5, 1,
                                "checkpoint = " + dir.file("x.ckpt") + "\n"))))
                .find("checkpoint"),
            std::string::npos);
  EXPECT_NE(errorOf(client.call(submitRequest(
                        makeCtl(dir, "gene", 5, 1, "model = site\n"))))
                .find("branch-site"),
            std::string::npos);
  EXPECT_NE(errorOf(client.call(submitRequest(
                        makeCtl(dir, "gene", 5, 1,
                                "outfile = " + dir.file("out.txt") + "\n"))))
                .find("outfile"),
            std::string::npos);
  // checkpoint:true needs a state directory.
  EXPECT_NE(errorOf(client.call(submitRequest(makeCtl(dir, "gene", 5),
                                              ",\"checkpoint\":true")))
                .find("--state"),
            std::string::npos);
  EXPECT_TRUE(isOk(client.call("{\"op\":\"ping\"}")));

  // Queue bound: one running + one queued, the next submission is refused.
  const JsonValue running =
      client.call(submitRequest(makeCtl(dir, "gene", 500, 40)));
  ASSERT_TRUE(isOk(running));
  waitForState(client, running.at("id").asString(), "running");
  const JsonValue waiting = client.call(submitRequest(makeCtl(dir, "gene", 5)));
  ASSERT_TRUE(isOk(waiting));
  const JsonValue refused = client.call(submitRequest(makeCtl(dir, "gene", 5)));
  EXPECT_FALSE(isOk(refused));
  EXPECT_NE(errorOf(refused).find("queue full"), std::string::npos);

  // Oversized request line: bounded error, connection closed, daemon alive.
  {
    Client big(dir.file("d.sock"));
    const std::string huge(options.maxRequestBytes + 100, ' ');
    const JsonValue response = big.call(huge + "{\"op\":\"ping\"}");
    EXPECT_FALSE(isOk(response));
    EXPECT_NE(errorOf(response).find("exceeds"), std::string::npos);
  }
  EXPECT_TRUE(isOk(client.call("{\"op\":\"ping\"}")));
  server.drainAndStop();
}

TEST(Server, Kill9ThenRestartRecoversCheckpointedJob) {
  const TempDir dir("kill9");
  writeGene(dir, "gene");
  const std::string ctl =
      makeCtl(dir, "gene", 25, 6, "checkpointEverySec = 0\n");
  const JsonValue baseline = cliReport(ctl, dir);

  ServerOptions options;
  options.socketPath = dir.file("d.sock");
  options.stateDir = dir.file("state");
  options.workers = 1;

  std::string id;
  {
    AnalysisServer server{ServerOptions(options)};
    server.start();
    Client client(dir.file("d.sock"));
    const JsonValue submitted =
        client.call(submitRequest(ctl, ",\"checkpoint\":true"));
    ASSERT_TRUE(isOk(submitted)) << errorOf(submitted);
    id = submitted.at("id").asString();

    // Wait until the job's checkpoint has at least one snapshot on disk,
    // then emulate kill -9: threads torn down, nothing else persisted.
    const std::string ckpt = dir.file("state") + "/" + id + ".ckpt";
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!(fs::exists(ckpt) && fs::file_size(ckpt) > 0) &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_TRUE(fs::exists(ckpt)) << "checkpoint never appeared";
    server.abortStop();
  }

  // Restart on the same state directory: the journal re-queues the job and
  // its fits resume their recorded trajectories.
  AnalysisServer server{ServerOptions(options)};
  server.start();
  Client client(dir.file("d.sock"));
  const JsonValue result = client.call(idRequest("result", id, ",\"wait\":true"));
  ASSERT_TRUE(isOk(result)) << errorOf(result);
  const JsonValue report = result.at("report");

  // Bit-identical to the uninterrupted CLI run; only wall-clock, counters
  // and resume provenance may differ.
  EXPECT_EQ(strip(report, kClockCountersResume),
            strip(baseline, kClockCountersResume))
      << dump(report);

  // The finished result survives yet another restart (served from disk) and
  // the job's checkpoint file has been cleaned up.
  EXPECT_FALSE(fs::exists(dir.file("state") + "/" + id + ".ckpt"));
  server.drainAndStop();
  AnalysisServer third{ServerOptions(options)};
  third.start();
  Client again(dir.file("d.sock"));
  const JsonValue replay = again.call(idRequest("result", id));
  ASSERT_TRUE(isOk(replay)) << errorOf(replay);
  EXPECT_EQ(strip(replay.at("report"), kClockCountersResume),
            strip(baseline, kClockCountersResume));
  third.drainAndStop();
}

TEST(Server, DrainPersistsQueueAcrossRestart) {
  const TempDir dir("drain");
  writeGene(dir, "gene");
  const std::string longCtl =
      makeCtl(dir, "gene", 25, 4, "checkpointEverySec = 0\n");
  const std::string shortCtl = makeCtl(dir, "gene", 6);
  const JsonValue longBaseline = cliReport(longCtl, dir);
  const JsonValue shortBaseline = cliReport(shortCtl, dir);

  ServerOptions options;
  options.socketPath = dir.file("d.sock");
  options.stateDir = dir.file("state");
  options.workers = 1;

  std::string longId, shortId;
  {
    AnalysisServer server{ServerOptions(options)};
    server.start();
    Client client(dir.file("d.sock"));
    const JsonValue first =
        client.call(submitRequest(longCtl, ",\"checkpoint\":true"));
    ASSERT_TRUE(isOk(first)) << errorOf(first);
    longId = first.at("id").asString();
    waitForState(client, longId, "running");
    const JsonValue second = client.call(submitRequest(shortCtl));
    ASSERT_TRUE(isOk(second)) << errorOf(second);
    shortId = second.at("id").asString();

    // The drain op asks the owner to stop; admission closes immediately.
    EXPECT_TRUE(isOk(client.call("{\"op\":\"drain\"}")));
    EXPECT_TRUE(server.stopRequested());
    EXPECT_NE(errorOf(client.call(submitRequest(shortCtl))).find("draining"),
              std::string::npos);
    server.drainAndStop();
  }
  ASSERT_TRUE(fs::exists(dir.file("state") + "/jobs.journal"));

  // Both interrupted jobs complete after restart and match their baselines.
  AnalysisServer server{ServerOptions(options)};
  server.start();
  Client client(dir.file("d.sock"));
  const JsonValue longResult =
      client.call(idRequest("result", longId, ",\"wait\":true"));
  ASSERT_TRUE(isOk(longResult)) << errorOf(longResult);
  EXPECT_EQ(strip(longResult.at("report"), kClockCountersResume),
            strip(longBaseline, kClockCountersResume));
  const JsonValue shortResult =
      client.call(idRequest("result", shortId, ",\"wait\":true"));
  ASSERT_TRUE(isOk(shortResult)) << errorOf(shortResult);
  EXPECT_EQ(strip(shortResult.at("report"), kClockCountersResume),
            strip(shortBaseline, kClockCountersResume));
  server.drainAndStop();
}

}  // namespace
}  // namespace slim::serve
