// Tests for the analysis daemon stack: the strict JSON parser, the
// slimcodeml-serve-v1 protocol, cooperative cancellation in both optimizers,
// and the AnalysisServer end to end — daemon results bit-identical
// (EXPECT_EQ) to CLI runs of the same control file, counters included,
// parsed-context reuse across jobs (and the ContextCache itself),
// admission control and malformed-request handling (keyed errors, never
// UB), cancellation of queued and running jobs, deadline enforcement,
// kill -9 + restart recovery of checkpointed jobs, journal validation, and
// the one config runner every model kind takes on every path.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
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
#include "serve/context_cache.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "support/build_info.hpp"
#include "support/json.hpp"
#include "support/json_parse.hpp"
#include "tree/branch_classes.hpp"

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
/// `lastHumanCodon` varies the alignment's bytes (GAT, GAC, GAA, GAG are all
/// sense codons).
void writeGene(const TempDir& dir, const std::string& stem,
               const std::string& lastHumanCodon = "GAT") {
  std::ofstream fasta(dir.file(stem + ".fasta"));
  fasta << ">human\nATGGCTAAATTTCCCGGGACTTGCGGA" << lastHumanCodon << "\n"
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
/// JSON.  Runs the same runner and writer the CLI binary calls.
JsonValue cliReport(const std::string& ctl) {
  const core::Config config = core::Config::parseString(ctl);
  std::ostringstream os;
  core::writeJsonRunReport(os, core::runConfig(config), config.engine);
  return parseJson(os.str());
}

/// Deep copy with the named object keys removed at every level — used to
/// compare reports modulo fields that legitimately differ (wall-clock, and
/// where stated, batch run info / counters / resume provenance).
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
/// Plus a batch report's run info (its worker count and wall clock).
const std::set<std::string> kClockAndBatch = {"seconds", "totalSeconds",
                                              "batch"};
/// Plus engine counters and resume provenance, for runs recovered from a
/// checkpoint (restored iterations cost no evaluations).
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
  EXPECT_EQ(parsed.at("schemas").find("tuning"), nullptr);
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
  const auto out = core::runConfig(config);
  core::writeRunReports(config, out, /*json=*/false);
  const auto& test = out.tests.front();
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

  // A budget past steady_clock's range (int64 nanoseconds, ~292 years) is
  // no deadline: converting it must not overflow into the past.
  for (const double s : {1e10, 1e300, std::numeric_limits<double>::max()}) {
    const opt::CancelPredicate never = opt::deadlineAfter(s);
    EXPECT_FALSE(never && never()) << s;
  }
  core::Config huge = core::Config::parseString(
      makeCtl(dir, "gene", 200, 1, "timeoutSec = 1e10\n"));
  const auto converged = core::runConfig(huge).tests.front();
  EXPECT_TRUE(converged.h0.converged) << converged.h0.message;
  EXPECT_TRUE(converged.h1.converged) << converged.h1.message;
}

// ---------- the parsed-context cache ----------

/// A ctl's parsed config for gene `stem`, as the daemon hands it to the
/// cache (cachePropagators on, so clones have shards to compare).
core::Config geneConfig(const TempDir& dir, const std::string& stem,
                        const std::string& extra = {}) {
  return core::Config::parseString(
      makeCtl(dir, stem, 0, 1, "cachePropagators = 1\n" + extra));
}

std::shared_ptr<const core::AnalysisContext> acquireGene(
    ContextCache& cache, const core::Config& config) {
  return cache.acquire(config.seqfiles.front(), config, config.fit);
}

TEST(ContextCache, KeysOnContentEngineFrequenciesAndCleandata) {
  const TempDir dir("cachekey");
  writeGene(dir, "gene");
  fs::copy_file(dir.file("gene.fasta"), dir.file("copy.fasta"));
  ContextCache cache;
  const core::Config config = geneConfig(dir, "gene");
  acquireGene(cache, config);
  EXPECT_EQ(cache.stats().misses, 1u);

  // The same bytes under another path are the same gene.
  cache.acquire(dir.file("copy.fasta"), config, config.fit);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);

  // Each of engine, CodonFreq and cleandata is part of the key.
  for (const char* extra :
       {"engine = slim-parallel\n", "CodonFreq = 3\n", "cleandata = 1\n"}) {
    SCOPED_TRACE(extra);
    const std::uint64_t misses = cache.stats().misses;
    acquireGene(cache, geneConfig(dir, "gene", extra));
    EXPECT_EQ(cache.stats().misses, misses + 1);
  }

  // A file rewritten in place is a new gene.
  writeGene(dir, "gene", "GAC");
  const std::uint64_t misses = cache.stats().misses;
  acquireGene(cache, config);
  EXPECT_EQ(cache.stats().misses, misses + 1);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().entries, 5u);
}

TEST(ContextCache, EvictsTheLeastRecentlyUsedGene) {
  const TempDir dir("cachelru");
  writeGene(dir, "a", "GAT");
  writeGene(dir, "b", "GAC");
  writeGene(dir, "c", "GAA");
  ContextCache cache(2);
  acquireGene(cache, geneConfig(dir, "a"));
  acquireGene(cache, geneConfig(dir, "b"));
  acquireGene(cache, geneConfig(dir, "a"));  // hit: b is now the LRU gene
  acquireGene(cache, geneConfig(dir, "c"));  // evicts b
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 3u);

  acquireGene(cache, geneConfig(dir, "a"));
  EXPECT_EQ(cache.stats().hits, 2u);
  acquireGene(cache, geneConfig(dir, "b"));
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(ContextCache, ClonesCarryTheJobOptionsAndTheirOwnPropagatorCache) {
  const TempDir dir("cacheclone");
  writeGene(dir, "gene");
  ContextCache cache;
  const core::Config config = geneConfig(dir, "gene");
  core::FitOptions fitA = config.fit;
  fitA.bfgs.maxIterations = 3;
  core::FitOptions fitB = config.fit;
  fitB.bfgs.maxIterations = 7;
  const auto a = cache.acquire(config.seqfiles.front(), config, fitA);
  const auto b = cache.acquire(config.seqfiles.front(), config, fitB);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(a->options().bfgs.maxIterations, 3);
  EXPECT_EQ(b->options().bfgs.maxIterations, 7);
  // The parsed tree is shared; the propagator caches are not.
  EXPECT_EQ(a->treePtr(), b->treePtr());
  const int slot = core::AnalysisContext::shardSlot(model::Hypothesis::H0);
  ASSERT_NE(a->cacheShard(slot), nullptr);
  EXPECT_NE(a->cacheShard(slot), b->cacheShard(slot));

  // A fit on one clone leaves every later clone cold.
  core::fitHypothesis(*a, model::Hypothesis::H0, a->options(),
                      a->likelihoodOptions(), a->cacheShard(slot));
  EXPECT_GT(a->cachedPropagators(), 0u);
  EXPECT_EQ(b->cachedPropagators(), 0u);
  EXPECT_EQ(acquireGene(cache, config)->cachedPropagators(), 0u);
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
  const JsonValue baseline = cliReport(ctl);

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

  // Multi-gene: batch report against the CLI's batch report.
  const std::string batchCtl = makeCtl(dir, "gene", 5, 3);
  const JsonValue batchBaseline = cliReport(batchCtl);
  const JsonValue batchReport = submitAndWait(client, batchCtl);
  EXPECT_EQ(strip(batchReport, kClockAndBatch),
            strip(batchBaseline, kClockAndBatch));
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
  for (int j = 0; j < 4; ++j) baselines[j] = cliReport(ctls[j]);

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

  // Two workers run clones of the same cached contexts concurrently; every
  // result, counters included, must still equal its sequential CLI
  // baseline bit for bit.
  for (int j = 0; j < 4; ++j)
    EXPECT_EQ(strip(reports[j], kClockOnly), strip(baselines[j], kClockOnly))
        << "job " << j;
  server.drainAndStop();
}

TEST(Server, RepeatJobReusesParsedInputsOnly) {
  const TempDir dir("repeat");
  writeGene(dir, "gene");
  // maxIterations = 0: each fit evaluates only around the initial point, so
  // propagators left over from the first job would serve the second job's
  // first evaluations and raise its cacheHits.  cachePropagators = 1 opts
  // in — the default `slim` engine preset keeps the cache off.
  const std::string ctl =
      makeCtl(dir, "gene", 0, 1, "cachePropagators = 1\n");
  const JsonValue baseline = cliReport(ctl);

  ServerOptions options;
  options.socketPath = dir.file("d.sock");
  options.workers = 1;
  AnalysisServer server(std::move(options));
  server.start();
  Client client(dir.file("d.sock"));

  const JsonValue first = submitAndWait(client, ctl);
  const JsonValue second = submitAndWait(client, ctl);

  // The second job reused the first one's parsed inputs...
  const ContextCacheStats stats = server.cacheStats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_GE(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  // ...and nothing else: both reports, counters included, are the CLI's.
  const std::string counters = dump(baseline.at("test").at("counters"));
  EXPECT_EQ(dump(first.at("test").at("counters")), counters);
  EXPECT_EQ(dump(second.at("test").at("counters")), counters);
  EXPECT_EQ(strip(second, kClockOnly), strip(baseline, kClockOnly))
      << dump(second);
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

  // A budget past steady_clock's range is no deadline, through the protocol
  // field or the ctl key: submitAndWait fails unless the job finishes done.
  submitAndWait(client, makeCtl(dir, "gene", 8), ",\"timeoutSec\":1e10");
  submitAndWait(client, makeCtl(dir, "gene", 8, 1, "timeoutSec = 1e10\n"));
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
                        "treefile = " + dir.file("gene.nwk") + "\n")))
                .find("seqfile is required"),
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
  const JsonValue baseline = cliReport(ctl);

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
  const JsonValue longBaseline = cliReport(longCtl);
  const JsonValue shortBaseline = cliReport(shortCtl);

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

// A journal the daemon could not have written is refused at start-up with
// the offending line named; otherwise a recovered job could take the id of
// the next submission, which then never runs.
TEST(Server, RefusesJournalWhoseJobsCollideWithNextSeq) {
  const TempDir dir("journal");
  writeGene(dir, "gene");
  const std::string ctl = makeCtl(dir, "gene", 0);
  const auto jobLine = [&](const std::string& id, const std::string& seq,
                           const std::string& priority = "0",
                           const std::string& timeoutSec = "0") {
    return "{\"id\":\"" + id + "\",\"seq\":" + seq +
           ",\"state\":\"failed\",\"priority\":" + priority +
           ",\"timeoutSec\":" + timeoutSec +
           ",\"checkpoint\":false,\"ctl\":" + jsonEscaped(ctl) +
           ",\"error\":\"old failure from the journal\"}\n";
  };
  const auto header = [](int nextSeq) {
    return "{\"schema\":\"slimcodemld-journal-v1\",\"nextSeq\":" +
           std::to_string(nextSeq) + "}\n";
  };
  ServerOptions options;
  options.socketPath = dir.file("d.sock");
  options.stateDir = dir.file("state");
  options.workers = 1;
  fs::create_directories(options.stateDir);
  const std::string journal = options.stateDir + "/jobs.journal";

  const struct {
    std::string text;
    std::string error;
  } cases[] = {
      {header(1) + jobLine("job-1", "1"),
       "line 2: job seq must be a positive integer below nextSeq 1"},
      {header(3) + jobLine("job-0", "0"), "line 2: job seq must be"},
      {header(3) + jobLine("job-1", "1.5"), "line 2: job seq must be"},
      {header(3) + jobLine("job-1", "-1"), "line 2: job seq must be"},
      {header(3) + jobLine("job-1", "1") + jobLine("job-1", "1"),
       "line 3: duplicate job seq 1"},
      {header(3) + jobLine("job-2", "1"),
       "line 2: job id \"job-2\" does not match seq 1"},
      {header(3) + jobLine("job-1", "1", "101"),
       "line 2: job priority must be an integer in [-100, 100]"},
      {header(3) + jobLine("job-1", "1", "0.5"), "line 2: job priority"},
      {header(3) + jobLine("job-1", "1", "-1e300"), "line 2: job priority"},
      {header(3) + jobLine("job-1", "1", "0", "-1"),
       "line 2: job timeoutSec must be >= 0"},
  };
  for (const auto& [text, error] : cases) {
    SCOPED_TRACE(text);
    std::ofstream(journal) << text;
    try {
      AnalysisServer server{ServerOptions(options)};
      ADD_FAILURE() << "journal accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("jobs.journal " + error),
                std::string::npos)
          << e.what();
    }
  }

  // With nextSeq above the recorded job the journal is valid: the old job
  // keeps its failure and a new submission gets the next id.
  std::ofstream(journal) << header(2) + jobLine("job-1", "1");
  AnalysisServer server{ServerOptions(options)};
  server.start();
  Client client(dir.file("d.sock"));
  const JsonValue submitted = client.call(submitRequest(ctl));
  ASSERT_TRUE(isOk(submitted)) << errorOf(submitted);
  EXPECT_EQ(submitted.at("id").asString(), "job-2");
  EXPECT_EQ(jobState(client, "job-1"), "failed");
  const JsonValue result =
      client.call(idRequest("result", "job-2", ",\"wait\":true"));
  EXPECT_TRUE(isOk(result)) << errorOf(result);
  server.drainAndStop();
}

// ---------- submitter-relative paths ----------

TEST(Client, ResolveCtlPathsMakesInputPathsAbsolute) {
  const fs::path base = "/data/run";
  EXPECT_EQ(resolveCtlPaths("seqfile = gene.fasta\ntreefile = t/gene.nwk\n",
                            base),
            "seqfile = /data/run/gene.fasta\n"
            "treefile = /data/run/t/gene.nwk\n");
  // Repeated seqfile lines, inline comments, CRLF line ends and a missing
  // final newline: only the values move.
  const std::string resolved = resolveCtlPaths(
      "seqfile  =  a.fa   * first gene\r\nseqfile=b.fa#second\r\n"
      "treefile = t.nwk",
      base);
  EXPECT_EQ(resolved,
            "seqfile  =  /data/run/a.fa   * first gene\r\n"
            "seqfile=/data/run/b.fa#second\r\ntreefile = /data/run/t.nwk");
  const core::Config config = core::Config::parseString(resolved);
  EXPECT_EQ(config.seqfiles,
            (std::vector<std::string>{"/data/run/a.fa", "/data/run/b.fa"}));
  EXPECT_EQ(config.treefile, "/data/run/t.nwk");
  // Absolute inputs, other keys (relative or not), comments and blank lines
  // pass through byte for byte.
  const std::string untouched =
      "seqfile = /abs/a.fasta\noutfile = out.txt  * not an input\n"
      "checkpoint = run.ckpt\n* seqfile = commented.fasta\n  \nmodel = site\n";
  EXPECT_EQ(resolveCtlPaths(untouched, base), untouched);
  EXPECT_EQ(resolveCtlPaths("", base), "");
}

TEST(Server, SubmitterRelativePathsRunInAnotherDirectory) {
  const TempDir dir("relative");
  writeGene(dir, "gene");
  ASSERT_NE(fs::current_path(), dir.path);
  // Relative to the gene's directory, which is not the daemon's.
  const std::string ctl = resolveCtlPaths(
      "seqfile = gene.fasta\ntreefile = gene.nwk\nthreads = 1\n"
      "maxIterations = 8\n",
      dir.path);
  EXPECT_EQ(core::Config::parseString(ctl).seqfiles,
            std::vector<std::string>{dir.file("gene.fasta")});

  ServerOptions options;
  options.socketPath = dir.file("d.sock");
  options.workers = 1;
  AnalysisServer server(std::move(options));
  server.start();
  Client client(dir.file("d.sock"));
  EXPECT_EQ(strip(submitAndWait(client, ctl), kClockOnly),
            strip(cliReport(ctl), kClockOnly));
  server.drainAndStop();
}

// ---------- one runner for every model kind ----------

/// lnL and every estimate, bit for bit.
void expectSameFit(const core::FitResult& a, const core::FitResult& b,
                   const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.lnL, b.lnL);
  EXPECT_EQ(a.params.kappa, b.params.kappa);
  EXPECT_EQ(a.params.omega0, b.params.omega0);
  EXPECT_EQ(a.params.omega2, b.params.omega2);
  EXPECT_EQ(a.params.p0, b.params.p0);
  EXPECT_EQ(a.params.p1, b.params.p1);
  EXPECT_EQ(a.classOmegas, b.classOmegas);
  EXPECT_EQ(a.branchLengths, b.branchLengths);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// Every model kind runs as a single gene, a 2-gene batch, a checkpointed
// run resumed with --resume and a daemon job; the branch-heterogeneous
// kinds also run an every-branch scan, and `model = site` refuses one.
TEST(RunConfig, EveryModelKindTakesEveryPath) {
  const TempDir dir("everypath");
  writeGene(dir, "gene");
  // The gene's tree without its #1 mark: a scan marks each set itself.
  std::ofstream(dir.file("plain.nwk"))
      << "(((human:0.02,chimp:0.02):0.015,gorilla:0.04):0.02,"
         "(orangutan:0.08,macaque:0.10):0.03);\n";
  using model::ModelKind;
  const struct {
    ModelKind kind;
    double df;
  } kinds[] = {{ModelKind::BranchSite, 1},
               {ModelKind::Branch, 1},
               {ModelKind::CladeC, 1},
               {ModelKind::Site, 2}};
  for (const auto& [kind, df] : kinds) {
    const std::string name = model::modelKindName(kind);
    SCOPED_TRACE(name);
    const std::string modelLine = "model = " + name + "\n";
    const std::string ctl = makeCtl(dir, "gene", 2, 1, modelLine);

    const core::RunOutput single =
        core::runConfig(core::Config::parseString(ctl));
    ASSERT_TRUE(single.singleTest);
    ASSERT_EQ(single.tests.size(), 1u);
    const core::PositiveSelectionTest& test = single.tests.front();
    EXPECT_EQ(test.h1.modelKind, kind);
    EXPECT_EQ(test.lrt.df, df);
    EXPECT_TRUE(std::isfinite(test.h0.lnL));
    EXPECT_TRUE(std::isfinite(test.h1.lnL));

    // A 2-gene batch: each gene's test is the single-gene test, and both
    // reports render (the summary header carries the kind's df).
    core::Config batchConfig =
        core::Config::parseString(makeCtl(dir, "gene", 2, 2, modelLine));
    batchConfig.outfile = dir.file(name + "-batch.txt");
    const core::RunOutput batch = core::runConfig(batchConfig);
    EXPECT_FALSE(batch.singleTest);
    ASSERT_EQ(batch.tests.size(), 2u);
    for (const auto& t : batch.tests) {
      expectSameFit(t.h0, test.h0, "batch H0");
      expectSameFit(t.h1, test.h1, "batch H1");
    }
    core::writeRunReports(batchConfig, batch, /*json=*/true);
    EXPECT_NE(slurp(batchConfig.outfile)
                  .find("p(chi2_" + std::to_string(static_cast<int>(df)) +
                        ")  verdict"),
              std::string::npos);
    EXPECT_EQ(parseJson(slurp(batchConfig.outfile + ".json"))
                  .at("genes")
                  .asArray()
                  .size(),
              2u);

    // Checkpoint, then --resume: both fits are restored without a single
    // evaluation, to the same bits, and the report says so.
    core::Config checkpointed = core::Config::parseString(
        ctl + "checkpoint = " + dir.file(name + ".ckpt") +
        "\ncheckpointEverySec = 0\n");
    const core::RunOutput first = core::runConfig(checkpointed);
    checkpointed.resume = true;
    const core::RunOutput resumed = core::runConfig(checkpointed);
    for (const auto hypothesis : {&core::PositiveSelectionTest::h0,
                                  &core::PositiveSelectionTest::h1}) {
      const core::FitResult& fit = resumed.tests.front().*hypothesis;
      EXPECT_EQ(fit.counters.evaluations, 0);
      EXPECT_EQ(fit.resumedFrom, dir.file(name + ".ckpt"));
      expectSameFit(fit, first.tests.front().*hypothesis, "resumed");
      expectSameFit(fit, test.*hypothesis, "resumed vs plain");
    }
    EXPECT_NE(core::testReportString(resumed.tests.front(),
                                     checkpointed.engine)
                  .find("iterations replayed"),
              std::string::npos);

    // A checkpointed job on a cold daemon reports exactly what the runner
    // does, and its checkpoint is gone once it completes.
    {
      ServerOptions options;
      options.socketPath = dir.file("d.sock");
      options.stateDir = dir.file("state-" + name);
      options.workers = 1;
      AnalysisServer server(std::move(options));
      server.start();
      Client client(dir.file("d.sock"));
      std::ostringstream expected;
      core::writeJsonRunReport(expected, single, core::EngineKind::Slim);
      EXPECT_EQ(strip(submitAndWait(client, ctl, ",\"checkpoint\":true"),
                      kClockOnly),
                strip(parseJson(expected.str()), kClockOnly));
      EXPECT_FALSE(fs::exists(dir.file("state-" + name) + "/job-1.ckpt"));
      server.drainAndStop();
    }

    const std::string scanCtl =
        "seqfile = " + dir.file("gene.fasta") + "\ntreefile = " +
        dir.file("plain.nwk") + "\nthreads = 1\nmaxIterations = 1\n" +
        modelLine + "foreground = every-branch\n";
    if (kind == ModelKind::Site) {
      try {
        core::Config::parseString(scanCtl);
        ADD_FAILURE() << "expected ConfigError";
      } catch (const core::ConfigError& e) {
        EXPECT_NE(std::string(e.what()).find("line 6: 'foreground ='"),
                  std::string::npos)
            << e.what();
      }
      continue;
    }
    const core::RunOutput scan =
        core::runConfig(core::Config::parseString(scanCtl));
    EXPECT_FALSE(scan.singleTest);
    EXPECT_EQ(scan.tests.size(),
              tree::everyBranchSets(core::loadTreeFile(dir.file("plain.nwk")))
                  .size());
    ASSERT_EQ(scan.names.size(), scan.tests.size());
    for (std::size_t t = 0; t < scan.tests.size(); ++t) {
      EXPECT_EQ(scan.names[t].rfind("gene@", 0), 0u) << scan.names[t];
      EXPECT_EQ(scan.tests[t].h1.modelKind, kind);
      EXPECT_EQ(scan.tests[t].lrt.df, 1.0);
    }
  }
}

}  // namespace
}  // namespace slim::serve
