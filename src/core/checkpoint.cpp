#include "core/checkpoint.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "core/config.hpp"
#include "support/atomic_file.hpp"
#include "support/require.hpp"

namespace slim::core {

// ---------- exact-bit doubles ----------

std::string hexDouble(double v) {
  char buf[64];
  // %a prints the exact binary value as a hex-float literal ("0x1.8p+1");
  // infinities and NaNs print as "inf"/"nan", which strtod reads back.
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

double parseHexDouble(std::string_view text, const std::string& context) {
  const std::string s(text);
  if (s.empty())
    throw ConfigError(context + ": empty number");
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size())
    throw ConfigError(context + ": malformed number '" + s + "'");
  return v;
}

// ---------- format helpers ----------

namespace {

constexpr const char* kMagic = "slimcodeml-checkpoint";

std::string hexU64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void writeDoubles(std::ostream& os, const char* field,
                  const std::vector<double>& v) {
  os << field;
  for (const double x : v) os << ' ' << hexDouble(x);
  os << '\n';
}

std::vector<double> parseDoubles(std::string_view rest,
                                 const std::string& context) {
  std::vector<double> out;
  std::istringstream in{std::string(rest)};
  std::string tok;
  while (in >> tok) out.push_back(parseHexDouble(tok, context));
  return out;
}

long parseLong(std::string_view rest, const std::string& context) {
  const std::string s{rest};
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (s.empty() || end != s.c_str() + s.size())
    throw ConfigError(context + ": malformed integer '" + s + "'");
  if (errno == ERANGE)
    throw ConfigError(context + ": integer out of range '" + s + "'");
  return v;
}

/// For fields stored in int (iterations, coordinate counts): a value a
/// corrupted file could wrap or clamp through the long->int cast is a keyed
/// error, not silent truncation.
int parseIntField(std::string_view rest, const std::string& context) {
  const long v = parseLong(rest, context);
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max())
    throw ConfigError(context + ": integer out of range '" +
                      std::string(rest) + "'");
  return static_cast<int>(v);
}

model::Hypothesis parseHypothesis(std::string_view rest,
                                  const std::string& context) {
  if (rest == "H0") return model::Hypothesis::H0;
  if (rest == "H1") return model::Hypothesis::H1;
  throw ConfigError(context + ": unknown hypothesis '" + std::string(rest) +
                    "'");
}

GradientMode parseGradientMode(std::string_view rest,
                               const std::string& context) {
  for (const auto g : {GradientMode::FiniteDiff, GradientMode::ParallelFiniteDiff,
                       GradientMode::Analytic})
    if (rest == gradientModeName(g)) return g;
  throw ConfigError(context + ": unknown gradient mode '" + std::string(rest) +
                    "'");
}

linalg::SimdLevel parseSimdLevel(std::string_view rest,
                                 const std::string& context) {
  for (const auto l : {linalg::SimdLevel::Scalar, linalg::SimdLevel::Avx2,
                       linalg::SimdLevel::Avx512})
    if (rest == linalg::simdLevelName(l)) return l;
  throw ConfigError(context + ": unknown simd level '" + std::string(rest) +
                    "'");
}

backend::BackendKind parseBackendKindField(std::string_view rest,
                                           const std::string& context) {
  backend::BackendKind k = backend::BackendKind::Reference;
  if (!backend::parseBackendKind(rest, k))
    throw ConfigError(context + ": unknown backend '" + std::string(rest) +
                      "'");
  return k;
}

backend::ExpmAlgorithm parseExpmField(std::string_view rest,
                                      const std::string& context) {
  backend::ExpmAlgorithm a = backend::ExpmAlgorithm::Eigen;
  if (!backend::parseExpmAlgorithm(rest, a))
    throw ConfigError(context + ": unknown expm algorithm '" +
                      std::string(rest) + "'");
  return a;
}

// Line cursor over the checkpoint text, tracking line numbers for errors.
class LineReader {
 public:
  LineReader(std::string_view text, const std::string& origin)
      : text_(text), origin_(origin) {}

  /// Next line, or nullopt at end of input.  Lines are '\n'-terminated; a
  /// final unterminated line is accepted (the parser's own structure — the
  /// per-record "end" marker — is what detects truncation).
  std::optional<std::string_view> next() {
    if (pos_ >= text_.size()) return std::nullopt;
    ++lineNo_;
    const auto nl = text_.find('\n', pos_);
    std::string_view line;
    if (nl == std::string_view::npos) {
      line = text_.substr(pos_);
      pos_ = text_.size();
    } else {
      line = text_.substr(pos_, nl - pos_);
      pos_ = nl + 1;
    }
    return line;
  }

  std::string where() const {
    return origin_ + " line " + std::to_string(lineNo_);
  }

 private:
  std::string_view text_;
  std::string origin_;
  std::size_t pos_ = 0;
  int lineNo_ = 0;
};

/// Split "field rest-of-line" (field has no spaces; rest may).
std::pair<std::string_view, std::string_view> splitField(std::string_view line) {
  const auto sp = line.find(' ');
  if (sp == std::string_view::npos) return {line, {}};
  return {line.substr(0, sp), line.substr(sp + 1)};
}

}  // namespace

// ---------- Checkpoint serialization ----------

std::string Checkpoint::serialize() const {
  std::ostringstream os;
  os << kMagic << " v" << kVersion << '\n';
  os << "configHash " << hexU64(configHash) << '\n';

  for (const auto& [key, fit] : completed) {
    os << "task " << key << '\n';
    os << "status done\n";
    os << "hypothesis " << model::hypothesisName(fit.hypothesis) << '\n';
    // Both written only for the non-branch-site kinds, keeping branch-site
    // checkpoints byte-identical to the pre-model-spec format.
    if (fit.modelKind != model::ModelKind::BranchSite)
      os << "model " << model::modelKindName(fit.modelKind) << '\n';
    if (!fit.classOmegas.empty())
      writeDoubles(os, "classOmegas", fit.classOmegas);
    os << "lnL " << hexDouble(fit.lnL) << '\n';
    writeDoubles(os, "params",
                 {fit.params.kappa, fit.params.omega0, fit.params.omega2,
                  fit.params.p0, fit.params.p1});
    writeDoubles(os, "branchLengths", fit.branchLengths);
    os << "iterations " << fit.iterations << '\n';
    os << "functionEvaluations " << fit.functionEvaluations << '\n';
    os << "gradientEvaluations " << fit.gradientEvaluations << '\n';
    os << "gradientMode " << gradientModeName(fit.gradientMode) << '\n';
    os << "simd " << linalg::simdLevelName(fit.simd) << '\n';
    os << "backend " << backend::backendKindName(fit.backend) << '\n';
    os << "expm " << backend::expmAlgorithmName(fit.expm) << '\n';
    os << "converged " << (fit.converged ? 1 : 0) << '\n';
    os << "end\n";
  }
  for (const auto& [key, st] : inFlight) {
    os << "task " << key << '\n';
    os << "status bfgs\n";
    writeDoubles(os, "x", st.x);
    os << "value " << hexDouble(st.value) << '\n';
    writeDoubles(os, "grad", st.grad);
    writeDoubles(os, "hInv", st.hInv);
    os << "iterations " << st.iterations << '\n';
    os << "functionEvaluations " << st.functionEvaluations << '\n';
    os << "gradientEvaluations " << st.gradientEvaluations << '\n';
    os << "gradientSweeps " << st.gradientSweeps << '\n';
    os << "analyticCoordinates " << st.analyticCoordinates << '\n';
    os << "slowProgress " << st.slowProgress << '\n';
    os << "end\n";
  }
  return os.str();
}

Checkpoint Checkpoint::parse(std::string_view text, const std::string& origin) {
  LineReader in(text, origin);

  const auto header = in.next();
  if (!header)
    throw ConfigError("checkpoint '" + origin + "': empty file");
  {
    const auto [magic, version] = splitField(*header);
    if (magic != kMagic)
      throw ConfigError(in.where() + ": not a slimcodeml checkpoint (bad "
                        "magic '" + std::string(magic) + "')");
    if (version != "v" + std::to_string(kVersion))
      throw ConfigError(in.where() + ": unsupported checkpoint version '" +
                        std::string(version) + "' (this build reads v" +
                        std::to_string(kVersion) + ")");
  }

  Checkpoint ck;
  const auto hashLine = in.next();
  if (!hashLine)
    throw ConfigError("checkpoint '" + origin + "': truncated before "
                      "configHash");
  {
    const auto [field, rest] = splitField(*hashLine);
    if (field != "configHash")
      throw ConfigError(in.where() + ": expected configHash, got '" +
                        std::string(field) + "'");
    const std::string hex{rest};
    char* end = nullptr;
    ck.configHash = std::strtoull(hex.c_str(), &end, 16);
    if (hex.empty() || end != hex.c_str() + hex.size())
      throw ConfigError(in.where() + ": malformed configHash '" + hex + "'");
  }

  for (auto line = in.next(); line; line = in.next()) {
    if (line->empty()) continue;
    const auto [field, rest] = splitField(*line);
    if (field != "task")
      throw ConfigError(in.where() + ": expected 'task', got '" +
                        std::string(field) + "'");
    const std::string key{rest};
    if (key.empty()) throw ConfigError(in.where() + ": empty task key");

    const auto statusLine = in.next();
    const auto [statusField, status] =
        statusLine ? splitField(*statusLine)
                   : std::pair<std::string_view, std::string_view>{};
    if (!statusLine || statusField != "status")
      throw ConfigError(in.where() + ": task '" + key +
                        "' truncated before status");

    // Collect the record's fields up to the "end" marker.
    std::map<std::string, std::string> fields;
    bool ended = false;
    for (auto rec = in.next(); rec; rec = in.next()) {
      if (*rec == "end") {
        ended = true;
        break;
      }
      const auto [f, r] = splitField(*rec);
      if (f == "task" || f.empty())
        throw ConfigError(in.where() + ": task '" + key +
                          "' missing its 'end' marker");
      if (!fields.emplace(std::string(f), std::string(r)).second)
        throw ConfigError(in.where() + ": duplicate field '" +
                          std::string(f) + "' in task '" + key + "'");
    }
    if (!ended)
      throw ConfigError("checkpoint '" + origin + "': task '" + key +
                        "' truncated (no 'end' marker)");

    const auto need = [&](const char* f) -> const std::string& {
      const auto it = fields.find(f);
      if (it == fields.end())
        throw ConfigError("checkpoint '" + origin + "': task '" + key +
                          "' missing field '" + f + "'");
      return it->second;
    };
    const auto ctx = [&](const char* f) {
      return "checkpoint '" + origin + "' task '" + key + "' field '" +
             std::string(f) + "'";
    };
    const auto knownOnly = [&](std::initializer_list<const char*> known) {
      for (const auto& [f, r] : fields) {
        bool ok = false;
        for (const char* k : known) ok = ok || f == k;
        if (!ok)
          throw ConfigError("checkpoint '" + origin + "': task '" + key +
                            "' has unknown field '" + f + "'");
      }
    };
    if (ck.completed.count(key) || ck.inFlight.count(key))
      throw ConfigError("checkpoint '" + origin + "': duplicate task '" +
                        key + "'");

    if (status == "done") {
      knownOnly({"hypothesis", "model", "classOmegas", "lnL", "params",
                 "branchLengths", "iterations", "functionEvaluations",
                 "gradientEvaluations", "gradientMode", "simd", "backend",
                 "expm", "converged"});
      FitResult fit;
      fit.hypothesis = parseHypothesis(need("hypothesis"), ctx("hypothesis"));
      // Optional: absent for branch-site fits (the pre-model-spec format).
      if (const auto it = fields.find("model"); it != fields.end()) {
        if (it->second == "branch")
          fit.modelKind = model::ModelKind::Branch;
        else if (it->second == "clade-c")
          fit.modelKind = model::ModelKind::CladeC;
        else if (it->second == "branch-site")
          fit.modelKind = model::ModelKind::BranchSite;
        else
          throw ConfigError(ctx("model") + ": unknown model kind '" +
                            it->second + "'");
      }
      if (const auto it = fields.find("classOmegas"); it != fields.end())
        fit.classOmegas = parseDoubles(it->second, ctx("classOmegas"));
      fit.lnL = parseHexDouble(need("lnL"), ctx("lnL"));
      const auto p = parseDoubles(need("params"), ctx("params"));
      if (p.size() != 5)
        throw ConfigError(ctx("params") + ": expected 5 values, got " +
                          std::to_string(p.size()));
      fit.params.kappa = p[0];
      fit.params.omega0 = p[1];
      fit.params.omega2 = p[2];
      fit.params.p0 = p[3];
      fit.params.p1 = p[4];
      fit.branchLengths = parseDoubles(need("branchLengths"),
                                       ctx("branchLengths"));
      fit.iterations = parseIntField(need("iterations"), ctx("iterations"));
      fit.functionEvaluations = parseLong(need("functionEvaluations"),
                                          ctx("functionEvaluations"));
      fit.gradientEvaluations = parseLong(need("gradientEvaluations"),
                                          ctx("gradientEvaluations"));
      fit.gradientMode = parseGradientMode(need("gradientMode"),
                                           ctx("gradientMode"));
      fit.simd = parseSimdLevel(need("simd"), ctx("simd"));
      // Fields introduced with the backend subsystem.  Optional on parse:
      // hand-written fixtures and the hash pin (which covers the resolved
      // backend/expm) keep compatibility honest either way.
      if (const auto it = fields.find("backend"); it != fields.end())
        fit.backend = parseBackendKindField(it->second, ctx("backend"));
      if (const auto it = fields.find("expm"); it != fields.end())
        fit.expm = parseExpmField(it->second, ctx("expm"));
      fit.converged = parseLong(need("converged"), ctx("converged")) != 0;
      ck.completed.emplace(key, std::move(fit));
    } else if (status == "bfgs") {
      knownOnly({"x", "value", "grad", "hInv", "iterations",
                 "functionEvaluations", "gradientEvaluations",
                 "gradientSweeps", "analyticCoordinates", "slowProgress"});
      opt::BfgsState st;
      st.x = parseDoubles(need("x"), ctx("x"));
      st.value = parseHexDouble(need("value"), ctx("value"));
      st.grad = parseDoubles(need("grad"), ctx("grad"));
      st.hInv = parseDoubles(need("hInv"), ctx("hInv"));
      const std::size_t n = st.x.size();
      if (n == 0 || st.grad.size() != n || st.hInv.size() != n * n)
        throw ConfigError("checkpoint '" + origin + "': task '" + key +
                          "' has inconsistent state dimensions (x " +
                          std::to_string(n) + ", grad " +
                          std::to_string(st.grad.size()) + ", hInv " +
                          std::to_string(st.hInv.size()) + ")");
      st.iterations = parseIntField(need("iterations"), ctx("iterations"));
      st.functionEvaluations = parseLong(need("functionEvaluations"),
                                         ctx("functionEvaluations"));
      st.gradientEvaluations = parseLong(need("gradientEvaluations"),
                                         ctx("gradientEvaluations"));
      st.gradientSweeps = parseLong(need("gradientSweeps"),
                                    ctx("gradientSweeps"));
      st.analyticCoordinates = parseIntField(need("analyticCoordinates"),
                                             ctx("analyticCoordinates"));
      st.slowProgress = parseIntField(need("slowProgress"),
                                      ctx("slowProgress"));
      ck.inFlight.emplace(key, std::move(st));
    } else {
      throw ConfigError("checkpoint '" + origin + "': task '" + key +
                        "' has unknown status '" + std::string(status) + "'");
    }
  }
  return ck;
}

Checkpoint Checkpoint::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good())
    throw ConfigError("cannot open checkpoint file '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse(buf.str(), path);
}

void Checkpoint::save(const std::string& path) const {
  support::writeFileAtomic(path, serialize());
}

// ---------- config hash ----------

std::uint64_t checkpointConfigHash(const Config& config) {
  // Canonical description of everything trajectory-shaping.  Doubles are
  // hex-formatted so the hash keys exact bits.  Deliberately excluded:
  // threads, blockSize, cachePropagators, parallel policy (proven
  // bit-neutral by the engine's invariance tests) and output paths.
  std::string s;
  const auto add = [&s](std::string_view k, std::string_view v) {
    s.append(k);
    s.push_back('=');
    s.append(v);
    s.push_back('\n');
  };
  const auto addD = [&](std::string_view k, double v) { add(k, hexDouble(v)); };

  add("analysis", analysisKindName(config.analysis));
  // Gated on non-empty so every pre-scan checkpoint hash is unchanged; the
  // selector shapes the task list (trees and task keys), so a resumed scan
  // must have been written under the same one.
  if (!config.foreground.empty()) add("foreground", config.foreground);
  add("engine", engineName(config.engine));
  add("frequencyModel",
      std::to_string(static_cast<int>(config.fit.frequencyModel)));
  const auto& b = config.fit.bfgs;
  add("maxIterations", std::to_string(b.maxIterations));
  addD("gradTolerance", b.gradTolerance);
  addD("fTolerance", b.fTolerance);
  addD("fdStep", b.fdStep);
  add("centralDifferences", b.centralDifferences ? "1" : "0");
  add("maxLineSearchSteps", std::to_string(b.maxLineSearchSteps));
  addD("armijoC1", b.armijoC1);
  const auto& p = config.fit.initialParams;
  addD("kappa", p.kappa);
  addD("omega0", p.omega0);
  addD("omega2", p.omega2);
  addD("p0", p.p0);
  addD("p1", p.p1);
  add("useTreeBranchLengths", config.fit.useTreeBranchLengths ? "1" : "0");
  addD("initialBranchLength", config.fit.initialBranchLength);
  add("seed", std::to_string(config.fit.startJitterSeed));
  add("gradient", gradientModeName(config.fit.tuning.gradient));
  // The *resolved* level: a checkpoint written under `simd = auto` on an
  // AVX-512 host must not silently continue with different arithmetic on an
  // AVX2 host — the hash mismatch turns that into a keyed refusal.
  add("simd", linalg::simdLevelName(
                  linalg::resolveSimdLevel(config.fit.tuning.simd)));
  // Same for the compute backend and propagator builder: `backend = auto`
  // resolves per host capability, and the kernels' summation orders differ
  // across backends — a resumed trajectory must replay the same arithmetic.
  add("backend",
      backend::backendKindName(backend::resolveBackendKind(
          config.fit.tuning.backend,
          linalg::resolveSimdLevel(config.fit.tuning.simd))));
  add("expm", backend::expmAlgorithmName(config.fit.tuning.expm));
  add("cleandata", config.stopCodonsAsMissing ? "1" : "0");
  // Input files are hashed by path AND content: a pipeline that regenerates
  // an alignment in place between crash and resume must get the keyed
  // refusal, not a trajectory restored onto a different likelihood surface.
  // An unreadable file contributes a marker (the run will fail loudly at
  // load time anyway).
  const auto addFile = [&](std::string_view k, const std::string& file) {
    add(k, file);
    std::ifstream in(file, std::ios::binary);
    if (!in.good()) {
      add(k, "<unreadable>");
      return;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    add(k, buf.str());
  };
  for (const auto& f : config.seqfiles) addFile("seqfile", f);
  addFile("treefile", config.treefile);

  // FNV-1a 64.
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// ---------- CheckpointManager ----------

CheckpointManager::CheckpointManager(std::string path, double everySeconds,
                                     std::uint64_t configHash)
    : path_(std::move(path)), everySeconds_(everySeconds) {
  SLIM_REQUIRE(!path_.empty(), "CheckpointManager: empty checkpoint path");
  data_.configHash = configHash;
}

std::unique_ptr<CheckpointManager> CheckpointManager::open(
    std::string path, double everySeconds, std::uint64_t configHash,
    bool resume) {
  auto mgr = std::make_unique<CheckpointManager>(path, everySeconds,
                                                 configHash);
  if (!resume) return mgr;
  // Only a genuinely *absent* file falls back to a fresh run.  A checkpoint
  // that exists but cannot be opened (permissions, a flaky mount) must not
  // be silently discarded and then overwritten — Checkpoint::load throws
  // its keyed "cannot open" error instead.
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) && !ec)
    return mgr;  // nothing to resume yet: fresh run
  Checkpoint loaded = Checkpoint::load(path);
  if (loaded.configHash != configHash)
    throw ConfigError(
        "checkpoint '" + path + "': configHash mismatch (file " +
        hexU64(loaded.configHash) + ", current configuration " +
        hexU64(configHash) +
        ") — the run configuration changed since this checkpoint was "
        "written; refusing to resume a different trajectory");
  {
    support::MutexLock lock(mgr->mutex_);
    mgr->data_ = std::move(loaded);
  }
  mgr->resumed_ = true;
  return mgr;
}

std::optional<FitResult> CheckpointManager::completedFit(
    const std::string& key) const {
  support::MutexLock lock(mutex_);
  const auto it = data_.completed.find(key);
  if (it == data_.completed.end()) return std::nullopt;
  FitResult fit = it->second;
  fit.resumedFrom = path_;
  fit.iterationsReplayed = fit.iterations;
  return fit;
}

std::optional<opt::BfgsState> CheckpointManager::inFlightState(
    const std::string& key) const {
  support::MutexLock lock(mutex_);
  const auto it = data_.inFlight.find(key);
  if (it == data_.inFlight.end()) return std::nullopt;
  return it->second;
}

opt::BfgsCheckpointSink CheckpointManager::fitSink(const std::string& key) {
  return [this, key](const opt::BfgsState& state) {
    std::optional<Snapshot> snap;
    {
      support::MutexLock lock(mutex_);
      data_.inFlight[key] = state;
      const auto now = std::chrono::steady_clock::now();
      const bool throttled =
          wroteOnce_ && everySeconds_ > 0 &&
          std::chrono::duration<double>(now - lastWrite_).count() <
              everySeconds_;
      if (!throttled) snap = snapshotLocked();
    }
    if (snap) writeSnapshot(*snap);
  };
}

void CheckpointManager::recordCompleted(const std::string& key,
                                        const FitResult& result) {
  Snapshot snap;
  {
    support::MutexLock lock(mutex_);
    FitResult persisted = result;
    // Provenance is per-process, not part of the task's identity on disk.
    persisted.resumedFrom.clear();
    persisted.iterationsReplayed = 0;
    data_.completed[key] = std::move(persisted);
    data_.inFlight.erase(key);
    snap = snapshotLocked();  // completions always persist, never throttled
  }
  writeSnapshot(snap);
}

void CheckpointManager::flush() {
  Snapshot snap;
  {
    support::MutexLock lock(mutex_);
    snap = snapshotLocked();
  }
  writeSnapshot(snap);
}

CheckpointManager::Snapshot CheckpointManager::snapshotLocked() {
  Snapshot snap;
  snap.payload = data_.serialize();
  snap.seq = ++sequence_;
  lastWrite_ = std::chrono::steady_clock::now();
  wroteOnce_ = true;
  return snap;
}

void CheckpointManager::writeSnapshot(const Snapshot& snap) {
  support::MutexLock writeLock(writeMutex_);
  // A writer that captured an older image and lost the race to the file
  // mutex must not roll the on-disk checkpoint backwards (it could even
  // un-record a completed fit).
  if (snap.seq <= writtenSequence_) return;
  support::writeFileAtomic(path_, snap.payload);
  writtenSequence_ = snap.seq;
}

std::string fitTaskKey(int geneIndex, std::string_view geneName,
                       model::Hypothesis hypothesis) {
  std::string key = "g" + std::to_string(geneIndex) + ":";
  // Keys are embedded verbatim in the line-oriented format; a control
  // character in a gene name (a newline in a hostile filename) would
  // otherwise produce a checkpoint our own parser cannot load.  Identity is
  // carried by the index, so lossy sanitization here is safe.
  for (const char c : geneName)
    key.push_back(static_cast<unsigned char>(c) < 0x20 ? '_' : c);
  key += "/";
  key += model::hypothesisName(hypothesis);
  return key;
}

}  // namespace slim::core
