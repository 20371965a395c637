#include "core/tuning_profile.hpp"

#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>

#include "core/checkpoint.hpp"
#include "core/config.hpp"
#include "support/atomic_file.hpp"
#include "support/host_info.hpp"

namespace slim::core {

namespace {

constexpr const char* kMagic = "slimcodeml-tuning";

ParallelPolicy parsePolicy(std::string_view text, const std::string& context) {
  for (const auto p : {ParallelPolicy::Auto, ParallelPolicy::TaskLevel,
                       ParallelPolicy::PatternLevel})
    if (text == parallelPolicyName(p)) return p;
  throw ConfigError(context + ": unknown parallel policy '" +
                    std::string(text) + "'");
}

int parseIntField(std::string_view text, const std::string& context) {
  const std::string s{text};
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (s.empty() || end != s.c_str() + s.size() || v < -1 || v > 1 << 24)
    throw ConfigError(context + ": malformed integer '" + s + "'");
  return static_cast<int>(v);
}

/// Split "field rest-of-line" (field has no spaces; rest may).
std::pair<std::string_view, std::string_view> splitField(
    std::string_view line) {
  const auto sp = line.find(' ');
  if (sp == std::string_view::npos) return {line, {}};
  return {line.substr(0, sp), line.substr(sp + 1)};
}

}  // namespace

std::string TuningProfile::serialize() const {
  std::ostringstream os;
  os << kMagic << " v" << kVersion << '\n';
  os << "host " << host << '\n';
  os << "simdDetected " << simdDetected << '\n';
  os << "hardwareThreads " << hardwareThreads << '\n';
  os << "numThreads " << numThreads << '\n';
  os << "blockSize " << blockSize << '\n';
  os << "parallel " << parallelPolicyName(policy) << '\n';
  os << "simd " << linalg::simdModeName(simd) << '\n';
  os << "backend " << backend::backendModeName(backend) << '\n';
  os << "secondsPerEval " << hexDouble(secondsPerEval) << '\n';
  os << "end\n";
  return os.str();
}

TuningProfile TuningProfile::parse(std::string_view text,
                                   const std::string& origin) {
  std::istringstream in{std::string(text)};
  std::string line;
  int lineNo = 0;
  const auto where = [&] { return origin + " line " + std::to_string(lineNo); };

  if (!std::getline(in, line))
    throw ConfigError("tuning profile '" + origin + "': empty file");
  ++lineNo;
  {
    const auto [magic, version] = splitField(line);
    if (magic != kMagic)
      throw ConfigError(where() + ": not a slimcodeml tuning profile (bad "
                        "magic '" + std::string(magic) + "')");
    // v1 (pre-backend) profiles still load: they carry no `backend` line,
    // leaving the field at its Auto sentinel.
    if (version != "v1" && version != "v" + std::to_string(kVersion))
      throw ConfigError(where() + ": unsupported tuning-profile version '" +
                        std::string(version) + "' (this build reads v1..v" +
                        std::to_string(kVersion) + ")");
  }

  TuningProfile p;
  bool sawEnd = false;
  while (std::getline(in, line)) {
    ++lineNo;
    if (line.empty()) continue;
    if (sawEnd)
      throw ConfigError(where() + ": content after 'end'");
    const auto [field, rest] = splitField(line);
    const std::string context = where() + " ('" + std::string(field) + "')";
    if (field == "host") {
      p.host = std::string(rest);
    } else if (field == "simdDetected") {
      p.simdDetected = std::string(rest);
    } else if (field == "hardwareThreads") {
      p.hardwareThreads = parseIntField(rest, context);
    } else if (field == "numThreads") {
      p.numThreads = parseIntField(rest, context);
    } else if (field == "blockSize") {
      p.blockSize = parseIntField(rest, context);
    } else if (field == "parallel") {
      p.policy = parsePolicy(rest, context);
    } else if (field == "simd") {
      if (!linalg::parseSimdMode(rest, p.simd))
        throw ConfigError(context + ": unknown simd mode '" +
                          std::string(rest) + "'");
    } else if (field == "backend") {
      if (!backend::parseBackendMode(rest, p.backend))
        throw ConfigError(context + ": unknown backend mode '" +
                          std::string(rest) + "'");
    } else if (field == "secondsPerEval") {
      p.secondsPerEval = parseHexDouble(rest, context);
    } else if (field == "end") {
      sawEnd = true;
    } else {
      throw ConfigError(where() + ": unknown field '" + std::string(field) +
                        "'");
    }
  }
  // A file cut off mid-write has no 'end' marker; the atomic writer makes
  // this impossible for save(), but profiles are also copied around by hand.
  if (!sawEnd)
    throw ConfigError("tuning profile '" + origin +
                      "': truncated (missing 'end')");
  if (p.host.empty())
    throw ConfigError("tuning profile '" + origin + "': missing host");
  return p;
}

TuningProfile TuningProfile::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good())
    throw ConfigError("cannot open tuning profile '" + path + "'");
  std::stringstream buffer;
  buffer << in.rdbuf();
  TuningProfile p = parse(buffer.str(), path);

  const std::string here = support::hostName();
  if (p.host != here)
    throw ConfigError("tuning profile '" + path + "': measured on host '" +
                      p.host + "', this is '" + here +
                      "' — re-run slimcodeml-tune on this machine");
  if (p.simd != linalg::SimdMode::Auto) {
    // A profile pinning a SIMD level the running binary/CPU cannot execute
    // must refuse here with context, not at evaluator construction.
    const auto level = p.simd == linalg::SimdMode::Scalar
                           ? linalg::SimdLevel::Scalar
                       : p.simd == linalg::SimdMode::Avx2
                           ? linalg::SimdLevel::Avx2
                           : linalg::SimdLevel::Avx512;
    if (!linalg::simdLevelAvailable(level))
      throw ConfigError("tuning profile '" + path + "': tuned simd level '" +
                        std::string(linalg::simdModeName(p.simd)) +
                        "' is not available on this host — re-run "
                        "slimcodeml-tune");
  }
  if (p.backend != backend::BackendMode::Auto) {
    // Same guard for the compute backend: a profile tuned with BLAS on a
    // build that later dropped -DSLIM_WITH_BLAS must refuse loudly here.
    const auto kind = p.backend == backend::BackendMode::Reference
                          ? backend::BackendKind::Reference
                      : p.backend == backend::BackendMode::Simd
                          ? backend::BackendKind::Simd
                          : backend::BackendKind::Blas;
    if (!backend::backendCompiled(kind))
      throw ConfigError("tuning profile '" + path + "': tuned backend '" +
                        std::string(backend::backendModeName(p.backend)) +
                        "' is not available in this build — re-run "
                        "slimcodeml-tune");
  }
  return p;
}

void TuningProfile::save(const std::string& path) const {
  support::writeFileAtomic(path, serialize());
}

void TuningProfile::applyTo(LikelihoodTuning& tuning) const {
  if (tuning.numThreads < 0 && numThreads >= 0) tuning.numThreads = numThreads;
  if (tuning.blockSize < 0 && blockSize >= 0) tuning.blockSize = blockSize;
  if (tuning.policy == ParallelPolicy::Auto) tuning.policy = policy;
  if (tuning.simd == linalg::SimdMode::Auto) tuning.simd = simd;
  if (tuning.backend == backend::BackendMode::Auto) tuning.backend = backend;
}

std::string defaultTuningProfilePath() {
  if (const char* env = std::getenv("SLIMCODEML_TUNING"); env && *env)
    return env;
  return "slimcodeml.tuning";
}

}  // namespace slim::core
