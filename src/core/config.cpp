#include "core/config.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <system_error>
#include <utility>

#include "core/checkpoint.hpp"
#include "core/objective.hpp"
#include "core/scan.hpp"
#include "core/report.hpp"
#include "tree/branch_classes.hpp"
#include "opt/cancel.hpp"
#include "support/atomic_file.hpp"
#include "support/require.hpp"

namespace slim::core {

namespace {

std::string trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

[[noreturn]] void badLine(int lineNo, const std::string& what) {
  throw ConfigError("control file line " + std::to_string(lineNo) + ": " +
                    what);
}

// Numeric values go through std::stod, whose failures (invalid text,
// overflow) must surface as a ConfigError naming the key and line, never as
// a bare std::invalid_argument / std::out_of_range without location.
double parseDouble(const std::string& key, const std::string& v, int lineNo) {
  double x = 0.0;
  std::size_t used = 0;
  bool outOfRange = false, notANumber = false;
  try {
    x = std::stod(v, &used);
  } catch (const std::out_of_range&) {
    outOfRange = true;
  } catch (const std::invalid_argument&) {
    notANumber = true;
  }
  if (outOfRange)
    badLine(lineNo, "value for '" + key + "' is out of double range: '" + v +
                        "'");
  if (notANumber || !trim(v.substr(used)).empty())
    badLine(lineNo, "value for '" + key + "' is not a number: '" + v + "'");
  if (!std::isfinite(x))
    badLine(lineNo, "value for '" + key + "' is not finite: '" + v + "'");
  return x;
}

int parseInt(const std::string& key, const std::string& v, int lineNo) {
  const double x = parseDouble(key, v, lineNo);
  // Round-trip through int and compare as doubles: rejects fractions and
  // values beyond int range (where the raw cast would be undefined).
  if (x < static_cast<double>(std::numeric_limits<int>::min()) ||
      x > static_cast<double>(std::numeric_limits<int>::max()))
    badLine(lineNo, "value for '" + key + "' is out of integer range: '" + v +
                        "'");
  const int i = static_cast<int>(x);
  if (static_cast<double>(i) != x)
    badLine(lineNo, "value for '" + key + "' must be an integer, got '" + v +
                        "'");
  return i;
}

// Seeds are exact unsigned 64-bit decimals: read through a double, values
// above 2^53 would round, and two different seeds could draw the same
// jitter.  Signs, fractions, exponents and trailing text are refused.
std::uint64_t parseSeed(const std::string& key, const std::string& v,
                        int lineNo) {
  std::uint64_t s = 0;
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, s);
  if (ec != std::errc() || ptr != end)
    badLine(lineNo, "value for '" + key +
                        "' must be a non-negative integer below 2^64, got '" +
                        v + "'");
  return s;
}

}  // namespace

Config Config::parse(std::istream& in) {
  Config cfg;
  std::string line;
  int lineNo = 0;
  // Starting values by key: the line and text that last set each, for the
  // domain check once `model =` is known.
  std::map<std::string, std::pair<int, std::string>> startLines;
  int foregroundLine = 0;
  const auto parseStart = [&](const std::string& key, const std::string& v) {
    startLines[key] = {lineNo, v};
    return parseDouble(key, v, lineNo);
  };
  while (std::getline(in, line)) {
    ++lineNo;
    // Strip comments ('*' like codeml, plus '#').
    if (const auto pos = line.find_first_of("*#"); pos != std::string::npos)
      line.erase(pos);
    if (trim(line).empty()) continue;

    const auto eq = line.find('=');
    if (eq == std::string::npos) badLine(lineNo, "expected 'key = value'");
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty() || value.empty())
      badLine(lineNo, "empty key or value");

    if (key == "seqfile") {
      // Repeated entries accumulate into a multi-gene batch.
      cfg.seqfiles.push_back(value);
    } else if (key == "treefile") {
      cfg.treefile = value;
    } else if (key == "outfile") {
      cfg.outfile = value;
    } else if (key == "engine") {
      if (value == "slim")
        cfg.engine = EngineKind::Slim;
      else if (value == "slim-parallel")
        cfg.engine = EngineKind::SlimParallel;
      else if (value == "codeml")
        cfg.engine = EngineKind::CodemlBaseline;
      else
        badLine(lineNo, "engine must be 'slim', 'slim-parallel' or 'codeml'");
    } else if (key == "threads") {
      cfg.fit.tuning.numThreads = parseInt(key, value, lineNo);
      if (cfg.fit.tuning.numThreads < 0)
        badLine(lineNo, "threads must be >= 0");
    } else if (key == "blockSize") {
      cfg.fit.tuning.blockSize = parseInt(key, value, lineNo);
      if (cfg.fit.tuning.blockSize < 0)
        badLine(lineNo, "blockSize must be >= 0");
    } else if (key == "cachePropagators") {
      cfg.fit.tuning.cachePropagators =
          parseInt(key, value, lineNo) != 0 ? 1 : 0;
    } else if (key == "simd") {
      if (!linalg::parseSimdMode(value, cfg.fit.tuning.simd))
        badLine(lineNo,
                "simd must be 'auto', 'scalar', 'avx2' or 'avx512'");
    } else if (key == "backend") {
      if (!backend::parseBackendMode(value, cfg.fit.tuning.backend))
        badLine(lineNo,
                "backend must be 'auto', 'reference', 'simd' or 'blas'");
    } else if (key == "parallel") {
      if (value == "auto")
        cfg.fit.tuning.policy = ParallelPolicy::Auto;
      else if (value == "task")
        cfg.fit.tuning.policy = ParallelPolicy::TaskLevel;
      else if (value == "pattern")
        cfg.fit.tuning.policy = ParallelPolicy::PatternLevel;
      else
        badLine(lineNo, "parallel must be 'auto', 'task' or 'pattern'");
    } else if (key == "gradient") {
      if (value == "fd")
        cfg.fit.tuning.gradient = GradientMode::FiniteDiff;
      else if (value == "analytic")
        cfg.fit.tuning.gradient = GradientMode::Analytic;
      else
        badLine(lineNo, "gradient must be 'fd' or 'analytic'");
    } else if (key == "model") {
      if (!model::parseModelKind(value, cfg.fit.modelSpec.kind))
        badLine(lineNo,
                "model must be 'branch-site', 'branch', 'clade-c' or 'site'");
    } else if (key == "foreground") {
      // Note '#' opens a comment, so branch sets are spelled with labels or
      // node indices, never '#k' marks (see tree/branch_classes.hpp).
      cfg.foreground = value;
      foregroundLine = lineNo;
    } else if (key == "CodonFreq") {
      const int f = parseInt(key, value, lineNo);
      switch (f) {
        case 0: cfg.fit.frequencyModel = model::CodonFrequencyModel::Equal; break;
        case 1: cfg.fit.frequencyModel = model::CodonFrequencyModel::F1x4; break;
        case 2: cfg.fit.frequencyModel = model::CodonFrequencyModel::F3x4; break;
        case 3: cfg.fit.frequencyModel = model::CodonFrequencyModel::F61; break;
        default: badLine(lineNo, "CodonFreq must be 0..3");
      }
    } else if (key == "maxIterations") {
      cfg.fit.bfgs.maxIterations = parseInt(key, value, lineNo);
      if (cfg.fit.bfgs.maxIterations < 0) badLine(lineNo, "negative cap");
    } else if (key == "kappa") {
      cfg.fit.initialParams.kappa = parseStart(key, value);
    } else if (key == "omega0") {
      cfg.fit.initialParams.omega0 = parseStart(key, value);
    } else if (key == "omega2") {
      cfg.fit.initialParams.omega2 = parseStart(key, value);
    } else if (key == "p0") {
      cfg.fit.initialParams.p0 = parseStart(key, value);
    } else if (key == "p1") {
      cfg.fit.initialParams.p1 = parseStart(key, value);
    } else if (key == "cleandata") {
      cfg.stopCodonsAsMissing = parseInt(key, value, lineNo) != 0;
    } else if (key == "checkpoint") {
      cfg.checkpointPath = value;
    } else if (key == "checkpointEverySec") {
      cfg.checkpointEverySec = parseDouble(key, value, lineNo);
      if (cfg.checkpointEverySec < 0)
        badLine(lineNo, "checkpointEverySec must be >= 0");
    } else if (key == "timeoutSec") {
      cfg.timeoutSec = parseDouble(key, value, lineNo);
      if (cfg.timeoutSec < 0) badLine(lineNo, "timeoutSec must be >= 0");
    } else if (key == "seed") {
      cfg.fit.startJitterSeed = parseSeed(key, value, lineNo);
    } else {
      badLine(lineNo, "unknown key '" + key + "'");
    }
  }
  // Keyed like every other parse failure: hostile or truncated ctl text must
  // surface as ConfigError (the fuzz harness and the daemon's submit path
  // both key on it), not a bare precondition failure.  No seqfile is fine
  // here: --batch may supply the genes, and runConfig refuses none at all.
  if (cfg.treefile.empty())
    throw ConfigError("control file: treefile is required");
  const model::ModelKind kind = cfg.fit.modelSpec.kind;
  // Scans mark each set as branch class 1; M1a/M2a has no branch classes.
  if (!cfg.foreground.empty() && kind == model::ModelKind::Site)
    badLine(foregroundLine,
            "'foreground =' scans need a branch-heterogeneous model "
            "('branch-site', 'branch' or 'clade-c'), not 'model = site'");
  // A start outside its parameter's domain would be clamped to the boundary
  // and never move; refuse it before any fit starts.
  for (const auto& [key, set] : startLines) {
    const auto& [setLine, text] = set;
    if (const auto domain = startValueOutsideDomain(kind, key,
                                                    cfg.fit.initialParams))
      badLine(setLine, "value for '" + key + "' must lie in " + *domain +
                           " under model = " + model::modelKindName(kind) +
                           ", got '" + text + "'");
  }
  return cfg;
}

Config Config::parseString(std::string_view text) {
  std::istringstream in{std::string(text)};
  return parse(in);
}

Config Config::parseFile(const std::string& path) {
  std::ifstream in(path);
  SLIM_REQUIRE(in.good(), "cannot open control file '" + path + "'");
  return parse(in);
}

seqio::CodonAlignment loadAlignmentFile(const std::string& path,
                                        bool stopCodonsAsMissing) {
  std::ifstream seqIn(path);
  SLIM_REQUIRE(seqIn.good(), "cannot open sequence file '" + path + "'");
  // FASTA if the first non-blank character is '>', else sequential PHYLIP.
  char first = 0;
  seqIn >> std::ws;
  seqIn.get(first);
  seqIn.unget();
  const auto aln = (first == '>') ? seqio::Alignment::readFasta(seqIn)
                                  : seqio::Alignment::readPhylip(seqIn);
  return seqio::encodeCodons(aln, bio::GeneticCode::universal(),
                             stopCodonsAsMissing);
}

tree::Tree loadTreeFile(const std::string& path) {
  std::ifstream treeIn(path);
  SLIM_REQUIRE(treeIn.good(), "cannot open tree file '" + path + "'");
  std::stringstream treeText;
  treeText << treeIn.rdbuf();
  return tree::Tree::parseNewick(treeText.str());
}

namespace {

/// "dir/gene-007.fasta" -> "gene-007" (the per-gene report label).
std::string fileStem(const std::string& path) {
  const auto slash = path.find_last_of("/\\");
  const auto base = slash == std::string::npos ? path : path.substr(slash + 1);
  const auto dot = base.find_last_of('.');
  return dot == std::string::npos || dot == 0 ? base : base.substr(0, dot);
}

/// Write a report to `path` (stdout when empty or "-"), rendered in memory
/// and published with temp+fsync+rename: a process killed mid-report must
/// never leave a truncated file where a pipeline globbing results reads it.
template <class WriteReport>
void emitReport(const std::string& path, const WriteReport& write) {
  if (path.empty() || path == "-") {
    write(std::cout);
  } else {
    std::ostringstream buffer;
    write(buffer);
    support::writeFileAtomic(path, buffer.str());
  }
}

}  // namespace

model::ModelSpec modelSpecFor(model::ModelKind kind, int numBranchClasses) {
  model::ModelSpec spec;
  switch (kind) {
    case model::ModelKind::BranchSite:
      spec = model::ModelSpec::branchSite();
      break;
    case model::ModelKind::Branch:
      spec = model::ModelSpec::branch(numBranchClasses);
      break;
    case model::ModelKind::CladeC:
      spec = model::ModelSpec::cladeC(numBranchClasses);
      break;
    case model::ModelKind::Site:
      spec = model::ModelSpec::site();  // branch-homogeneous: marks ignored
      break;
  }
  spec.validate();
  return spec;
}

std::vector<std::string> scanBatchDirectory(const std::string& dir) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(dir))
    throw ConfigError("--batch: '" + dir + "' is not a directory");
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const auto ext = entry.path().extension().string();
    if (ext == ".fasta" || ext == ".fa" || ext == ".fas" || ext == ".phy" ||
        ext == ".phylip")
      files.push_back(entry.path().string());
  }
  if (files.empty())
    throw ConfigError("--batch: no alignments (*.fasta, *.fa, *.fas, *.phy, "
                      "*.phylip) in '" + dir + "'");
  // directory_iterator yields readdir order — host- and filesystem-
  // dependent.  Gene order must be stable: it fixes gene indices, derived
  // per-gene seeds, checkpoint task keys and report ordering.
  std::sort(files.begin(), files.end());
  return files;
}

RunOutput runConfig(const Config& rawConfig) {
  if (rawConfig.seqfiles.empty())
    throw ConfigError(
        "control file: seqfile is required (or pass --batch <dir>)");
  Config config = rawConfig;
  // `timeoutSec =`: a wall-clock deadline measured from here, on top of any
  // cancel source the caller installed (the CLI's SIGTERM flag, a daemon
  // job's cancel token).
  if (config.timeoutSec > 0)
    config.fit.bfgs.cancel =
        opt::combineCancel(std::move(config.fit.bfgs.cancel),
                           opt::deadlineAfter(config.timeoutSec));

  const auto tree =
      std::make_shared<const tree::Tree>(loadTreeFile(config.treefile));
  // Scans mark each set as class 1 on an otherwise unmarked copy of the
  // tree, so their specs are always two-class; plain runs size theirs to the
  // tree's own #k marks.
  config.fit.modelSpec = modelSpecFor(
      config.fit.modelSpec.kind,
      config.foreground.empty() ? tree::numBranchClasses(*tree) : 2);

  SLIM_REQUIRE(!config.resume || !config.checkpointPath.empty(),
               "--resume requires a 'checkpoint =' path in the control file");
  std::unique_ptr<CheckpointManager> checkpoint;
  if (!config.checkpointPath.empty())
    checkpoint = CheckpointManager::open(
        config.checkpointPath, config.checkpointEverySec,
        checkpointConfigHash(config), config.resume);
  BatchOptions options;
  options.fit = config.fit;
  options.checkpoint = checkpoint.get();

  RunOutput out;
  out.singleTest = config.seqfiles.size() == 1 && config.foreground.empty();
  if (!config.foreground.empty()) {
    ScanAnalysis scan(config.engine, *tree, config.foreground, options);
    for (const auto& path : config.seqfiles)
      scan.addGene(loadAlignmentFile(path, config.stopCodonsAsMissing),
                   config.fit, fileStem(path));
    out.names = scan.taskNames();
    out.tests = scan.runAll();
    out.totals = scan.totals();
    out.info = scan.lastRun();
    return out;
  }
  BatchAnalysis batch(config.engine, options);
  for (const auto& path : config.seqfiles) {
    out.names.push_back(fileStem(path));
    batch.addGene(loadAlignmentFile(path, config.stopCodonsAsMissing), tree,
                  config.fit, out.names.back());
  }
  out.tests = batch.runAll();
  out.totals = batch.totals();
  out.info = batch.lastRun();
  return out;
}

void writeJsonRunReport(std::ostream& os, const RunOutput& out,
                        EngineKind engine) {
  if (out.singleTest)
    writeJsonTestReport(os, out.tests.front(), engine);
  else
    writeJsonBatchReport(os, out.tests, out.names, engine, out.totals,
                         out.info);
}

void writeRunReports(const Config& config, const RunOutput& out, bool json) {
  emitReport(config.outfile, [&](std::ostream& os) {
    if (out.singleTest) {
      writeTestReport(os, out.tests.front(), config.engine);
      return;
    }
    for (std::size_t g = 0; g < out.tests.size(); ++g) {
      os << "=== gene " << out.names[g] << " ===\n";
      writeTestReport(os, out.tests[g], config.engine);
      os << '\n';
    }
    writeBatchSummary(os, out.tests, out.names, config.engine, out.totals,
                      out.info);
  });
  if (!json) return;
  const bool toFile = !config.outfile.empty() && config.outfile != "-";
  const std::string path = toFile ? config.outfile + ".json" : "-";
  emitReport(path, [&](std::ostream& os) {
    writeJsonRunReport(os, out, config.engine);
  });
  if (toFile) std::cerr << "wrote " << path << '\n';
}

}  // namespace slim::core
