#pragma once
// CodeML-style control files.
//
// CodeML is driven by a "ctl" file of `key = value` lines ('*' starts a
// comment), pointing at a sequence file and a tree file and selecting model
// options.  This module provides the same workflow for slimcodeml so the
// tool is drivable without writing C++ (see tools/slimcodeml_main.cpp):
//
//     seqfile  = gene.fasta        * FASTA or sequential PHYLIP
//     treefile = gene.nwk          * Newick; integer #k marks label branch
//                                  * classes (0 = background)
//     outfile  = results.txt       * '-' or empty: stdout
//     model    = branch-site       * branch-site | branch | clade-c | site
//     foreground = every-branch    * scan mode: fit every branch (or each
//                                  * listed set) as the foreground in one
//                                  * batch; sets are semicolon-separated
//                                  * lists of comma-separated labels/ids
//     engine   = slim              * slim | slim-parallel | codeml
//     threads  = 0                 * worker threads (0: all cores)
//     parallel = auto              * auto | task | pattern (batch fan-out)
//     gradient = fd                * fd | fd-parallel | analytic
//     simd     = auto              * auto | scalar | avx2 | avx512
//     backend  = auto              * auto | reference | simd | blas
//     expm     = eigen             * eigen | adaptive (scaling-and-squaring)
//     blockSize = 64               * site patterns per work block
//     cachePropagators = 1         * persistent propagator cache on/off
//     CodonFreq = 2                * 0 equal, 1 F1x4, 2 F3x4, 3 F61
//     maxIterations = 200
//     kappa = 2.0                  * initial values
//     omega0 = 0.1
//     omega2 = 2.0
//     p0 = 0.45
//     p1 = 0.45
//     cleandata = 0                * 1: treat stop codons as missing
//     checkpoint = run.ckpt        * snapshot long fits to this file
//     checkpointEverySec = 30      * write throttle (0: every iteration)
//     timeoutSec = 0               * wall-clock budget for the whole run
//                                  * (0: none); expired fits stop cleanly at
//                                  * the last accepted point, marked
//                                  * cancelled in the report
//     tuning = auto                * per-host autotuning profile: 'auto'
//                                  * ($SLIMCODEML_TUNING or slimcodeml.tuning,
//                                  * skipped when absent) or an explicit path
//                                  * (strictly loaded; wrong host refused)
//
// Multi-gene batches: repeat the `seqfile` line once per alignment (all
// genes share the one tree), and every gene's branch-site test runs through
// core::BatchAnalysis with the H0/H1 fits fanned across the worker pool.

#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/analysis.hpp"
#include "core/batch.hpp"

namespace slim::core {

/// Thrown for malformed control files.  Derives from std::invalid_argument
/// (what callers historically caught); the message always names the line
/// number, and value errors also name the offending key — a stod failure
/// never escapes as a bare exception without location context.
class ConfigError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Which test the control file requests.
enum class AnalysisKind {
  BranchSite,  ///< model A, H0 vs H1 on the #1 branch (`model = branch-site`)
  Site,        ///< M1a vs M2a across all branches (`model = site`)
  Branch,      ///< one omega per branch class vs one shared (`model = branch`)
  CladeC,      ///< clade model C vs M2a_rel (`model = clade-c`)
};

inline const char* analysisKindName(AnalysisKind k) noexcept {
  switch (k) {
    case AnalysisKind::BranchSite: return "branch-site";
    case AnalysisKind::Site: return "site";
    case AnalysisKind::Branch: return "branch";
    case AnalysisKind::CladeC: return "clade-c";
  }
  return "?";
}

/// Parsed control file.
struct Config {
  /// First sequence file (always seqfiles.front(); kept for single-gene
  /// callers).
  std::string seqfile;
  /// Every `seqfile` entry in control-file order; more than one selects the
  /// batch workflow.
  std::vector<std::string> seqfiles;
  std::string treefile;
  std::string outfile;  ///< Empty or "-" writes to stdout.
  EngineKind engine = EngineKind::Slim;
  AnalysisKind analysis = AnalysisKind::BranchSite;
  /// `foreground =` scan selector: empty for a plain run, "every-branch" or
  /// a semicolon-separated list of branch sets (comma-separated labels /
  /// node indices) to fan one fit per set through the batch workflow
  /// (tree/branch_classes.hpp grammar).
  std::string foreground;
  FitOptions fit;
  bool stopCodonsAsMissing = false;
  /// Non-empty: branch-site fits snapshot their optimizer state to this
  /// file (atomically) as they run, making the run resumable.
  std::string checkpointPath;
  /// Seconds between checkpoint writes (0: write on every iteration).
  double checkpointEverySec = 30.0;
  /// Wall-clock budget for the whole run, in seconds (0: unlimited).  The
  /// runners compose a deadline onto fit.bfgs.cancel: fits past the budget
  /// stop cleanly at the last accepted point and are reported cancelled.
  /// Like the cancel predicate itself, deliberately excluded from
  /// checkpointConfigHash — a timeout truncates a trajectory, never alters
  /// it, so a resumed run may continue under a different budget.
  double timeoutSec = 0;
  /// Set by the CLI's --resume flag: load checkpointPath (if it exists) and
  /// continue — completed fits are skipped, in-flight ones continue their
  /// recorded trajectory.  Version/config-hash mismatches refuse loudly.
  bool resume = false;
  /// `tuning =` key: empty (off), "auto" (defaultTuningProfilePath(), used
  /// only when the file exists) or an explicit profile path (must load).
  /// The loaded profile fills only tuning fields the control file left at
  /// their defaults — see resolveTuningProfile.
  std::string tuningPath;

  /// Parse `key = value` text.  Unknown keys and malformed lines throw
  /// std::invalid_argument with a line number.
  static Config parse(std::istream& in);
  static Config parseString(std::string_view text);
  static Config parseFile(const std::string& path);
};

/// Apply the config's `tuning =` request: load the named profile (or the
/// default-path one under "auto", skipping silently only when that file
/// does not exist) and merge it into config.fit.tuning — profile values
/// fill only fields still at their defaults, so explicit ctl keys win.
/// Every config runner calls this first; exposed for tests and tools.
/// Throws ConfigError on a corrupt, version-mismatched or foreign-host
/// profile (see core/tuning_profile.hpp).
Config resolveTuningProfile(Config config);

/// The ModelSpec a `model =` selection requests over a tree with
/// `numBranchClasses` branch classes (branch-site always uses the fixed
/// two-class Table I shape and `site` the branch-homogeneous one; scans
/// mark each set as class 1, so they pass 2).  Validated here, so an
/// unmarked tree under `model = branch` / `clade-c` fails with the spec's
/// keyed "mark at least one branch" error before any fitting starts.
model::ModelSpec modelSpecFor(AnalysisKind analysis, int numBranchClasses);

/// Load one alignment file: FASTA when the first non-blank character is
/// '>', else sequential PHYLIP; codon-encoded with the universal code.
/// Shared by the config runners and the serve-mode context cache.
seqio::CodonAlignment loadAlignmentFile(const std::string& path,
                                        bool stopCodonsAsMissing);

/// Load and parse a Newick tree file.
tree::Tree loadTreeFile(const std::string& path);

/// Load the alignment (FASTA when the first non-blank char is '>', else
/// sequential PHYLIP) and tree named by the config, run the full H0/H1
/// test of the requested branch-classification model (branch-site A, the
/// branch model or clade model C), and return the result; writes the text
/// report to config.outfile.  Requires analysis != Site and an empty
/// `foreground =` (scans run through runBatchFromConfig).
PositiveSelectionTest runFromConfig(const Config& config);

/// Same, for `model = site`: the M1a-vs-M2a test (no #1 mark needed; h0 is
/// the M1a fit, h1 the M2a fit, LRT df = 2).  Refuses checkpoints and
/// `foreground =` scans.
PositiveSelectionTest runSiteModelFromConfig(const Config& config);

/// Result of the multi-gene workflow, in seqfile order.
struct BatchRunOutput {
  std::vector<std::string> geneNames;  ///< Sequence-file stem per gene.
  std::vector<PositiveSelectionTest> tests;
  lik::EvalCounters totals;  ///< Deterministic gene-order merge of all work.
  BatchRunInfo info;
};

/// Load every alignment named by config.seqfiles plus the shared tree, run
/// all tests through core::BatchAnalysis (H0/H1 fits fanned across
/// `threads` workers under the `parallel` policy), and write per-gene text
/// reports plus a batch summary to config.outfile.  A non-empty
/// `foreground =` expands every gene into one task per branch set
/// (core::ScanAnalysis, names "<gene>@<set>"), riding the same checkpoint /
/// cancellation / report plumbing.  Requires analysis != Site; also accepts
/// a single seqfile.
BatchRunOutput runBatchFromConfig(const Config& config);

/// Alignments under `dir` with a recognized extension (*.fasta, *.fa,
/// *.fas, *.phy, *.phylip), sorted lexicographically by path.  Never
/// readdir order: that is host-dependent, and gene order determines gene
/// indices — hence jitterSeedBase-derived per-gene seeds, checkpoint task
/// keys and report ordering.  Throws ConfigError when `dir` is not a
/// directory or holds no alignments.
std::vector<std::string> scanBatchDirectory(const std::string& dir);

}  // namespace slim::core
