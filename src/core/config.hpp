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
//     gradient = fd                * fd | analytic
//     simd     = auto              * auto | scalar | avx2 | avx512
//     blockSize = 64               * site patterns per work block
//     cachePropagators = 1         * persistent propagator cache on/off
//     CodonFreq = 2                * 0 equal, 1 F1x4, 2 F3x4, 3 F61
//     maxIterations = 200
//     kappa = 2.0                  * initial values, each inside its
//                                  * open domain (docs/models.md)
//     omega0 = 0.1
//     omega2 = 2.0
//     p0 = 0.45
//     p1 = 0.45
//     cleandata = 0                * 1: treat stop codons as missing
//     seed = 0                     * nonzero: jitter the starting values
//     checkpoint = run.ckpt        * snapshot long fits to this file
//     checkpointEverySec = 30      * write throttle (0: every iteration)
//     timeoutSec = 0               * wall-clock budget for the whole run
//                                  * (0: none); expired fits stop cleanly at
//                                  * the last accepted point, marked
//                                  * cancelled in the report
//
// Multi-gene batches: repeat the `seqfile` line once per alignment (all
// genes share the one tree), or leave it out and pass `--batch <dir>` to the
// CLI.  core::runConfig runs every control file, for the CLI and the daemon.

#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
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

/// Parsed control file.
struct Config {
  /// Every `seqfile` entry in control-file order, plus what the CLI's
  /// --batch appends; more than one selects the batch workflow.  Parsing
  /// accepts an empty list; runConfig refuses one.
  std::vector<std::string> seqfiles;
  std::string treefile;
  std::string outfile;  ///< Empty or "-" writes to stdout.
  EngineKind engine = EngineKind::Slim;
  /// `foreground =` scan selector: empty for a plain run, "every-branch" or
  /// a semicolon-separated list of branch sets (comma-separated labels /
  /// node indices) to fan one fit per set through the batch workflow
  /// (tree/branch_classes.hpp grammar).
  std::string foreground;
  /// `model =` sets fit.modelSpec.kind; runConfig sizes the spec to the
  /// tree's branch classes (modelSpecFor).
  FitOptions fit;
  bool stopCodonsAsMissing = false;
  /// Non-empty: every fit snapshots its optimizer state to this file
  /// (atomically) as it runs, making the run resumable.
  std::string checkpointPath;
  /// Seconds between checkpoint writes (0: write on every iteration).
  double checkpointEverySec = 30.0;
  /// Wall-clock budget for the whole run, in seconds (0: unlimited).
  /// runConfig composes a deadline onto fit.bfgs.cancel: fits past the budget
  /// stop cleanly at the last accepted point and are reported cancelled.
  /// Like the cancel predicate itself, deliberately excluded from
  /// checkpointConfigHash — a timeout truncates a trajectory, never alters
  /// it, so a resumed run may continue under a different budget.
  double timeoutSec = 0;
  /// Set by the CLI's --resume flag: load checkpointPath (if it exists) and
  /// continue — completed fits are skipped, in-flight ones continue their
  /// recorded trajectory.  Version/config-hash mismatches refuse loudly.
  bool resume = false;

  /// Parse `key = value` text.  Unknown keys and malformed lines throw
  /// std::invalid_argument with a line number.
  static Config parse(std::istream& in);
  static Config parseString(std::string_view text);
  static Config parseFile(const std::string& path);
};

/// The ModelSpec a `model =` selection requests over a tree with
/// `numBranchClasses` branch classes (branch-site always uses the fixed
/// two-class Table I shape and `site` the branch-homogeneous one; scans
/// mark each set as class 1, so they pass 2).  Validated here, so an
/// unmarked tree under `model = branch` / `clade-c` fails with the spec's
/// keyed "mark at least one branch" error before any fitting starts.
model::ModelSpec modelSpecFor(model::ModelKind kind, int numBranchClasses);

/// Load one alignment file: FASTA when the first non-blank character is
/// '>', else sequential PHYLIP; codon-encoded with the universal code.
seqio::CodonAlignment loadAlignmentFile(const std::string& path,
                                        bool stopCodonsAsMissing);

/// Load and parse a Newick tree file.
tree::Tree loadTreeFile(const std::string& path);

/// What one control file produced, in task order.
struct RunOutput {
  /// Sequence-file stem per gene, or "<gene>@<set>" per scan task.
  std::vector<std::string> names;
  std::vector<PositiveSelectionTest> tests;
  lik::EvalCounters totals;  ///< Deterministic task-order merge of all work.
  BatchRunInfo info;
  bool singleTest = false;  ///< One seqfile, no scan: single-test reports.
};

/// Run every test a control file asks for, whatever its model kind: one
/// H0/H1 task pair per seqfile through core::BatchAnalysis (fanned across
/// `threads` workers under the `parallel` policy), or per (gene x branch
/// set) through core::ScanAnalysis under `foreground =`.  Arms `timeoutSec`
/// on top of fit.bfgs.cancel and opens `checkpoint =` (resuming when
/// config.resume is set).  The CLI and every daemon job call this, so both
/// load, fit and report through one path.  Throws a keyed ConfigError
/// without any seqfile.
RunOutput runConfig(const Config& config);

/// The JSON report of one run (the single-test or the batch object): the
/// CLI's --json and the daemon's results.
void writeJsonRunReport(std::ostream& os, const RunOutput& out,
                        EngineKind engine);

/// The CLI's reports, written atomically: the text report to
/// config.outfile (stdout when empty or "-"), then with `json` the JSON
/// report to '<outfile>.json' (stdout after the text).
void writeRunReports(const Config& config, const RunOutput& out, bool json);

/// Alignments under `dir` with a recognized extension (*.fasta, *.fa,
/// *.fas, *.phy, *.phylip), sorted lexicographically by path.  Never
/// readdir order: that is host-dependent, and gene order determines gene
/// indices — hence jitterSeedBase-derived per-gene seeds, checkpoint task
/// keys and report ordering.  Throws ConfigError when `dir` is not a
/// directory or holds no alignments.
std::vector<std::string> scanBatchDirectory(const std::string& dir);

}  // namespace slim::core
