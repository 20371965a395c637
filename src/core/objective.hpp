#pragma once
// The likelihood side of the derivative-aware objective contract, and the
// one parameter layout every fit optimizes over.
//
// ParameterLayout generates a fit's optimization vector from (ModelSpec,
// Hypothesis, numBranches) — the same generator serves branch-site A, the
// branch model, clade model C and M1a/M2a (docs/models.md has the table):
//
//   kappa, omega0 (all kinds but branch), omega2 (branch-site H1, site H1),
//   class omegas (branch, clade-c), proportions, branch lengths
//
// with log / logistic / simplex transforms (opt/transforms.hpp).  It also
// owns the start point (initial values, optional seeded jitter);
// buildFitSpec turns unpacked values into the MixtureSpec the engine
// evaluates.
//
// LikelihoodObjective adapts one fit task (an evaluator plus its layout)
// onto opt::ObjectiveFunction:
//
//   * value(x) runs the fit's main evaluator, with the usual infeasibility
//     mapping (transform underflow / eigensolver failure -> a large finite
//     penalty the line search backtracks from);
//   * evaluateMany(points) fans independent probe points — the coordinates
//     of a finite-difference gradient — across a pool of *single-threaded*
//     sibling evaluators on a core::TaskScheduler, under the same
//     ParallelPolicy that governs task-level fit fan-out.  Points are
//     statically partitioned by index (point i -> evaluator i mod poolSize),
//     so which evaluator computes which point never depends on scheduling;
//     with exact-keyed propagator caches the values are bit-identical to the
//     sequential loop for every worker count.  Each pool evaluator keeps its
//     own persistent cache shard: a shard is exclusive to one running task
//     (propagator_cache.hpp), so concurrent probes must not share one, but
//     per-evaluator shards stay warm across every gradient of the fit;
//   * valueAndGradient(x, grad) under GradientMode::Analytic computes the
//     branch-length block of the gradient analytically in one extra
//     pruning-style sweep (reusing the evaluator's retained state when the
//     optimizer differentiates at the point it just evaluated — the common
//     case, costing zero re-evaluations) and finite-differences only the
//     leading substitution/mixture coordinates through evaluateMany.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/context.hpp"
#include "core/engine.hpp"
#include "core/scheduler.hpp"
#include "lik/branch_site_likelihood.hpp"
#include "model/model_spec.hpp"
#include "model/site_mixture.hpp"
#include "opt/objective.hpp"
#include "opt/transforms.hpp"

namespace slim::core {

/// A fit's substitution parameters in model space: the classic
/// kappa/omega0/omega2/p0/p1 block plus the per-branch-class omegas of the
/// branch and clade-c kinds (the FitResult::params / classOmegas pair).
struct ModelPoint {
  model::BranchSiteParams params;
  std::vector<double> classOmegas;
};

/// The mixture a fit of `kind` under `h` describes at (params,
/// classOmegas) — the spec builder shared by fits and site scans.  Throws
/// std::invalid_argument when a value is outside its domain.
model::MixtureSpec buildFitSpec(const bio::GeneticCode& gc,
                                std::span<const double> pi,
                                model::ModelKind kind, model::Hypothesis h,
                                const model::BranchSiteParams& params,
                                std::span<const double> classOmegas);

/// Whether starting value `name` (the ctl key: kappa, omega0, omega2, p0 or
/// p1) of `start` lies outside the open domain ParameterLayout's transform
/// gives that parameter in a fit of `kind` under H1, which reads everything
/// H0 does.  pack() would clamp such a value to within 1e-15 of the
/// boundary, where the transform's slope vanishes and BFGS never moves the
/// coordinate.  Returns the allowed interval as text, e.g. "(1, inf)", when
/// the value is outside it; nullopt when it is inside or the kind never
/// reads `name`.  The proportions share the open 2-simplex, so while the
/// other proportion is in (0, 1) it lowers the upper bound to 1 minus it
/// ("(0, 0.55) (p0 + p1 < 1)").
std::optional<std::string> startValueOutsideDomain(
    model::ModelKind kind, std::string_view name,
    const model::BranchSiteParams& start);

/// The optimization vector of one fit.  Checkpoints store these vectors and
/// BFGS trajectories depend on them, so the layout of every (kind,
/// hypothesis) row is a persistent format.
class ParameterLayout {
 public:
  ParameterLayout(const model::ModelSpec& spec, model::Hypothesis h,
                  int numBranches);

  int dim() const noexcept { return branchOffset_ + numBranches_; }
  /// Branch lengths occupy [branchOffset, dim): the vector's tail.
  int branchOffset() const noexcept { return branchOffset_; }
  int numBranches() const noexcept { return numBranches_; }
  model::ModelKind kind() const noexcept { return kind_; }
  model::Hypothesis hypothesis() const noexcept { return hypothesis_; }

  /// Internal-coordinate -> branch-length transform: logistic onto (0, 50]
  /// expected substitutions per codon, PAML's own bound.
  static opt::Transform branchTransform() noexcept {
    return opt::Transform::logistic(0.0, 50.0);
  }

  /// Lengths below 1e-6 are packed as 1e-6.
  std::vector<double> pack(const ModelPoint& point,
                           std::span<const double> lengths) const;
  ModelPoint unpack(std::span<const double> x) const;
  double branchLength(std::span<const double> x, int k) const;

  /// The fit's starting vector: `initial` mapped onto the kind (class
  /// omegas start at omega2, the branch model's background class at
  /// omega0) at `lengths`, multiplicatively jittered when jitterSeed != 0.
  /// Draw order: kappa, omega0, omega2 (whenever the kind frees it under
  /// H1 — also under H0, so seeded H0 branch-length draws never shift),
  /// each class omega, each branch length.
  std::vector<double> start(const model::BranchSiteParams& initial,
                            std::vector<double> lengths,
                            std::uint64_t jitterSeed) const;

 private:
  model::ModelKind kind_;
  model::Hypothesis hypothesis_;
  int numBranches_;
  int numClassOmegas_;
  // Coordinate offsets; -1 when the row has no such parameter.
  int omega0At_ = -1, omega2At_ = -1, classOmegaAt_ = -1, proportionAt_ = -1;
  bool singleProportion_ = false;  ///< M1a: logistic p0, not the simplex
  int branchOffset_ = 0;
};

class LikelihoodObjective final : public opt::ObjectiveFunction {
 public:
  /// `evaluator` is the fit's main evaluator over `context`'s data
  /// (caller-owned; both must outlive this object).  `poolOptions`
  /// configures probe evaluators — pass the fit's resolved engine options;
  /// numThreads is forced to 1, since the parallelism moves up to the
  /// coordinate fan-out.  `fanWorkers` <= 1 disables the pool (every probe
  /// runs on the main evaluator).
  LikelihoodObjective(lik::BranchSiteLikelihood& evaluator,
                      const AnalysisContext& context, ParameterLayout layout,
                      lik::LikelihoodOptions poolOptions, GradientMode mode,
                      ParallelPolicy policy, int fanWorkers);

  double value(std::span<const double> x) override;
  std::vector<double> evaluateMany(
      const std::vector<std::vector<double>>& points) override;
  opt::GradientResult valueAndGradient(
      std::span<const double> x, std::span<double> grad,
      const opt::GradientOptions& options) override;

  /// Engine counters of the whole fit: the main evaluator plus every pool
  /// evaluator, merged in fixed (pool-index) order.
  lik::EvalCounters counters() const;

  GradientMode mode() const noexcept { return mode_; }
  int poolSize() const noexcept { return static_cast<int>(pool_.size()); }

 private:
  /// Apply point x to an evaluator — build its mixture, set every branch
  /// length — and return the mixture to evaluate.  Self-contained (pool
  /// evaluators start wherever the previous probe left them); throws
  /// std::invalid_argument for infeasible points.
  model::MixtureSpec prepare(lik::BranchSiteLikelihood& evaluator,
                             std::span<const double> x) const;
  double evalOn(lik::BranchSiteLikelihood& evaluator,
                std::span<const double> x);
  /// Whether a batch of numPoints would be fanned across the probe pool
  /// under the policy.
  bool wouldFan(int numPoints) const;
  void ensurePool(int evaluators);

  lik::BranchSiteLikelihood& main_;
  const AnalysisContext& context_;
  ParameterLayout layout_;
  lik::LikelihoodOptions poolOptions_;
  GradientMode mode_;
  ParallelPolicy policy_;
  int fanWorkers_;

  std::unique_ptr<TaskScheduler> scheduler_;  // created on first fan-out
  std::vector<std::unique_ptr<lik::BranchSiteLikelihood>> pool_;

  // The last point value() evaluated on the main evaluator (and whether the
  // evaluator's retained state is valid for it) — the analytic gradient
  // reuses that state instead of re-evaluating when BFGS differentiates at
  // the point the line search just accepted.
  std::vector<double> lastX_;
  bool lastValid_ = false;
};

}  // namespace slim::core
