#include "core/objective.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "sim/rng.hpp"
#include "support/require.hpp"

namespace slim::core {

using model::Hypothesis;
using model::ModelKind;

namespace {

/// The infeasibility penalty: large, finite, and identical on every path so
/// serial and fanned probe evaluations agree bit for bit.
constexpr double kInfeasible = 1e100;

bool sameLengthEqual(const std::vector<double>& a, std::span<const double> b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

// The layout's transforms by domain (opt/transforms.hpp): kappa and the
// class omegas are positive, omega0 and M1a's p0 lie in (0, 1), omega2 > 1.
opt::Transform positive() { return opt::Transform::logAbove(0.0); }
opt::Transform unitInterval() { return opt::Transform::logistic(0.0, 1.0); }
opt::Transform aboveOne() { return opt::Transform::logAbove(1.0); }

/// Whether the kind frees omega2 under H1 (branch-site A, M2a).
bool hasOmega2(ModelKind kind) {
  return kind == ModelKind::BranchSite || kind == ModelKind::Site;
}

}  // namespace

model::MixtureSpec buildFitSpec(const bio::GeneticCode& gc,
                                std::span<const double> pi, ModelKind kind,
                                Hypothesis h,
                                const model::BranchSiteParams& p,
                                std::span<const double> classOmegas) {
  switch (kind) {
    case ModelKind::BranchSite:
      return model::buildModelASpec(gc, pi, p, h);
    case ModelKind::Branch:
      return model::buildBranchModelSpec(gc, pi, p.kappa, classOmegas);
    case ModelKind::CladeC:
      return model::buildCladeCSpec(gc, pi, p.kappa, p.omega0, p.p0, p.p1,
                                    classOmegas);
    case ModelKind::Site: {
      const model::SiteModelParams site{p.kappa, p.omega0, p.omega2, p.p0,
                                        p.p1};
      return h == Hypothesis::H0 ? model::buildM1aSpec(gc, pi, site)
                                 : model::buildM2aSpec(gc, pi, site);
    }
  }
  SLIM_REQUIRE(false, "buildFitSpec: unknown model kind");
  return {};
}

// ---------- ParameterLayout ----------

ParameterLayout::ParameterLayout(const model::ModelSpec& spec, Hypothesis h,
                                 int numBranches)
    : kind_(spec.kind),
      hypothesis_(h),
      numBranches_(numBranches),
      numClassOmegas_(spec.numClassOmegaParams(h)) {
  spec.validate();
  // The order rule: kappa, omega0, omega2, class omegas, proportions,
  // branch lengths — each present only where the (kind, hypothesis) row
  // has the parameter.
  int at = 1;  // kappa is always coordinate 0
  if (kind_ != ModelKind::Branch) omega0At_ = at++;
  if (h == Hypothesis::H1 && hasOmega2(kind_)) omega2At_ = at++;
  if (numClassOmegas_ > 0) {
    classOmegaAt_ = at;
    at += numClassOmegas_;
  }
  if (kind_ != ModelKind::Branch) {
    proportionAt_ = at;
    // The simplex pair (u, v) for (p0, p1); M1a frees p0 alone.
    singleProportion_ = kind_ == ModelKind::Site && h == Hypothesis::H0;
    at += singleProportion_ ? 1 : 2;
  }
  branchOffset_ = at;
}

std::vector<double> ParameterLayout::pack(
    const ModelPoint& point, std::span<const double> lengths) const {
  const model::BranchSiteParams& p = point.params;
  std::vector<double> x(static_cast<std::size_t>(dim()));
  x[0] = positive().toInternal(p.kappa);
  if (omega0At_ >= 0) x[omega0At_] = unitInterval().toInternal(p.omega0);
  if (omega2At_ >= 0) x[omega2At_] = aboveOne().toInternal(p.omega2);
  for (int c = 0; c < numClassOmegas_; ++c)
    x[classOmegaAt_ + c] = positive().toInternal(point.classOmegas[c]);
  if (singleProportion_) {
    x[proportionAt_] = unitInterval().toInternal(p.p0);
  } else if (proportionAt_ >= 0) {
    const auto [u, v] = opt::simplex2ToInternal(p.p0, p.p1);
    x[proportionAt_] = u;
    x[proportionAt_ + 1] = v;
  }
  for (int k = 0; k < numBranches_; ++k)
    x[branchOffset_ + k] =
        branchTransform().toInternal(std::max(lengths[k], 1e-6));
  return x;
}

ModelPoint ParameterLayout::unpack(std::span<const double> x) const {
  // Parameters a row does not carry keep their BranchSiteParams defaults,
  // except that H0 pins omega2 = 1 for the kinds that free it under H1.
  ModelPoint point;
  model::BranchSiteParams& p = point.params;
  p.kappa = positive().toExternal(x[0]);
  if (omega0At_ >= 0) p.omega0 = unitInterval().toExternal(x[omega0At_]);
  if (omega2At_ >= 0)
    p.omega2 = aboveOne().toExternal(x[omega2At_]);
  else if (hasOmega2(kind_))
    p.omega2 = 1.0;
  point.classOmegas.resize(static_cast<std::size_t>(numClassOmegas_));
  for (int c = 0; c < numClassOmegas_; ++c)
    point.classOmegas[c] = positive().toExternal(x[classOmegaAt_ + c]);
  if (singleProportion_) {
    p.p0 = unitInterval().toExternal(x[proportionAt_]);
    p.p1 = 1.0 - p.p0;
  } else if (proportionAt_ >= 0) {
    const auto [p0, p1] =
        opt::simplex2ToExternal(x[proportionAt_], x[proportionAt_ + 1]);
    p.p0 = p0;
    p.p1 = p1;
  }
  return point;
}

double ParameterLayout::branchLength(std::span<const double> x, int k) const {
  return branchTransform().toExternal(x[branchOffset_ + k]);
}

std::vector<double> ParameterLayout::start(
    const model::BranchSiteParams& initial, std::vector<double> lengths,
    std::uint64_t jitterSeed) const {
  ModelPoint point{initial, {}};
  // Class omegas take the roles omega0/omega2 play for branch-site A: the
  // branch model's background class starts conserved and its marked classes
  // divergent; clade C's class omegas are all divergent (its conserved class
  // is the separate omega0 parameter).
  point.classOmegas.assign(static_cast<std::size_t>(numClassOmegas_),
                           initial.omega2);
  if (kind_ == ModelKind::Branch) point.classOmegas.front() = initial.omega0;

  if (jitterSeed != 0) {
    // CodeML-style randomized start: multiplicative jitter on every value.
    // The Rng is task-local, so concurrently-running fits never share
    // generator state and every scheduling order draws the same jitter.
    sim::Rng rng(jitterSeed);
    auto jitter = [&rng](double v) { return v * std::exp(rng.uniform(-0.1, 0.1)); };
    model::BranchSiteParams& p = point.params;
    p.kappa = jitter(p.kappa);
    if (omega0At_ >= 0) p.omega0 = std::min(0.95, jitter(p.omega0));
    if (hasOmega2(kind_)) p.omega2 = 1.0 + jitter(p.omega2 - 1.0 + 0.1);
    for (auto& w : point.classOmegas) w = jitter(w);
    for (auto& t : lengths) t = jitter(std::max(t, 1e-3));
  }
  return pack(point, lengths);
}

// ---------- LikelihoodObjective ----------

LikelihoodObjective::LikelihoodObjective(lik::BranchSiteLikelihood& evaluator,
                                         const AnalysisContext& context,
                                         ParameterLayout layout,
                                         lik::LikelihoodOptions poolOptions,
                                         GradientMode mode,
                                         ParallelPolicy policy, int fanWorkers)
    : main_(evaluator),
      context_(context),
      layout_(layout),
      poolOptions_(poolOptions),
      mode_(mode),
      policy_(policy),
      fanWorkers_(fanWorkers) {
  SLIM_REQUIRE(layout_.numBranches() == main_.numBranches(),
               "LikelihoodObjective: layout does not match the evaluator");
  // Probe evaluators must be single-threaded: the parallelism lives in the
  // coordinate fan-out, exactly as task-level fit fan-out forces
  // single-threaded pattern sweeps.
  poolOptions_.numThreads = 1;
  // The scheduler exists whenever fanning is possible at all (its worker
  // pool is still created lazily), so wouldFan can consult the policy.
  if (mode_ != GradientMode::FiniteDiff && fanWorkers_ > 1)
    scheduler_ = std::make_unique<TaskScheduler>(fanWorkers_);
}

bool LikelihoodObjective::wouldFan(int numPoints) const {
  return scheduler_ != nullptr &&
         scheduler_->useTaskLevel(std::min(fanWorkers_, numPoints), policy_);
}

model::MixtureSpec LikelihoodObjective::prepare(
    lik::BranchSiteLikelihood& evaluator, std::span<const double> x) const {
  const ModelPoint point = layout_.unpack(x);
  model::MixtureSpec spec =
      buildFitSpec(*context_.alignment().code, context_.pi(), layout_.kind(),
                   layout_.hypothesis(), point.params, point.classOmegas);
  for (int k = 0; k < layout_.numBranches(); ++k)
    evaluator.setBranchLength(k, layout_.branchLength(x, k));
  return spec;
}

double LikelihoodObjective::evalOn(lik::BranchSiteLikelihood& evaluator,
                                   std::span<const double> x) {
  // Extreme line-search trial points can underflow a transform to its
  // boundary (e.g. kappa == 0) or overflow a kernel; both count as
  // infeasible and the search backtracks.
  try {
    const model::MixtureSpec spec = prepare(evaluator, x);
    const double lnL = evaluator.logLikelihood(spec);
    return std::isfinite(lnL) ? -lnL : kInfeasible;
  } catch (const std::invalid_argument&) {
    return kInfeasible;
  } catch (const std::runtime_error&) {
    return kInfeasible;  // eigensolver non-convergence on degenerate input
  }
}

double LikelihoodObjective::value(std::span<const double> x) {
  const double f = evalOn(main_, x);
  lastX_.assign(x.begin(), x.end());
  lastValid_ = f != kInfeasible;
  return f;
}

void LikelihoodObjective::ensurePool(int evaluators) {
  while (static_cast<int>(pool_.size()) < evaluators) {
    // Null shard: with caching on, each probe evaluator creates its own
    // private shard at construction — exclusive to it for the whole fit
    // (the shard-per-task contract) yet warm across every gradient call.
    pool_.push_back(std::make_unique<lik::BranchSiteLikelihood>(
        context_.alignment(), context_.patterns(), context_.pi(),
        context_.tree(), layout_.hypothesis(), poolOptions_));
  }
}

std::vector<double> LikelihoodObjective::evaluateMany(
    const std::vector<std::vector<double>>& points) {
  const int numPoints = static_cast<int>(points.size());
  std::vector<double> values(points.size());

  // Fan only when the mode asks for it and the policy would also fan this
  // many independent tasks; otherwise run the sequential loop on the main
  // evaluator (which may itself be pattern-parallel).
  if (!wouldFan(numPoints)) {
    for (int i = 0; i < numPoints; ++i) values[i] = evalOn(main_, points[i]);
    lastValid_ = false;  // main_'s state is now at the last probe point
    return values;
  }

  const int evaluators = std::min(fanWorkers_, numPoints);
  ensurePool(evaluators);
  // Static index partition: point i always runs on evaluator i mod E, so the
  // probe history each evaluator (and its cache shard) sees is a function of
  // the fit alone, never of thread scheduling.
  scheduler_->run(evaluators, ParallelPolicy::TaskLevel, [&](int e) {
    for (int i = e; i < numPoints; i += evaluators)
      values[i] = evalOn(*pool_[e], points[i]);
  });
  return values;
}

opt::GradientResult LikelihoodObjective::valueAndGradient(
    std::span<const double> x, std::span<double> grad,
    const opt::GradientOptions& options) {
  const int numBranches = layout_.numBranches();
  const int branchOffset = layout_.branchOffset();
  if (mode_ != GradientMode::Analytic || numBranches == 0)
    return ObjectiveFunction::valueAndGradient(x, grad, options);

  // The hybrid writes exactly two blocks — FD for [0, branchOffset), the
  // analytic chain rule for the branch tail — so they must tile the whole
  // vector or a coordinate would silently keep its stale gradient entry.
  SLIM_REQUIRE(layout_.dim() == static_cast<int>(x.size()),
               "LikelihoodObjective: point does not match the layout");

  opt::GradientResult result;
  result.gradientSweeps = 1;
  const bool reuse = lastValid_ && sameLengthEqual(lastX_, x);
  double lnL;
  std::vector<double> branchGrad(numBranches);
  try {
    if (reuse) {
      lnL = main_.gradientBranchesAtLastEvaluation(branchGrad);
    } else {
      const model::MixtureSpec spec = prepare(main_, x);
      lnL = main_.logLikelihoodGradientBranches(spec, branchGrad);
      ++result.functionEvaluations;
    }
  } catch (const std::invalid_argument&) {
    lnL = -std::numeric_limits<double>::infinity();
  } catch (const std::runtime_error&) {
    lnL = -std::numeric_limits<double>::infinity();
  }
  if (!std::isfinite(lnL)) {
    // Infeasible at a gradient point (the optimizer normally never asks
    // here): degrade to the plain FD path rather than return garbage.
    lastValid_ = false;
    return ObjectiveFunction::valueAndGradient(x, grad, options);
  }
  lastX_.assign(x.begin(), x.end());
  lastValid_ = true;

  const double f0 = std::isnan(options.knownValue) ? -lnL : options.knownValue;
  result.value = f0;
  result.analyticCoordinates = numBranches;

  // Branch block: d(-lnL)/dx_i = -(d lnL/d t) * (d t/d x_i).
  const opt::Transform branch = ParameterLayout::branchTransform();
  for (int k = 0; k < numBranches; ++k) {
    const int i = branchOffset + k;
    grad[i] = -branchGrad[k] * branch.derivative(x[i]);
  }

  // Leading substitution/mixture coordinates: the ordinary FD path over
  // this objective's evaluateMany (fanned when the policy allows), so the
  // hybrid's FD block and a pure-fd gradient share one step rule.
  if (branchOffset > 0)
    opt::fdGradient(*this, x, f0, options.relStep, options.central,
                    grad.first(static_cast<std::size_t>(branchOffset)),
                    result.functionEvaluations);
  return result;
}

lik::EvalCounters LikelihoodObjective::counters() const {
  lik::EvalCounters total = main_.counters();
  for (const auto& e : pool_) total += e->counters();
  return total;
}

}  // namespace slim::core
