#pragma once
// The branch-classification model-spec layer.
//
// A scenario is described by (a) a *branch classification* — the integer #k
// Newick marks partitioning branches into classes 0..B-1, class 0 being the
// background (tree/branch_classes.hpp) — and (b) a ModelSpec owning the
// (site class x branch class) -> omega-slot assignment table.  Four model
// families are expressed as instances of the same spec:
//
//   branch-site A   4 site classes x 2 branch classes, Table I
//                   (the former omegaIndexFor(siteClass, bool) switch)
//   branch          1 site class, one free omega per branch class
//                   (H0: a single shared omega; LRT df = B - 1)
//   clade-c         3 site classes; class 2 is divergent with its own
//                   omega per branch class (H0 = M2a_rel, shared divergent
//                   omega; LRT df = B - 1)
//   site            branch-homogeneous M1a (H0: omega0, 1) vs M2a (H1:
//                   omega0, 1, omega2 > 1); LRT df = 2
//
// ModelSpec is a cheap value type carried in core::FitOptions; the numeric
// builders below turn concrete parameter values into the MixtureSpec the
// likelihood engine consumes.

#include <span>
#include <string_view>
#include <vector>

#include "model/site_mixture.hpp"

namespace slim::model {

enum class ModelKind { BranchSite, Branch, CladeC, Site };

inline const char* modelKindName(ModelKind k) noexcept {
  switch (k) {
    case ModelKind::BranchSite: return "branch-site";
    case ModelKind::Branch: return "branch";
    case ModelKind::CladeC: return "clade-c";
    case ModelKind::Site: return "site";
  }
  return "?";
}

/// Inverse of modelKindName (the `model =` key, checkpoint `model` fields);
/// false for any other text.
inline bool parseModelKind(std::string_view name, ModelKind& out) noexcept {
  for (const auto k : {ModelKind::BranchSite, ModelKind::Branch,
                       ModelKind::CladeC, ModelKind::Site})
    if (name == modelKindName(k)) {
      out = k;
      return true;
    }
  return false;
}

/// Structural description of one scenario: which model family, over how
/// many branch classes.  Owns the omega assignment table.
struct ModelSpec {
  ModelKind kind = ModelKind::BranchSite;
  int numBranchClasses = 2;  ///< B; class 0 is the background.

  static ModelSpec branchSite() { return {ModelKind::BranchSite, 2}; }
  static ModelSpec branch(int numBranchClasses) {
    return {ModelKind::Branch, numBranchClasses};
  }
  static ModelSpec cladeC(int numBranchClasses) {
    return {ModelKind::CladeC, numBranchClasses};
  }
  /// M1a vs M2a: branch-homogeneous, so one branch class (marks ignored).
  static ModelSpec site() { return {ModelKind::Site, 1}; }

  /// Throws std::invalid_argument on an impossible shape.
  void validate() const;

  /// Site classes under h (only the site kind's count depends on h: M1a
  /// has 2, M2a 3).
  int numSiteClasses(Hypothesis h = Hypothesis::H1) const noexcept;

  /// Number of distinct omega slots under hypothesis h.
  int numOmegaSlots(Hypothesis h) const noexcept;

  /// The assignment table: row per site class, column per branch class,
  /// entries are omega-slot indices.  For the branch-site kind the table is
  /// hypothesis-independent (H0 pins the slot's *value*, not the slot).
  std::vector<std::vector<int>> omegaAssignment(Hypothesis h) const;

  /// One table cell; branch classes beyond the table clamp to the last
  /// column (matching MixtureClass::omegaFor).
  int omegaSlotFor(int siteClass, int branchClass,
                   Hypothesis h = Hypothesis::H1) const;

  /// Degrees of freedom of the H1-vs-H0 likelihood-ratio test.
  double lrtDegreesOfFreedom() const noexcept;

  /// Number of free per-branch-class omega parameters under h (0 for
  /// branch-site and site, which keep the classic kappa/omega0/omega2/p0/p1
  /// set).
  int numClassOmegaParams(Hypothesis h) const noexcept;

  friend bool operator==(const ModelSpec&, const ModelSpec&) = default;
};

/// Branch model: no site mixture, one omega per branch class.  Pass one
/// omega per branch class (H1) or a single shared omega (H0).
MixtureSpec buildBranchModelSpec(const bio::GeneticCode& gc,
                                 std::span<const double> pi, double kappa,
                                 std::span<const double> classOmegas);

/// Clade model C: site classes {0: omega0 everywhere (p0), 1: omega = 1
/// everywhere (p1), 2: divergent}.  Pass the divergent omegas — one per
/// branch class (H1) or a single shared value (H0 = M2a_rel).
MixtureSpec buildCladeCSpec(const bio::GeneticCode& gc,
                            std::span<const double> pi, double kappa,
                            double omega0, double p0, double p1,
                            std::span<const double> divergentOmegas);

}  // namespace slim::model
