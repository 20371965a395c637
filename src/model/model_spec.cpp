#include "model/model_spec.hpp"

#include "support/require.hpp"

namespace slim::model {

void ModelSpec::validate() const {
  switch (kind) {
    case ModelKind::BranchSite:
      SLIM_REQUIRE(numBranchClasses == 2,
                   "branch-site model uses exactly 2 branch classes "
                   "(background + foreground)");
      break;
    case ModelKind::Branch:
    case ModelKind::CladeC:
      SLIM_REQUIRE(numBranchClasses >= 2,
                   "branch/clade models need at least 2 branch classes "
                   "(mark at least one branch)");
      break;
    case ModelKind::Site:
      SLIM_REQUIRE(numBranchClasses == 1,
                   "site models are branch-homogeneous (1 branch class)");
      break;
  }
}

int ModelSpec::numSiteClasses(Hypothesis h) const noexcept {
  switch (kind) {
    case ModelKind::BranchSite: return kNumSiteClasses;  // 0, 1, 2a, 2b
    case ModelKind::Branch: return 1;
    case ModelKind::CladeC: return 3;  // 0, 1, 2 (divergent)
    case ModelKind::Site: return h == Hypothesis::H1 ? 3 : 2;  // M2a / M1a
  }
  return 0;
}

int ModelSpec::numOmegaSlots(Hypothesis h) const noexcept {
  switch (kind) {
    case ModelKind::BranchSite: return kNumOmegaClasses;
    case ModelKind::Branch: return h == Hypothesis::H1 ? numBranchClasses : 1;
    case ModelKind::CladeC:  // omega0, 1, then the divergent omegas.
      return h == Hypothesis::H1 ? 2 + numBranchClasses : 3;
    case ModelKind::Site:  // omega0, 1 (+ omega2 under M2a)
      return numSiteClasses(h);
  }
  return 0;
}

std::vector<std::vector<int>> ModelSpec::omegaAssignment(Hypothesis h) const {
  validate();
  std::vector<std::vector<int>> table;
  switch (kind) {
    case ModelKind::BranchSite:
      // Table I of Zhang, Nielsen & Yang (2005): rows 0, 1, 2a, 2b over
      // columns {background, foreground}; slots {omega0, 1, omega2}.
      table = {{kOmegaConserved, kOmegaConserved},
               {kOmegaNeutral, kOmegaNeutral},
               {kOmegaConserved, kOmegaPositive},
               {kOmegaNeutral, kOmegaPositive}};
      break;
    case ModelKind::Branch: {
      std::vector<int> row;
      const int slots = numOmegaSlots(h);
      for (int b = 0; b < numBranchClasses; ++b)
        row.push_back(b < slots ? b : slots - 1);
      table = {row};
      break;
    }
    case ModelKind::CladeC: {
      std::vector<int> divergent;
      for (int b = 0; b < numBranchClasses; ++b)
        divergent.push_back(h == Hypothesis::H1 ? 2 + b : 2);
      table = {{0}, {1}, divergent};
      break;
    }
    case ModelKind::Site:
      // One column: class m runs at slot m on every branch.
      for (int m = 0; m < numSiteClasses(h); ++m) table.push_back({m});
      break;
  }
  return table;
}

int ModelSpec::omegaSlotFor(int siteClass, int branchClass,
                            Hypothesis h) const {
  const auto table = omegaAssignment(h);
  SLIM_REQUIRE(siteClass >= 0 &&
                   siteClass < static_cast<int>(table.size()),
               "site class out of range");
  const auto& row = table[static_cast<std::size_t>(siteClass)];
  const auto b = static_cast<std::size_t>(branchClass);
  return b < row.size() ? row[b] : row.back();
}

double ModelSpec::lrtDegreesOfFreedom() const noexcept {
  switch (kind) {
    case ModelKind::BranchSite: return 1.0;
    case ModelKind::Branch:
    case ModelKind::CladeC: return static_cast<double>(numBranchClasses - 1);
    case ModelKind::Site: return 2.0;  // omega2 and the third proportion
  }
  return 0.0;
}

int ModelSpec::numClassOmegaParams(Hypothesis h) const noexcept {
  switch (kind) {
    case ModelKind::BranchSite:
    case ModelKind::Site: return 0;
    case ModelKind::Branch:
    case ModelKind::CladeC:  // clade C: the divergent omegas
      return h == Hypothesis::H1 ? numBranchClasses : 1;
  }
  return 0;
}

MixtureSpec buildBranchModelSpec(const bio::GeneticCode& gc,
                                 std::span<const double> pi, double kappa,
                                 std::span<const double> classOmegas) {
  SLIM_REQUIRE(kappa > 0, "kappa must be > 0");
  SLIM_REQUIRE(!classOmegas.empty(), "branch model needs >= 1 omega");
  for (const double w : classOmegas)
    SLIM_REQUIRE(w > 0, "branch-class omega must be > 0");
  std::vector<int> row(classOmegas.size());
  for (std::size_t b = 0; b < row.size(); ++b) row[b] = static_cast<int>(b);
  return buildMixtureSpec(gc, pi, kappa,
                          {classOmegas.begin(), classOmegas.end()},
                          {MixtureClass(1.0, std::move(row))});
}

MixtureSpec buildCladeCSpec(const bio::GeneticCode& gc,
                            std::span<const double> pi, double kappa,
                            double omega0, double p0, double p1,
                            std::span<const double> divergentOmegas) {
  SLIM_REQUIRE(kappa > 0, "kappa must be > 0");
  SLIM_REQUIRE(omega0 > 0 && omega0 < 1, "omega0 must be in (0,1)");
  SLIM_REQUIRE(p0 > 0 && p1 > 0 && p0 + p1 < 1,
               "need p0, p1 > 0 and p0 + p1 < 1");
  SLIM_REQUIRE(!divergentOmegas.empty(), "clade model C needs >= 1 "
                                         "divergent omega");
  for (const double w : divergentOmegas)
    SLIM_REQUIRE(w > 0, "divergent omega must be > 0");
  std::vector<double> omegas = {omega0, 1.0};
  omegas.insert(omegas.end(), divergentOmegas.begin(), divergentOmegas.end());
  std::vector<int> divergentRow(divergentOmegas.size());
  for (std::size_t b = 0; b < divergentRow.size(); ++b)
    divergentRow[b] = static_cast<int>(2 + b);
  return buildMixtureSpec(
      gc, pi, kappa, std::move(omegas),
      {MixtureClass(p0, 0, 0), MixtureClass(p1, 1, 1),
       MixtureClass(1.0 - p0 - p1, std::move(divergentRow))});
}

}  // namespace slim::model
