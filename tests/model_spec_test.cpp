// ModelSpec: the (site class x branch class) -> omega-slot assignment table
// behind branch-site A, the branch model, clade model C and M1a/M2a.  The
// central pin
// is the first TEST: the generic branch-site table reproduces the historic
// omegaIndexFor(siteClass, bool) switch cell for cell, which is what keeps
// the refactored likelihood path bit-identical.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "bio/genetic_code.hpp"
#include "model/branch_site.hpp"
#include "model/model_spec.hpp"

namespace model = slim::model;
using model::Hypothesis;
using model::ModelKind;
using model::ModelSpec;

TEST(ModelSpecTest, BranchSiteTableMatchesOmegaIndexFor) {
  const ModelSpec spec = ModelSpec::branchSite();
  for (const auto h : {Hypothesis::H0, Hypothesis::H1})
    for (int m = 0; m < model::kNumSiteClasses; ++m) {
      EXPECT_EQ(spec.omegaSlotFor(m, 0, h),
                model::omegaIndexFor(m, /*foreground=*/false));
      EXPECT_EQ(spec.omegaSlotFor(m, 1, h),
                model::omegaIndexFor(m, /*foreground=*/true));
    }
}

TEST(ModelSpecTest, BranchSiteShape) {
  const ModelSpec spec = ModelSpec::branchSite();
  EXPECT_NO_THROW(spec.validate());
  EXPECT_EQ(spec.numSiteClasses(), 4);
  EXPECT_EQ(spec.numOmegaSlots(Hypothesis::H0), 3);
  EXPECT_EQ(spec.numOmegaSlots(Hypothesis::H1), 3);
  EXPECT_DOUBLE_EQ(spec.lrtDegreesOfFreedom(), 1.0);
  EXPECT_EQ(spec.numClassOmegaParams(Hypothesis::H1), 0);
  // The table is hypothesis-independent (H0 pins the slot's value, not the
  // slot), and defaults match the default-constructed spec carried by
  // FitOptions.
  EXPECT_EQ(spec.omegaAssignment(Hypothesis::H0),
            spec.omegaAssignment(Hypothesis::H1));
  EXPECT_EQ(spec, ModelSpec{});
}

TEST(ModelSpecTest, BranchModelAssignment) {
  const ModelSpec spec = ModelSpec::branch(3);
  EXPECT_NO_THROW(spec.validate());
  EXPECT_EQ(spec.numSiteClasses(), 1);
  EXPECT_EQ(spec.numOmegaSlots(Hypothesis::H0), 1);
  EXPECT_EQ(spec.numOmegaSlots(Hypothesis::H1), 3);
  EXPECT_DOUBLE_EQ(spec.lrtDegreesOfFreedom(), 2.0);
  EXPECT_EQ(spec.numClassOmegaParams(Hypothesis::H0), 1);
  EXPECT_EQ(spec.numClassOmegaParams(Hypothesis::H1), 3);
  const auto h1 = spec.omegaAssignment(Hypothesis::H1);
  ASSERT_EQ(h1.size(), 1u);
  EXPECT_EQ(h1[0], (std::vector<int>{0, 1, 2}));
  // H0 keeps the full-width row but every branch class shares slot 0.
  const auto h0 = spec.omegaAssignment(Hypothesis::H0);
  ASSERT_EQ(h0.size(), 1u);
  EXPECT_EQ(h0[0], (std::vector<int>{0, 0, 0}));
}

TEST(ModelSpecTest, CladeCAssignment) {
  const ModelSpec spec = ModelSpec::cladeC(2);
  EXPECT_NO_THROW(spec.validate());
  EXPECT_EQ(spec.numSiteClasses(), 3);
  // H1 slots: omega0, 1, and one divergent omega per branch class.
  EXPECT_EQ(spec.numOmegaSlots(Hypothesis::H1), 4);
  // H0 = M2a_rel: one shared divergent omega.
  EXPECT_EQ(spec.numOmegaSlots(Hypothesis::H0), 3);
  EXPECT_DOUBLE_EQ(spec.lrtDegreesOfFreedom(), 1.0);
  const auto h1 = spec.omegaAssignment(Hypothesis::H1);
  ASSERT_EQ(h1.size(), 3u);
  EXPECT_EQ(h1[0], (std::vector<int>{0}));
  EXPECT_EQ(h1[1], (std::vector<int>{1}));
  EXPECT_EQ(h1[2], (std::vector<int>{2, 3}));
  // H0 = M2a_rel: every branch class shares the one divergent slot.
  const auto h0 = spec.omegaAssignment(Hypothesis::H0);
  EXPECT_EQ(h0[2], (std::vector<int>{2, 2}));
}

TEST(ModelSpecTest, ClampsBranchClassesBeyondTable) {
  // Extra branch classes clamp to the last column, matching
  // MixtureClass::omegaFor — a branch-site run on a #2-marked tree treats
  // mark 2 like the foreground.
  const ModelSpec spec = ModelSpec::branchSite();
  EXPECT_EQ(spec.omegaSlotFor(2, 5), spec.omegaSlotFor(2, 1));
}

TEST(ModelSpecTest, ValidateRejectsImpossibleShapes) {
  EXPECT_THROW(ModelSpec::branch(1).validate(), std::invalid_argument);
  EXPECT_THROW(ModelSpec::cladeC(1).validate(), std::invalid_argument);
  EXPECT_THROW((ModelSpec{ModelKind::BranchSite, 3}).validate(),
               std::invalid_argument);
}

TEST(ModelSpecTest, BuildersProduceValidMixtures) {
  const auto& gc = slim::bio::GeneticCode::universal();
  const std::vector<double> pi(gc.numSense(), 1.0 / gc.numSense());

  const double omegas[] = {0.2, 1.5, 3.0};
  const auto branch = model::buildBranchModelSpec(gc, pi, 2.0, omegas);
  EXPECT_NO_THROW(branch.validate(gc.numSense()));
  ASSERT_EQ(branch.classes.size(), 1u);
  EXPECT_DOUBLE_EQ(branch.classes[0].proportion, 1.0);
  EXPECT_EQ(branch.classes[0].omega, (std::vector<int>{0, 1, 2}));
  EXPECT_FALSE(branch.branchHomogeneous());

  const double divergent[] = {0.8, 4.0};
  const auto cladeC =
      model::buildCladeCSpec(gc, pi, 2.0, 0.1, 0.4, 0.3, divergent);
  EXPECT_NO_THROW(cladeC.validate(gc.numSense()));
  ASSERT_EQ(cladeC.classes.size(), 3u);
  EXPECT_DOUBLE_EQ(cladeC.classes[0].proportion, 0.4);
  EXPECT_DOUBLE_EQ(cladeC.classes[1].proportion, 0.3);
  EXPECT_NEAR(cladeC.classes[2].proportion, 0.3, 1e-12);
  EXPECT_EQ(cladeC.classes[2].omega, (std::vector<int>{2, 3}));
  EXPECT_DOUBLE_EQ(cladeC.omegas[0], 0.1);
  EXPECT_DOUBLE_EQ(cladeC.omegas[1], 1.0);
  EXPECT_DOUBLE_EQ(cladeC.omegas[2], 0.8);
  EXPECT_DOUBLE_EQ(cladeC.omegas[3], 4.0);

  // A single shared omega (the H0 shapes) is branch-homogeneous.
  const double shared[] = {0.7};
  EXPECT_TRUE(model::buildBranchModelSpec(gc, pi, 2.0, shared)
                  .branchHomogeneous());
}

TEST(ModelSpecTest, SiteKindIsM1aVsM2a) {
  const ModelSpec spec = ModelSpec::site();
  EXPECT_NO_THROW(spec.validate());
  // The class count depends on the hypothesis: M1a {omega0, 1}, M2a adds
  // omega2.
  EXPECT_EQ(spec.numSiteClasses(Hypothesis::H0), 2);
  EXPECT_EQ(spec.numSiteClasses(Hypothesis::H1), 3);
  EXPECT_EQ(spec.numOmegaSlots(Hypothesis::H0), 2);
  EXPECT_EQ(spec.numOmegaSlots(Hypothesis::H1), 3);
  EXPECT_DOUBLE_EQ(spec.lrtDegreesOfFreedom(), 2.0);
  EXPECT_EQ(spec.numClassOmegaParams(Hypothesis::H1), 0);
  EXPECT_EQ(spec.omegaAssignment(Hypothesis::H0),
            (std::vector<std::vector<int>>{{0}, {1}}));
  EXPECT_EQ(spec.omegaAssignment(Hypothesis::H1),
            (std::vector<std::vector<int>>{{0}, {1}, {2}}));
  // Branch-homogeneous: every branch class reads the one column.
  EXPECT_EQ(spec.omegaSlotFor(2, 5), 2);
  EXPECT_THROW((ModelSpec{ModelKind::Site, 2}).validate(),
               std::invalid_argument);
}

TEST(ModelSpecTest, ModelKindNames) {
  EXPECT_STREQ(model::modelKindName(ModelKind::BranchSite), "branch-site");
  EXPECT_STREQ(model::modelKindName(ModelKind::Branch), "branch");
  EXPECT_STREQ(model::modelKindName(ModelKind::CladeC), "clade-c");
  EXPECT_STREQ(model::modelKindName(ModelKind::Site), "site");
}
