#include "sim/evolver.hpp"

#include <vector>

#include "expm/codon_eigen_system.hpp"
#include "support/require.hpp"
#include "tree/branch_classes.hpp"

namespace slim::sim {

using linalg::Matrix;

std::vector<double> randomCodonFrequencies(int numSense, int alpha, Rng& rng) {
  SLIM_REQUIRE(numSense > 1 && alpha >= 1, "bad Dirichlet parameters");
  std::vector<double> pi(numSense);
  double total = 0.0;
  for (double& f : pi) {
    f = rng.gammaInteger(alpha);
    total += f;
  }
  for (double& f : pi) f /= total;
  return pi;
}

SimulatedAlignment evolveMixture(const bio::GeneticCode& gc,
                                 const tree::Tree& tree,
                                 const model::MixtureSpec& spec,
                                 int numCodons, std::span<const double> pi,
                                 Rng& rng) {
  SLIM_REQUIRE(numCodons > 0, "numCodons must be positive");
  const int n = gc.numSense();
  SLIM_REQUIRE(static_cast<int>(pi.size()) == n, "pi has wrong length");
  spec.validate(n);
  SLIM_REQUIRE(spec.branchHomogeneous() || tree::hasMarkedBranch(tree),
               "branch-heterogeneous mixture requires at least one marked "
               "branch (#k)");

  // Eigensystems per omega class; transition matrices per (branch, omega),
  // built lazily.
  std::vector<expm::CodonEigenSystem> systems;
  systems.reserve(spec.numOmegas());
  for (int k = 0; k < spec.numOmegas(); ++k)
    systems.emplace_back(spec.scaledS[k], pi);

  const int numNodes = tree.numNodes();
  std::vector<Matrix> pCache(static_cast<std::size_t>(numNodes) *
                             spec.numOmegas());
  expm::ExpmWorkspace ws;
  // Simulated alignments must be bit-identical on every host (seeded
  // fixtures, byte-compared validation reports), so the propagators are
  // pinned to the scalar table rather than the detected SIMD level.
  // slim-lint: allow(kernel-choice)
  const auto& kern = linalg::simdKernels(linalg::SimdLevel::Scalar);
  auto transition = [&](int node, int omegaIdx) -> const Matrix& {
    Matrix& p =
        pCache[static_cast<std::size_t>(node) * spec.numOmegas() + omegaIdx];
    if (p.rows() == 0) {
      p.resize(n, n);
      systems[omegaIdx].transitionMatrix(tree.branchLength(node),
                                         expm::ReconstructionPath::Syrk,
                                         kern, ws, p);
    }
    return p;
  };

  // Pre-order node ordering (parents before children).
  std::vector<int> preOrder;
  preOrder.reserve(numNodes);
  {
    std::vector<int> stack{tree.root()};
    while (!stack.empty()) {
      const int id = stack.back();
      stack.pop_back();
      preOrder.push_back(id);
      for (int c : tree.node(id).children) stack.push_back(c);
    }
  }

  std::vector<double> proportions(spec.numClasses());
  for (int m = 0; m < spec.numClasses(); ++m)
    proportions[m] = spec.classes[m].proportion;

  SimulatedAlignment out;
  out.siteClasses.resize(numCodons);
  const auto leaves = tree.leaves();
  std::vector<std::string> leafSeq(leaves.size());
  for (auto& s : leafSeq) s.reserve(3 * static_cast<std::size_t>(numCodons));

  std::vector<int> state(numNodes);
  for (int site = 0; site < numCodons; ++site) {
    const int m = rng.categorical(proportions);
    out.siteClasses[site] = m;
    const auto& cls = spec.classes[m];
    for (int id : preOrder) {
      if (id == tree.root()) {
        state[id] = rng.categorical(pi);
        continue;
      }
      const int omegaIdx = cls.omegaFor(tree.node(id).mark);
      const Matrix& p = transition(id, omegaIdx);
      state[id] = rng.categorical(p.rowSpan(state[tree.node(id).parent]));
    }
    for (std::size_t li = 0; li < leaves.size(); ++li)
      leafSeq[li] += bio::codonString(gc.codonOfSense(state[leaves[li]]));
  }

  for (std::size_t li = 0; li < leaves.size(); ++li)
    out.alignment.addSequence(tree.node(leaves[li]).label,
                              std::move(leafSeq[li]));
  out.alignment.validate(/*codon=*/true);
  return out;
}

SimulatedAlignment evolveBranchSite(const bio::GeneticCode& gc,
                                    const tree::Tree& tree,
                                    const model::BranchSiteParams& params,
                                    model::Hypothesis hypothesis,
                                    int numCodons, std::span<const double> pi,
                                    Rng& rng) {
  SLIM_REQUIRE(tree.foregroundBranch() >= 0,
               "evolver requires a marked foreground branch");
  return evolveMixture(gc, tree,
                       model::buildModelASpec(gc, pi, params, hypothesis),
                       numCodons, pi, rng);
}

}  // namespace slim::sim
