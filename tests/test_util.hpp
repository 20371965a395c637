#pragma once
// Shared helpers for the slimcodeml test suite.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <utility>
#include <vector>

#include "lik/branch_site_likelihood.hpp"
#include "linalg/matrix.hpp"
#include "seqio/alignment.hpp"

namespace slim::testutil {

/// Deterministic random dense matrix with entries in [-1, 1].
inline linalg::Matrix randomMatrix(std::size_t rows, std::size_t cols,
                                   unsigned seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  linalg::Matrix m(rows, cols);
  for (std::size_t k = 0; k < m.size(); ++k) m.data()[k] = dist(gen);
  return m;
}

/// Deterministic random symmetric matrix.
inline linalg::Matrix randomSymmetric(std::size_t n, unsigned seed) {
  linalg::Matrix m = randomMatrix(n, n, seed);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) m(i, j) = m(j, i);
  return m;
}

/// Deterministic random vector with entries in [-1, 1].
inline linalg::Vector randomVector(std::size_t n, unsigned seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  linalg::Vector v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = dist(gen);
  return v;
}

/// Deterministic random strictly-positive frequency vector summing to 1.
inline std::vector<double> randomFrequencies(std::size_t n, unsigned seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<double> dist(0.2, 1.0);
  std::vector<double> pi(n);
  double total = 0;
  for (auto& f : pi) {
    f = dist(gen);
    total += f;
  }
  for (auto& f : pi) f /= total;
  return pi;
}

/// A copy of a codon-aligned nucleotide MSA with missing codons, all of
/// which encode as seqio::kMissingState: each sequence gets four at seeded
/// sites, cycling through a gap ("---"), an unknown ("NNN") and two partly
/// ambiguous codons ("ANT", "A-G"), and the middle codon column is a gap in
/// every sequence.
inline seqio::Alignment withMissingCodons(const seqio::Alignment& aln,
                                          unsigned seed) {
  static constexpr const char* kMissing[] = {"---", "NNN", "ANT", "A-G"};
  const std::size_t numCodons = aln.length() / 3;
  std::mt19937 gen(seed);
  std::uniform_int_distribution<std::size_t> site(0, numCodons - 1);
  seqio::Alignment out;
  for (std::size_t s = 0; s < aln.numSequences(); ++s) {
    std::string data = aln.sequence(s).data;
    for (std::size_t j = 0; j < 4; ++j)
      data.replace(3 * site(gen), 3, kMissing[(s + j) % 4]);
    data.replace(3 * (numCodons / 2), 3, "---");
    out.addSequence(aln.sequence(s).name, std::move(data));
  }
  return out;
}

/// EXPECT_EQ on every work counter, each failure naming the counter.
inline void expectSameCounters(const lik::EvalCounters& got,
                               const lik::EvalCounters& want,
                               const std::string& label) {
  EXPECT_EQ(got.evaluations, want.evaluations) << label;
  EXPECT_EQ(got.eigenDecompositions, want.eigenDecompositions) << label;
  EXPECT_EQ(got.propagatorBuilds, want.propagatorBuilds) << label;
  EXPECT_EQ(got.patternPropagations, want.patternPropagations) << label;
  EXPECT_EQ(got.gradientSweeps, want.gradientSweeps) << label;
  EXPECT_EQ(got.propagatorCacheHits, want.propagatorCacheHits) << label;
  EXPECT_EQ(got.propagatorCacheMisses, want.propagatorCacheMisses) << label;
}

/// lnL and the analytic branch gradient of an evaluator at p (EXPECT_EQ on
/// the pair checks both bit for bit).
inline std::pair<double, std::vector<double>> lnLAndGradient(
    lik::BranchSiteLikelihood& eval, const model::BranchSiteParams& p) {
  std::vector<double> grad(eval.numBranches());
  const double lnL = eval.logLikelihoodGradientBranches(p, grad);
  return {lnL, grad};
}

}  // namespace slim::testutil
