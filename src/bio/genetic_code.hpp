#pragma once
// Genetic codes and codon arithmetic.
//
// Codons are indexed 0..63 as 16*b1 + 4*b2 + b3 with T=0,C=1,A=2,G=3 (PAML
// convention).  A GeneticCode maps the 64 codons to amino acids, identifies
// stop codons, and provides the dense "sense index" 0..S-1 over non-stop
// codons (S = 61 for the universal code) used by the 61x61 substitution
// matrices of the paper.

#include <array>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bio/nucleotide.hpp"

namespace slim::bio {

/// Number of codons over {T,C,A,G}^3.
inline constexpr int kNumCodons = 64;

/// Codon index from three nucleotides (0..63).
constexpr int codonIndex(Nucleotide b1, Nucleotide b2, Nucleotide b3) noexcept {
  return 16 * static_cast<int>(b1) + 4 * static_cast<int>(b2) +
         static_cast<int>(b3);
}

/// Nucleotide at position pos (0,1,2) of codon c (0..63).
constexpr Nucleotide codonBase(int c, int pos) noexcept {
  const int shift[3] = {16, 4, 1};
  return static_cast<Nucleotide>((c / shift[pos]) % 4);
}

/// Three-letter string, e.g. 14 -> "TGA".
std::string codonString(int codon);

/// Parse a 3-character codon; nullopt if any character is not T/C/A/G/U.
std::optional<int> codonFromString(std::string_view s) noexcept;

/// A pair of sense codons (dense indices i < j) that differ at exactly one
/// codon position — the only pairs with a nonzero rate in Eq. 1.
struct SingleChangePair {
  int i = 0;
  int j = 0;
  bool transition = false;  ///< The nucleotide change is a transition.
  bool synonymous = false;  ///< Both codons code for the same amino acid.
};

/// A translation table over the 64 codons.
class GeneticCode {
 public:
  /// Build from a 64-character amino-acid string in T,C,A,G codon order
  /// ('*' marks stop codons), e.g. NCBI translation tables.
  GeneticCode(std::string name, std::string_view table64);

  /// NCBI table 1 (standard/universal code): 61 sense codons,
  /// stops TAA, TAG, TGA.  This is the code the paper's 61x61 matrices use.
  static const GeneticCode& universal();

  /// NCBI table 2 (vertebrate mitochondrial): 60 sense codons.  Included to
  /// keep the library generic and to exercise non-61 dimensions in tests.
  static const GeneticCode& vertebrateMitochondrial();

  /// NCBI table 3 (yeast mitochondrial): 62 sense codons, CTN codes Thr.
  static const GeneticCode& yeastMitochondrial();

  /// NCBI table 5 (invertebrate mitochondrial): 62 sense codons, AGR = Ser.
  static const GeneticCode& invertebrateMitochondrial();

  const std::string& name() const noexcept { return name_; }

  /// Number of sense (non-stop) codons; matrix dimension n of the paper.
  int numSense() const noexcept { return numSense_; }

  bool isStop(int codon) const { return aminoAcid(codon) == '*'; }

  /// One-letter amino acid for a codon ('*' for stop).
  char aminoAcid(int codon) const;

  /// Dense index 0..numSense()-1 of a sense codon; -1 for stop codons.
  int senseIndex(int codon) const;

  /// Inverse of senseIndex: the 0..63 codon for a dense sense index.
  int codonOfSense(int sense) const;

  /// True if the two (64-index) codons code for the same amino acid.
  /// Both must be sense codons.
  bool synonymous(int c1, int c2) const;

  /// Every sense-codon pair differing at one position, in (i, j) order,
  /// classified once at construction.
  const std::vector<SingleChangePair>& singleChangePairs() const noexcept {
    return singleChangePairs_;
  }

 private:
  std::string name_;
  std::array<char, kNumCodons> aa_{};
  std::array<int, kNumCodons> senseIndex_{};
  std::array<int, kNumCodons> codonOfSense_{};  // first numSense_ entries valid
  int numSense_ = 0;
  std::vector<SingleChangePair> singleChangePairs_;
};

/// Classification of an (ordered) pair of sense codons for Eq. 1 of the
/// paper: how many positions differ, and for single-position differences
/// whether the nucleotide change is a transition and whether the codon
/// change is synonymous.
struct CodonPairClass {
  int ndiff = 0;            ///< Number of differing codon positions (0..3).
  int pos = -1;             ///< The differing position when ndiff == 1.
  bool transition = false;  ///< Valid when ndiff == 1.
  bool synonymous = false;  ///< Valid when ndiff == 1.
};

/// Classify a pair of codons (64-indices; both must be sense codons of gc).
CodonPairClass classifyCodonPair(const GeneticCode& gc, int c1, int c2);

}  // namespace slim::bio
