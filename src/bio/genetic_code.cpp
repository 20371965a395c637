#include "bio/genetic_code.hpp"

#include "support/require.hpp"

namespace slim::bio {

std::string codonString(int codon) {
  SLIM_REQUIRE(codon >= 0 && codon < kNumCodons, "codon index out of range");
  std::string s(3, '?');
  for (int p = 0; p < 3; ++p) s[p] = nucleotideChar(codonBase(codon, p));
  return s;
}

std::optional<int> codonFromString(std::string_view s) noexcept {
  if (s.size() != 3) return std::nullopt;
  int idx = 0;
  for (int p = 0; p < 3; ++p) {
    const auto n = nucleotideFromChar(s[p]);
    if (!n) return std::nullopt;
    idx = idx * 4 + static_cast<int>(*n);
  }
  return idx;
}

GeneticCode::GeneticCode(std::string name, std::string_view table64)
    : name_(std::move(name)) {
  SLIM_REQUIRE(table64.size() == kNumCodons,
               "genetic code table must have 64 characters");
  for (int c = 0; c < kNumCodons; ++c) {
    aa_[c] = table64[c];
    if (aa_[c] != '*') {
      senseIndex_[c] = numSense_;
      codonOfSense_[numSense_] = c;
      ++numSense_;
    } else {
      senseIndex_[c] = -1;
    }
  }
  SLIM_REQUIRE(numSense_ > 1, "genetic code must have at least 2 sense codons");
  for (int i = 0; i < numSense_; ++i)
    for (int j = i + 1; j < numSense_; ++j) {
      const auto cls =
          classifyCodonPair(*this, codonOfSense_[i], codonOfSense_[j]);
      if (cls.ndiff == 1)
        singleChangePairs_.push_back({i, j, cls.transition, cls.synonymous});
    }
}

const GeneticCode& GeneticCode::universal() {
  // NCBI translation table 1, codons in T,C,A,G order (TTT, TTC, TTA, ...).
  static const GeneticCode code(
      "universal",
      "FFLLSSSSYY**CC*WLLLLPPPPHHQQRRRRIIIMTTTTNNKKSSRRVVVVAAAADDEEGGGG");
  return code;
}

const GeneticCode& GeneticCode::vertebrateMitochondrial() {
  // NCBI translation table 2: TGA=W, ATA=M, AGA/AGG=stop.
  static const GeneticCode code(
      "vertebrate-mitochondrial",
      "FFLLSSSSYY**CCWWLLLLPPPPHHQQRRRRIIMMTTTTNNKKSS**VVVVAAAADDEEGGGG");
  return code;
}

const GeneticCode& GeneticCode::yeastMitochondrial() {
  // NCBI translation table 3: TGA=W, ATA=M, CTN=Thr.
  static const GeneticCode code(
      "yeast-mitochondrial",
      "FFLLSSSSYY**CCWWTTTTPPPPHHQQRRRRIIMMTTTTNNKKSSRRVVVVAAAADDEEGGGG");
  return code;
}

const GeneticCode& GeneticCode::invertebrateMitochondrial() {
  // NCBI translation table 5: TGA=W, ATA=M, AGA/AGG=Ser.
  static const GeneticCode code(
      "invertebrate-mitochondrial",
      "FFLLSSSSYY**CCWWLLLLPPPPHHQQRRRRIIMMTTTTNNKKSSSSVVVVAAAADDEEGGGG");
  return code;
}

char GeneticCode::aminoAcid(int codon) const {
  SLIM_REQUIRE(codon >= 0 && codon < kNumCodons, "codon index out of range");
  return aa_[codon];
}

int GeneticCode::senseIndex(int codon) const {
  SLIM_REQUIRE(codon >= 0 && codon < kNumCodons, "codon index out of range");
  return senseIndex_[codon];
}

int GeneticCode::codonOfSense(int sense) const {
  SLIM_REQUIRE(sense >= 0 && sense < numSense_, "sense index out of range");
  return codonOfSense_[sense];
}

bool GeneticCode::synonymous(int c1, int c2) const {
  SLIM_REQUIRE(!isStop(c1) && !isStop(c2),
               "synonymous(): both codons must be sense codons");
  return aminoAcid(c1) == aminoAcid(c2);
}

CodonPairClass classifyCodonPair(const GeneticCode& gc, int c1, int c2) {
  SLIM_REQUIRE(!gc.isStop(c1) && !gc.isStop(c2),
               "classifyCodonPair: both codons must be sense codons");
  CodonPairClass r;
  for (int p = 0; p < 3; ++p) {
    if (codonBase(c1, p) != codonBase(c2, p)) {
      ++r.ndiff;
      r.pos = p;
    }
  }
  if (r.ndiff == 1) {
    r.transition = isTransition(codonBase(c1, r.pos), codonBase(c2, r.pos));
    r.synonymous = gc.synonymous(c1, c2);
  } else {
    r.pos = -1;
  }
  return r;
}

}  // namespace slim::bio
