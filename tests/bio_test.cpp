// Tests for the nucleotide alphabet and the genetic code machinery the
// 61x61 codon matrices are built on.

#include <gtest/gtest.h>

#include "bio/genetic_code.hpp"
#include "bio/nucleotide.hpp"

namespace slim::bio {
namespace {

// ---------- nucleotides ----------

TEST(Nucleotide, CharRoundTrip) {
  for (int i = 0; i < 4; ++i) {
    const auto n = static_cast<Nucleotide>(i);
    const auto parsed = nucleotideFromChar(nucleotideChar(n));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, n);
  }
}

TEST(Nucleotide, ParsingAcceptsCaseAndU) {
  EXPECT_EQ(nucleotideFromChar('t'), Nucleotide::T);
  EXPECT_EQ(nucleotideFromChar('U'), Nucleotide::T);
  EXPECT_EQ(nucleotideFromChar('u'), Nucleotide::T);
  EXPECT_EQ(nucleotideFromChar('g'), Nucleotide::G);
  EXPECT_FALSE(nucleotideFromChar('N').has_value());
  EXPECT_FALSE(nucleotideFromChar('-').has_value());
  EXPECT_FALSE(nucleotideFromChar('X').has_value());
}

TEST(Nucleotide, PurinePyrimidine) {
  EXPECT_TRUE(isPurine(Nucleotide::A));
  EXPECT_TRUE(isPurine(Nucleotide::G));
  EXPECT_TRUE(isPyrimidine(Nucleotide::T));
  EXPECT_TRUE(isPyrimidine(Nucleotide::C));
  EXPECT_FALSE(isPurine(Nucleotide::C));
  EXPECT_FALSE(isPyrimidine(Nucleotide::G));
}

TEST(Nucleotide, TransitionClassification) {
  // Transitions: A<->G, C<->T.
  EXPECT_TRUE(isTransition(Nucleotide::A, Nucleotide::G));
  EXPECT_TRUE(isTransition(Nucleotide::G, Nucleotide::A));
  EXPECT_TRUE(isTransition(Nucleotide::C, Nucleotide::T));
  // Transversions.
  EXPECT_FALSE(isTransition(Nucleotide::A, Nucleotide::T));
  EXPECT_FALSE(isTransition(Nucleotide::A, Nucleotide::C));
  EXPECT_FALSE(isTransition(Nucleotide::G, Nucleotide::T));
  // Identity is not a transition.
  EXPECT_FALSE(isTransition(Nucleotide::A, Nucleotide::A));
}

// ---------- codon arithmetic ----------

TEST(Codon, IndexingMatchesPamlConvention) {
  // TTT = 0, TTC = 1, ..., GGG = 63 with T=0,C=1,A=2,G=3.
  EXPECT_EQ(codonIndex(Nucleotide::T, Nucleotide::T, Nucleotide::T), 0);
  EXPECT_EQ(codonIndex(Nucleotide::G, Nucleotide::G, Nucleotide::G), 63);
  EXPECT_EQ(codonIndex(Nucleotide::T, Nucleotide::A, Nucleotide::A), 10);
  EXPECT_EQ(codonString(10), "TAA");
  EXPECT_EQ(codonString(14), "TGA");
  EXPECT_EQ(codonString(63), "GGG");
}

TEST(Codon, StringRoundTrip) {
  for (int c = 0; c < kNumCodons; ++c) {
    const auto parsed = codonFromString(codonString(c));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, c);
  }
}

TEST(Codon, ParsingRejectsAmbiguityAndGaps) {
  EXPECT_FALSE(codonFromString("AN-").has_value());
  EXPECT_FALSE(codonFromString("---").has_value());
  EXPECT_FALSE(codonFromString("AT").has_value());
  EXPECT_FALSE(codonFromString("ATGA").has_value());
  EXPECT_TRUE(codonFromString("aug").has_value());  // RNA lower-case
}

TEST(Codon, BaseExtraction) {
  const int atg = *codonFromString("ATG");
  EXPECT_EQ(codonBase(atg, 0), Nucleotide::A);
  EXPECT_EQ(codonBase(atg, 1), Nucleotide::T);
  EXPECT_EQ(codonBase(atg, 2), Nucleotide::G);
}

// ---------- universal genetic code ----------

TEST(GeneticCode, UniversalHas61SenseCodons) {
  const auto& gc = GeneticCode::universal();
  EXPECT_EQ(gc.numSense(), 61);
  int stops = 0;
  for (int c = 0; c < kNumCodons; ++c) stops += gc.isStop(c);
  EXPECT_EQ(stops, 3);
}

TEST(GeneticCode, UniversalStopCodons) {
  const auto& gc = GeneticCode::universal();
  EXPECT_TRUE(gc.isStop(*codonFromString("TAA")));
  EXPECT_TRUE(gc.isStop(*codonFromString("TAG")));
  EXPECT_TRUE(gc.isStop(*codonFromString("TGA")));
  EXPECT_FALSE(gc.isStop(*codonFromString("TGG")));
}

TEST(GeneticCode, KnownTranslations) {
  const auto& gc = GeneticCode::universal();
  EXPECT_EQ(gc.aminoAcid(*codonFromString("ATG")), 'M');
  EXPECT_EQ(gc.aminoAcid(*codonFromString("TGG")), 'W');
  EXPECT_EQ(gc.aminoAcid(*codonFromString("TTT")), 'F');
  EXPECT_EQ(gc.aminoAcid(*codonFromString("AAA")), 'K');
  EXPECT_EQ(gc.aminoAcid(*codonFromString("GGG")), 'G');
  EXPECT_EQ(gc.aminoAcid(*codonFromString("TCT")), 'S');
  EXPECT_EQ(gc.aminoAcid(*codonFromString("CGA")), 'R');
  EXPECT_EQ(gc.aminoAcid(*codonFromString("GAT")), 'D');
}

TEST(GeneticCode, SenseIndexRoundTrip) {
  const auto& gc = GeneticCode::universal();
  for (int s = 0; s < gc.numSense(); ++s)
    EXPECT_EQ(gc.senseIndex(gc.codonOfSense(s)), s);
  EXPECT_EQ(gc.senseIndex(*codonFromString("TAA")), -1);
}

TEST(GeneticCode, SenseIndicesAreDenseAndOrdered) {
  const auto& gc = GeneticCode::universal();
  int prev = -1;
  for (int c = 0; c < kNumCodons; ++c) {
    if (gc.isStop(c)) continue;
    EXPECT_EQ(gc.senseIndex(c), prev + 1);
    prev = gc.senseIndex(c);
  }
  EXPECT_EQ(prev, 60);
}

TEST(GeneticCode, Synonymy) {
  const auto& gc = GeneticCode::universal();
  EXPECT_TRUE(gc.synonymous(*codonFromString("TTT"), *codonFromString("TTC")));
  EXPECT_TRUE(gc.synonymous(*codonFromString("CGA"), *codonFromString("AGA")));
  EXPECT_FALSE(gc.synonymous(*codonFromString("ATG"), *codonFromString("ATA")));
  EXPECT_THROW(gc.synonymous(*codonFromString("TAA"), *codonFromString("TTT")),
               std::invalid_argument);
}

TEST(GeneticCode, VertebrateMitochondrialDiffers) {
  const auto& mito = GeneticCode::vertebrateMitochondrial();
  EXPECT_EQ(mito.numSense(), 60);
  EXPECT_EQ(mito.aminoAcid(*codonFromString("TGA")), 'W');
  EXPECT_EQ(mito.aminoAcid(*codonFromString("ATA")), 'M');
  EXPECT_TRUE(mito.isStop(*codonFromString("AGA")));
  EXPECT_TRUE(mito.isStop(*codonFromString("AGG")));
}

TEST(GeneticCode, YeastMitochondrial) {
  const auto& yeast = GeneticCode::yeastMitochondrial();
  EXPECT_EQ(yeast.numSense(), 62);
  EXPECT_EQ(yeast.aminoAcid(*codonFromString("TGA")), 'W');
  EXPECT_EQ(yeast.aminoAcid(*codonFromString("CTA")), 'T');  // CTN = Thr
  EXPECT_EQ(yeast.aminoAcid(*codonFromString("CTG")), 'T');
  EXPECT_EQ(yeast.aminoAcid(*codonFromString("ATA")), 'M');
}

TEST(GeneticCode, InvertebrateMitochondrial) {
  const auto& inv = GeneticCode::invertebrateMitochondrial();
  EXPECT_EQ(inv.numSense(), 62);
  EXPECT_EQ(inv.aminoAcid(*codonFromString("AGA")), 'S');
  EXPECT_EQ(inv.aminoAcid(*codonFromString("AGG")), 'S');
  EXPECT_EQ(inv.aminoAcid(*codonFromString("TGA")), 'W');
}

TEST(GeneticCode, AllBuiltInCodesHaveTwoOrThreeStops) {
  for (const auto* code :
       {&GeneticCode::universal(), &GeneticCode::vertebrateMitochondrial(),
        &GeneticCode::yeastMitochondrial(),
        &GeneticCode::invertebrateMitochondrial()}) {
    const int stops = kNumCodons - code->numSense();
    EXPECT_GE(stops, 2) << code->name();
    EXPECT_LE(stops, 4) << code->name();
    // ATG is Met and TTT is Phe in every built-in code.
    EXPECT_EQ(code->aminoAcid(*codonFromString("ATG")), 'M') << code->name();
    EXPECT_EQ(code->aminoAcid(*codonFromString("TTT")), 'F') << code->name();
  }
}

TEST(GeneticCode, CustomTableValidation) {
  EXPECT_THROW(GeneticCode("bad", "FF"), std::invalid_argument);
  std::string allStops(64, '*');
  EXPECT_THROW(GeneticCode("bad", allStops), std::invalid_argument);
}

// ---------- codon pair classification (Eq. 1 structure) ----------

TEST(CodonPair, MultipleDifferencesAreRate0) {
  const auto& gc = GeneticCode::universal();
  const auto c = classifyCodonPair(gc, *codonFromString("TTT"),
                                   *codonFromString("AAT"));
  EXPECT_EQ(c.ndiff, 2);
  EXPECT_EQ(c.pos, -1);
}

TEST(CodonPair, SynonymousTransition) {
  const auto& gc = GeneticCode::universal();
  // TTT (F) -> TTC (F): third position T->C, pyrimidine-pyrimidine.
  const auto c = classifyCodonPair(gc, *codonFromString("TTT"),
                                   *codonFromString("TTC"));
  EXPECT_EQ(c.ndiff, 1);
  EXPECT_EQ(c.pos, 2);
  EXPECT_TRUE(c.transition);
  EXPECT_TRUE(c.synonymous);
}

TEST(CodonPair, NonSynonymousTransversion) {
  const auto& gc = GeneticCode::universal();
  // TTT (F) -> TTA (L): third position T->A, transversion, non-synonymous.
  const auto c = classifyCodonPair(gc, *codonFromString("TTT"),
                                   *codonFromString("TTA"));
  EXPECT_EQ(c.ndiff, 1);
  EXPECT_FALSE(c.transition);
  EXPECT_FALSE(c.synonymous);
}

TEST(CodonPair, NonSynonymousTransition) {
  const auto& gc = GeneticCode::universal();
  // ATG (M) -> ATA (I): G->A transition, non-synonymous.
  const auto c = classifyCodonPair(gc, *codonFromString("ATG"),
                                   *codonFromString("ATA"));
  EXPECT_EQ(c.ndiff, 1);
  EXPECT_TRUE(c.transition);
  EXPECT_FALSE(c.synonymous);
}

TEST(CodonPair, IdenticalCodons) {
  const auto& gc = GeneticCode::universal();
  const int atg = *codonFromString("ATG");
  EXPECT_EQ(classifyCodonPair(gc, atg, atg).ndiff, 0);
}

TEST(CodonPair, SymmetricInArguments) {
  const auto& gc = GeneticCode::universal();
  for (int s1 : {0, 10, 30, 60}) {
    for (int s2 : {1, 15, 45, 59}) {
      const int c1 = gc.codonOfSense(s1), c2 = gc.codonOfSense(s2);
      const auto f = classifyCodonPair(gc, c1, c2);
      const auto b = classifyCodonPair(gc, c2, c1);
      EXPECT_EQ(f.ndiff, b.ndiff);
      EXPECT_EQ(f.transition, b.transition);
      EXPECT_EQ(f.synonymous, b.synonymous);
    }
  }
}

// The per-code pair list is exactly the single-position pairs that
// classifyCodonPair finds, in (i, j) order, with the same flags.
TEST(CodonPair, SingleChangePairsMatchClassification) {
  for (const GeneticCode* gc :
       {&GeneticCode::universal(), &GeneticCode::vertebrateMitochondrial(),
        &GeneticCode::yeastMitochondrial(),
        &GeneticCode::invertebrateMitochondrial()}) {
    std::vector<SingleChangePair> want;
    for (int i = 0; i < gc->numSense(); ++i)
      for (int j = i + 1; j < gc->numSense(); ++j) {
        const auto c =
            classifyCodonPair(*gc, gc->codonOfSense(i), gc->codonOfSense(j));
        if (c.ndiff == 1) want.push_back({i, j, c.transition, c.synonymous});
      }
    const auto& got = gc->singleChangePairs();
    ASSERT_EQ(got.size(), want.size()) << gc->name();
    for (std::size_t p = 0; p < want.size(); ++p) {
      EXPECT_EQ(got[p].i, want[p].i) << gc->name();
      EXPECT_EQ(got[p].j, want[p].j) << gc->name();
      EXPECT_EQ(got[p].transition, want[p].transition) << gc->name();
      EXPECT_EQ(got[p].synonymous, want[p].synonymous) << gc->name();
    }
  }
}

}  // namespace
}  // namespace slim::bio
