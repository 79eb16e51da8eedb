#include <gtest/gtest.h>

#include <set>

#include "advisor/generalize.h"
#include "xmldata/xmark_gen.h"
#include "xpath/containment.h"
#include "xpath/parser.h"

namespace xia {
namespace {

PathPattern P(const std::string& text) {
  Result<PathPattern> p = ParsePathPattern(text);
  EXPECT_TRUE(p.ok()) << text;
  return std::move(*p);
}

// --------------------------------------------------------------- Unify.

TEST(UnifyTest, SingleDifferingStep) {
  std::optional<PathPattern> u =
      UnifyPatterns(P("/regions/namerica/item/quantity"),
                    P("/regions/africa/item/quantity"));
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->ToString(), "/regions/*/item/quantity");
}

TEST(UnifyTest, WildcardAbsorbsName) {
  // The paper's second step: a generalized pattern plus a third query.
  std::optional<PathPattern> u =
      UnifyPatterns(P("/regions/*/item/quantity"),
                    P("/regions/samerica/item/price"));
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->ToString(), "/regions/*/item/*");
}

TEST(UnifyTest, IdenticalPatternsYieldNothing) {
  EXPECT_FALSE(UnifyPatterns(P("/a/b"), P("/a/b")).has_value());
  EXPECT_FALSE(UnifyPatterns(P("/a/*"), P("/a/*")).has_value());
}

TEST(UnifyTest, DifferentLengthsNotUnifiable) {
  EXPECT_FALSE(UnifyPatterns(P("/a/b"), P("/a/b/c")).has_value());
}

TEST(UnifyTest, DifferentAxesNotUnifiable) {
  EXPECT_FALSE(UnifyPatterns(P("/a/b"), P("/a//b")).has_value());
}

TEST(UnifyTest, AttributeKindMustAgree) {
  EXPECT_FALSE(UnifyPatterns(P("/a/@x"), P("/a/y")).has_value());
  std::optional<PathPattern> u = UnifyPatterns(P("/a/@x"), P("/a/@y"));
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->ToString(), "/a/@*");
}

TEST(UnifyTest, ResultContainsBothInputs) {
  PathPattern a = P("/x/one/y/two");
  PathPattern b = P("/x/uno/y/dos");
  std::optional<PathPattern> u = UnifyPatterns(a, b);
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->ToString(), "/x/*/y/*");
  EXPECT_TRUE(PatternContains(*u, a));
  EXPECT_TRUE(PatternContains(*u, b));
}

// ----------------------------------------------------- GeneralizeCandidates.

class GeneralizeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    XMarkParams params;
    ASSERT_TRUE(PopulateXMark(&db_, "xmark", 4, params, 42).ok());
  }

  CandidateIndex Cand(const std::string& pattern, ValueType type,
                      int source_query) {
    CandidateIndex c;
    c.def.collection = "xmark";
    c.def.pattern = P(pattern);
    c.def.type = type;
    c.source_queries = {source_query};
    c.stats = EstimateVirtualIndex(*db_.synopsis("xmark"), c.def,
                                   StorageConstants());
    return c;
  }

  static std::set<std::string> Patterns(
      const std::vector<CandidateIndex>& candidates) {
    std::set<std::string> out;
    for (const CandidateIndex& c : candidates) {
      out.insert(c.def.pattern.ToString() + "|" +
                 ValueTypeName(c.def.type));
    }
    return out;
  }

  Database db_;
};

TEST_F(GeneralizeTest, ReproducesPaperExampleChain) {
  std::vector<CandidateIndex> basics = {
      Cand("/site/regions/namerica/item/quantity", ValueType::kDouble, 0),
      Cand("/site/regions/africa/item/quantity", ValueType::kDouble, 1),
      Cand("/site/regions/samerica/item/price", ValueType::kDouble, 2),
  };
  std::vector<CandidateIndex> expanded =
      GeneralizeCandidates(basics, db_, GeneralizeOptions());
  std::set<std::string> patterns = Patterns(expanded);
  EXPECT_TRUE(patterns.count("/site/regions/*/item/quantity|DOUBLE"));
  EXPECT_TRUE(patterns.count("/site/regions/*/item/*|DOUBLE"));
  // Basics are preserved, in order, at the front.
  EXPECT_EQ(expanded[0].def.pattern.ToString(),
            "/site/regions/namerica/item/quantity");
  EXPECT_GE(expanded.size(), 5u);
}

TEST_F(GeneralizeTest, GeneratedCandidatesInheritSources) {
  std::vector<CandidateIndex> basics = {
      Cand("/site/regions/namerica/item/quantity", ValueType::kDouble, 0),
      Cand("/site/regions/africa/item/quantity", ValueType::kDouble, 1),
  };
  std::vector<CandidateIndex> expanded =
      GeneralizeCandidates(basics, db_, GeneralizeOptions());
  bool found = false;
  for (const CandidateIndex& c : expanded) {
    if (c.def.pattern.ToString() == "/site/regions/*/item/quantity") {
      found = true;
      EXPECT_TRUE(c.from_generalization);
      EXPECT_EQ(c.source_queries, (std::vector<int>{0, 1}));
      EXPECT_GT(c.stats.entries, 0.0);
      // The generalized index is larger than either parent.
      EXPECT_GT(c.stats.size_bytes, basics[0].stats.size_bytes);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(GeneralizeTest, TypesNeverMix) {
  std::vector<CandidateIndex> basics = {
      Cand("/site/regions/namerica/item/quantity", ValueType::kDouble, 0),
      Cand("/site/regions/africa/item/quantity", ValueType::kVarchar, 1),
  };
  std::vector<CandidateIndex> expanded =
      GeneralizeCandidates(basics, db_, GeneralizeOptions());
  // No unification across types: nothing generated.
  EXPECT_EQ(expanded.size(), 2u);
}

TEST_F(GeneralizeTest, CollectionsNeverMix) {
  ASSERT_TRUE(db_.CreateCollection("other").ok());
  ASSERT_TRUE(db_.LoadXml("other", "<site/>").ok());
  ASSERT_TRUE(db_.Analyze("other").ok());
  std::vector<CandidateIndex> basics = {
      Cand("/site/regions/namerica/item/quantity", ValueType::kDouble, 0),
  };
  CandidateIndex foreign =
      Cand("/site/regions/africa/item/quantity", ValueType::kDouble, 1);
  foreign.def.collection = "other";
  foreign.stats = EstimateVirtualIndex(*db_.synopsis("other"), foreign.def,
                                       StorageConstants());
  basics.push_back(foreign);
  std::vector<CandidateIndex> expanded =
      GeneralizeCandidates(basics, db_, GeneralizeOptions());
  EXPECT_EQ(expanded.size(), 2u);
}

TEST_F(GeneralizeTest, GenerationCapRespected) {
  // Many pairwise-unifiable patterns explode combinatorially; the cap
  // bounds the expansion.
  std::vector<CandidateIndex> basics;
  const std::string parts[] = {"a", "b", "c", "d", "e", "f"};
  int qi = 0;
  for (const std::string& x : parts) {
    for (const std::string& y : parts) {
      basics.push_back(
          Cand("/root/" + x + "/mid/" + y, ValueType::kVarchar, qi++));
    }
  }
  GeneralizeOptions options;
  options.max_generated = 10;
  std::vector<CandidateIndex> expanded =
      GeneralizeCandidates(basics, db_, options);
  EXPECT_LE(expanded.size(), basics.size() + 10);
}

TEST_F(GeneralizeTest, FixpointReachedWithinRounds) {
  std::vector<CandidateIndex> basics = {
      Cand("/site/regions/namerica/item/quantity", ValueType::kDouble, 0),
      Cand("/site/regions/africa/item/quantity", ValueType::kDouble, 1),
      Cand("/site/regions/samerica/item/price", ValueType::kDouble, 2),
      Cand("/site/regions/europe/item/payment", ValueType::kDouble, 3),
  };
  GeneralizeOptions many;
  many.max_rounds = 10;
  GeneralizeOptions few;
  few.max_rounds = 3;
  EXPECT_EQ(Patterns(GeneralizeCandidates(basics, db_, many)),
            Patterns(GeneralizeCandidates(basics, db_, few)));
}

TEST_F(GeneralizeTest, DisabledGeneralizationIsIdentity) {
  std::vector<CandidateIndex> basics = {
      Cand("/site/regions/namerica/item/quantity", ValueType::kDouble, 0),
      Cand("/site/regions/africa/item/quantity", ValueType::kDouble, 1),
  };
  GeneralizeOptions zero;
  zero.max_rounds = 0;
  EXPECT_EQ(GeneralizeCandidates(basics, db_, zero).size(), 2u);
}

}  // namespace
}  // namespace xia
