#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "optimizer/explain.h"
#include "query/parser.h"
#include "workload/tpox_queries.h"
#include "workload/xmark_queries.h"
#include "xmldata/tpox_gen.h"
#include "xmldata/xmark_gen.h"
#include "xpath/parser.h"

namespace xia {
namespace {

PathPattern P(const std::string& text) {
  Result<PathPattern> p = ParsePathPattern(text);
  EXPECT_TRUE(p.ok()) << text;
  return std::move(*p);
}

class ExplainModesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    XMarkParams params;
    ASSERT_TRUE(PopulateXMark(&db_, "xmark", 8, params, 42).ok());
  }

  Query Parse(const std::string& text) {
    Result<Query> q = ParseQuery(text);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return std::move(*q);
  }

  static const CandidatePattern* Find(const EnumerateIndexesResult& result,
                                      const std::string& pattern,
                                      ValueType type) {
    for (const CandidatePattern& c : result.candidates) {
      if (c.pattern.ToString() == pattern && c.type == type) return &c;
    }
    return nullptr;
  }

  IndexDefinition Def(const std::string& pattern, ValueType type) {
    IndexDefinition def;
    def.collection = "xmark";
    def.pattern = P(pattern);
    def.type = type;
    return def;
  }

  Database db_;
  ContainmentCache cache_;
  CostModel cost_model_;
};

// ---------------------------------------------------- Enumerate Indexes.

TEST_F(ExplainModesTest, EnumeratesPredicateAndForPathCandidates) {
  Result<EnumerateIndexesResult> result = EnumerateIndexesMode(
      db_,
      Parse("for $i in doc(\"xmark\")/site/regions/africa/item "
            "where $i/quantity > 5 return $i/name"),
      &cache_);
  ASSERT_TRUE(result.ok());
  // The numeric predicate yields a sargable DOUBLE candidate.
  const CandidatePattern* quantity =
      Find(*result, "/site/regions/africa/item/quantity",
           ValueType::kDouble);
  ASSERT_NE(quantity, nullptr);
  EXPECT_TRUE(quantity->sargable);
  // The FOR path yields a structural VARCHAR candidate.
  const CandidatePattern* for_path =
      Find(*result, "/site/regions/africa/item", ValueType::kVarchar);
  ASSERT_NE(for_path, nullptr);
  EXPECT_FALSE(for_path->sargable);
  // The RETURN path never yields a candidate (indexes cannot help it).
  for (const CandidatePattern& c : result->candidates) {
    EXPECT_EQ(c.pattern.ToString().find("/name"), std::string::npos);
  }
}

// Figure 2 over whole workloads, XQuery and SQL/XML alike: every query
// enumerates a sargable candidate of the implied key type for each value
// predicate, and its FOR path as a structural VARCHAR candidate; nothing
// else (RETURN-only paths never become candidates). Prints every
// query's candidates.
class EnumerateWorkloadTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EnumerateWorkloadTest, EveryQueryEnumeratesPredicateAndForPaths) {
  Database db;
  Workload workload;
  if (GetParam() == "xmark") {
    XMarkParams params;
    ASSERT_TRUE(PopulateXMark(&db, "xmark", 10, params, 42).ok());
    workload = MakeXMarkWorkload("xmark");
  } else {
    TpoxParams params;
    ASSERT_TRUE(PopulateTpox(&db, 40, 80, 20, params, 11).ok());
    workload = MakeTpoxWorkload();
  }
  ContainmentCache cache;
  size_t total = 0;
  for (const Query& query : workload.queries()) {
    Result<EnumerateIndexesResult> result =
        EnumerateIndexesMode(db, query, &cache);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::printf("[%s %s] %s\n", query.id.c_str(),
                QueryLanguageName(query.language), query.text.c_str());
    const NormalizedQuery& nq = query.normalized;
    auto find = [&](const PathPattern& pattern, ValueType type) {
      for (const CandidatePattern& c : result->candidates) {
        if (c.pattern == pattern && c.type == type) return &c;
      }
      return static_cast<const CandidatePattern*>(nullptr);
    };
    for (const QueryPredicate& pred : nq.predicates) {
      if (pred.op == CompareOp::kExists) continue;
      const CandidatePattern* c = find(pred.pattern, pred.ImpliedType());
      ASSERT_NE(c, nullptr) << query.id << " " << pred.ToString();
      EXPECT_TRUE(c->sargable) << query.id << " " << pred.ToString();
    }
    const CandidatePattern* for_path = find(nq.for_path, ValueType::kVarchar);
    ASSERT_NE(for_path, nullptr) << query.id;
    EXPECT_FALSE(for_path->sargable) << query.id;
    for (const CandidatePattern& c : result->candidates) {
      bool from_query = c.pattern == nq.for_path;
      for (const QueryPredicate& pred : nq.predicates) {
        from_query = from_query || c.pattern == pred.pattern;
      }
      EXPECT_TRUE(from_query) << query.id << " " << c.ToString();
      std::printf("    candidate: %s\n", c.ToString().c_str());
    }
    total += result->candidates.size();
  }
  std::printf("(%zu queries, %zu candidate patterns)\n", workload.size(),
              total);
}

INSTANTIATE_TEST_SUITE_P(Figure2, EnumerateWorkloadTest,
                         ::testing::Values("xmark", "tpox"));

TEST_F(ExplainModesTest, StringPredicateYieldsVarcharCandidate) {
  Result<EnumerateIndexesResult> result = EnumerateIndexesMode(
      db_,
      Parse("for $i in doc(\"xmark\")/site/regions/europe/item "
            "where $i/payment = \"Creditcard\" return $i"),
      &cache_);
  ASSERT_TRUE(result.ok());
  const CandidatePattern* payment = Find(
      *result, "/site/regions/europe/item/payment", ValueType::kVarchar);
  ASSERT_NE(payment, nullptr);
  EXPECT_TRUE(payment->sargable);
}

TEST_F(ExplainModesTest, AttributePredicateEnumerated) {
  Result<EnumerateIndexesResult> result = EnumerateIndexesMode(
      db_,
      Parse("for $p in doc(\"xmark\")/site/people/person "
            "where $p/profile/@income >= 50000 return $p"),
      &cache_);
  ASSERT_TRUE(result.ok());
  const CandidatePattern* income =
      Find(*result, "/site/people/person/profile/@income",
           ValueType::kDouble);
  ASSERT_NE(income, nullptr);
  EXPECT_TRUE(income->sargable);
}

TEST_F(ExplainModesTest, SqlXmlQueriesEnumerateToo) {
  Result<EnumerateIndexesResult> result = EnumerateIndexesMode(
      db_,
      Parse("select * from xmark where "
            "xmlexists('$d/site/people/person[address/country = "
            "\"Germany\"]')"),
      &cache_);
  ASSERT_TRUE(result.ok());
  EXPECT_NE(Find(*result, "/site/people/person/address/country",
                 ValueType::kVarchar),
            nullptr);
}

TEST_F(ExplainModesTest, UnanalyzedCollectionFails) {
  ASSERT_TRUE(db_.CreateCollection("raw").ok());
  Result<EnumerateIndexesResult> result = EnumerateIndexesMode(
      db_, Parse("for $x in doc(\"raw\")/a return $x"), &cache_);
  EXPECT_FALSE(result.ok());
}

TEST_F(ExplainModesTest, EnumerateOutputReadable) {
  Result<EnumerateIndexesResult> result = EnumerateIndexesMode(
      db_,
      Parse("for $i in doc(\"xmark\")/site/regions/africa/item "
            "where $i/quantity > 5 return $i"),
      &cache_);
  ASSERT_TRUE(result.ok());
  std::string text = result->ToString();
  EXPECT_NE(text.find("quantity"), std::string::npos);
  EXPECT_NE(text.find("sargable"), std::string::npos);
}

// ----------------------------------------------------- Evaluate Indexes.

TEST_F(ExplainModesTest, EvaluateReportsCostReduction) {
  std::vector<Query> queries = {
      Parse("for $i in doc(\"xmark\")/site/regions/africa/item "
            "where $i/quantity > 5 return $i/name")};
  Catalog base;
  Optimizer optimizer(&db_, cost_model_);

  Result<EvaluateIndexesResult> empty =
      EvaluateIndexesMode(optimizer, queries, {}, base, &cache_);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->index_use_counts.empty());

  std::vector<IndexDefinition> config = {
      Def("/site/regions/africa/item/quantity", ValueType::kDouble)};
  Result<EvaluateIndexesResult> with =
      EvaluateIndexesMode(optimizer, queries, config, base, &cache_);
  ASSERT_TRUE(with.ok());
  EXPECT_LT(with->total_weighted_cost, empty->total_weighted_cost);
  EXPECT_EQ(with->index_use_counts.size(), 1u);
  ASSERT_TRUE(with->plans[0].access.use_index);
  EXPECT_TRUE(with->plans[0].access.index_is_virtual);
}

TEST_F(ExplainModesTest, EvaluateRespectsWeights) {
  Query q = Parse(
      "for $i in doc(\"xmark\")/site/regions/africa/item "
      "where $i/quantity > 5 return $i");
  q.weight = 10.0;
  Catalog base;
  Optimizer optimizer(&db_, cost_model_);
  Result<EvaluateIndexesResult> heavy =
      EvaluateIndexesMode(optimizer, {q}, {}, base, &cache_);
  q.weight = 1.0;
  Result<EvaluateIndexesResult> light =
      EvaluateIndexesMode(optimizer, {q}, {}, base, &cache_);
  ASSERT_TRUE(heavy.ok());
  ASSERT_TRUE(light.ok());
  EXPECT_NEAR(heavy->total_weighted_cost / light->total_weighted_cost, 10.0,
              1e-6);
}

TEST_F(ExplainModesTest, OverlayDoesNotLeakIntoBaseCatalog) {
  Catalog base;
  Optimizer optimizer(&db_, cost_model_);
  std::vector<Query> queries = {
      Parse("for $i in doc(\"xmark\")/site/regions/africa/item "
            "where $i/quantity > 5 return $i")};
  std::vector<IndexDefinition> config = {
      Def("/site/regions/africa/item/quantity", ValueType::kDouble)};
  ASSERT_TRUE(
      EvaluateIndexesMode(optimizer, queries, config, base, &cache_).ok());
  EXPECT_EQ(base.size(), 0u);
}

TEST_F(ExplainModesTest, MakeVirtualOverlayNamesAndSizes) {
  Catalog base;
  std::vector<IndexDefinition> config = {
      Def("/site/regions/africa/item/quantity", ValueType::kDouble),
      Def("/site/regions/africa/item/quantity", ValueType::kVarchar)};
  Result<Catalog> overlay =
      MakeVirtualOverlay(db_, base, config, StorageConstants());
  ASSERT_TRUE(overlay.ok());
  EXPECT_EQ(overlay->size(), 2u);
  for (const CatalogEntry* entry : overlay->AllIndexes()) {
    EXPECT_TRUE(entry->is_virtual);
    EXPECT_GT(entry->stats.entries, 0.0);
    EXPECT_GT(entry->stats.size_bytes, 0.0);
  }
}

TEST_F(ExplainModesTest, EvaluateOutputListsUsage) {
  Catalog base;
  Optimizer optimizer(&db_, cost_model_);
  std::vector<Query> queries = {
      Parse("for $i in doc(\"xmark\")/site/regions/africa/item "
            "where $i/quantity > 5 return $i")};
  std::vector<IndexDefinition> config = {
      Def("/site/regions/africa/item/quantity", ValueType::kDouble)};
  Result<EvaluateIndexesResult> result =
      EvaluateIndexesMode(optimizer, queries, config, base, &cache_);
  ASSERT_TRUE(result.ok());
  std::string text = result->ToString();
  EXPECT_NE(text.find("total weighted cost"), std::string::npos);
  EXPECT_NE(text.find("index usage"), std::string::npos);
}

}  // namespace
}  // namespace xia
