#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "advisor/advisor.h"
#include "advisor/analysis.h"
#include "exec/executor.h"
#include "exec/operators.h"
#include "index/index_builder.h"
#include "optimizer/optimizer.h"
#include "query/parser.h"
#include "workload/tpox_queries.h"
#include "workload/xmark_queries.h"
#include "xmldata/tpox_gen.h"
#include "xmldata/xmark_gen.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"

namespace xia {
namespace {

PathPattern P(const std::string& text) {
  Result<PathPattern> p = ParsePathPattern(text);
  EXPECT_TRUE(p.ok()) << text;
  return std::move(*p);
}

class ExecutorTest : public ::testing::Test {
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

  /// Builds and registers a physical index.
  void Materialize(const std::string& name, const std::string& pattern,
                   ValueType type) {
    IndexDefinition def;
    def.name = name;
    def.collection = "xmark";
    def.pattern = P(pattern);
    def.type = type;
    Result<PathIndex> built = BuildIndex(db_, def);
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE(catalog_
                    .AddPhysical(
                        std::make_shared<PathIndex>(std::move(*built)),
                        cost_model_.storage)
                    .ok());
  }

  ExecResult MustRun(const QueryPlan& plan) {
    Executor executor(&db_, &catalog_, cost_model_);
    Result<ExecResult> result = executor.Execute(plan);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(*result);
  }

  Database db_;
  Catalog catalog_;
  CostModel cost_model_;
  ContainmentCache cache_;
};

constexpr const char* kQuery =
    "for $i in doc(\"xmark\")/site/regions/africa/item "
    "where $i/quantity > 5 return $i/name";

// ------------------------------------------------------------- Operators.

TEST_F(ExecutorTest, VerifyNodePathChecksRootPath) {
  const Document& doc = db_.GetCollection("xmark")->doc(0);
  // Find an africa item node and verify it against several patterns.
  Result<ParsedPath> path = ParsePathExpr("/site/regions/africa/item");
  ASSERT_TRUE(path.ok());
  std::vector<NodeIndex> nodes =
      EvaluateParsedPath(doc, db_.names(), *path);
  ASSERT_FALSE(nodes.empty());
  EXPECT_TRUE(VerifyNodePath(doc, db_.names(), nodes[0],
                             P("/site/regions/africa/item")));
  EXPECT_TRUE(VerifyNodePath(doc, db_.names(), nodes[0],
                             P("/site/regions/*/item")));
  EXPECT_TRUE(VerifyNodePath(doc, db_.names(), nodes[0], P("//item")));
  EXPECT_FALSE(VerifyNodePath(doc, db_.names(), nodes[0],
                              P("/site/regions/europe/item")));
}

TEST_F(ExecutorTest, DocSatisfiesPredicateAgreesWithEvaluator) {
  Query q = Parse(kQuery);
  const QueryPredicate& pred = q.normalized.predicates[0];
  const Collection& coll = *db_.GetCollection("xmark");
  for (const Document& doc : coll.docs()) {
    bool expected = false;
    for (NodeIndex n : EvaluatePattern(doc, db_.names(), pred.pattern)) {
      if (CompareValues(pred.op, doc.TextValue(n), pred.literal)) {
        expected = true;
        break;
      }
    }
    EXPECT_EQ(DocSatisfiesPredicate(doc, db_.names(), pred), expected);
  }
}

// ------------------------------------------------- Scan vs index parity.

TEST_F(ExecutorTest, IndexPlanReturnsSameResultsAsScan) {
  Optimizer opt(&db_, cost_model_);
  Catalog empty;
  Query q = Parse(kQuery);

  Result<QueryPlan> scan_plan = opt.Optimize(q, empty, &cache_);
  ASSERT_TRUE(scan_plan.ok());
  ASSERT_FALSE(scan_plan->access.use_index);
  ExecResult scan = MustRun(*scan_plan);

  Materialize("q_idx", "/site/regions/africa/item/quantity",
              ValueType::kDouble);
  Result<QueryPlan> idx_plan = opt.Optimize(q, catalog_, &cache_);
  ASSERT_TRUE(idx_plan.ok());
  ASSERT_TRUE(idx_plan->access.use_index);
  ExecResult indexed = MustRun(*idx_plan);

  EXPECT_EQ(scan.nodes, indexed.nodes);
  EXPECT_EQ(scan.docs_matched, indexed.docs_matched);
  EXPECT_GT(scan.nodes.size(), 0u);
}

TEST_F(ExecutorTest, GeneralIndexWithVerifyGivesSameResults) {
  Optimizer opt(&db_, cost_model_);
  Catalog empty;
  Query q = Parse(kQuery);
  Result<QueryPlan> scan_plan = opt.Optimize(q, empty, &cache_);
  ASSERT_TRUE(scan_plan.ok());
  ExecResult scan = MustRun(*scan_plan);

  Materialize("gen_idx", "/site/regions/*/item/*", ValueType::kDouble);
  Result<QueryPlan> idx_plan = opt.Optimize(q, catalog_, &cache_);
  ASSERT_TRUE(idx_plan.ok());
  ASSERT_TRUE(idx_plan->access.use_index);
  EXPECT_TRUE(idx_plan->access.needs_verify);
  ExecResult indexed = MustRun(*idx_plan);
  EXPECT_EQ(scan.nodes, indexed.nodes);
}

TEST_F(ExecutorTest, EqProbeParity) {
  Optimizer opt(&db_, cost_model_);
  Catalog empty;
  Query q = Parse(
      "for $i in doc(\"xmark\")/site/regions/europe/item "
      "where $i/payment = \"Creditcard\" return $i");
  Result<QueryPlan> scan_plan = opt.Optimize(q, empty, &cache_);
  ASSERT_TRUE(scan_plan.ok());
  ExecResult scan = MustRun(*scan_plan);

  Materialize("pay_idx", "/site/regions/europe/item/payment",
              ValueType::kVarchar);
  Result<QueryPlan> idx_plan = opt.Optimize(q, catalog_, &cache_);
  ASSERT_TRUE(idx_plan.ok());
  ASSERT_TRUE(idx_plan->access.use_index);
  EXPECT_EQ(idx_plan->access.use, MatchUse::kSargableEq);
  ExecResult indexed = MustRun(*idx_plan);
  EXPECT_EQ(scan.nodes, indexed.nodes);
}

TEST_F(ExecutorTest, MultiPredicateParity) {
  Optimizer opt(&db_, cost_model_);
  Catalog empty;
  Query q = Parse(
      "for $i in doc(\"xmark\")/site/regions/africa/item "
      "where $i/quantity > 3 and $i/payment = \"Cash\" return $i");
  Result<QueryPlan> scan_plan = opt.Optimize(q, empty, &cache_);
  ASSERT_TRUE(scan_plan.ok());
  ExecResult scan = MustRun(*scan_plan);

  Materialize("q_idx", "/site/regions/africa/item/quantity",
              ValueType::kDouble);
  Result<QueryPlan> idx_plan = opt.Optimize(q, catalog_, &cache_);
  ASSERT_TRUE(idx_plan.ok());
  ASSERT_TRUE(idx_plan->access.use_index);
  ExecResult indexed = MustRun(*idx_plan);
  EXPECT_EQ(scan.nodes, indexed.nodes);
}

TEST_F(ExecutorTest, SqlXmlParity) {
  Optimizer opt(&db_, cost_model_);
  Catalog empty;
  Query q = Parse(
      "select * from xmark where "
      "xmlexists('$d/site/people/person[profile/@income >= 80000]')");
  Result<QueryPlan> scan_plan = opt.Optimize(q, empty, &cache_);
  ASSERT_TRUE(scan_plan.ok());
  ExecResult scan = MustRun(*scan_plan);

  Materialize("inc_idx", "/site/people/person/profile/@income",
              ValueType::kDouble);
  Result<QueryPlan> idx_plan = opt.Optimize(q, catalog_, &cache_);
  ASSERT_TRUE(idx_plan.ok());
  ASSERT_TRUE(idx_plan->access.use_index);
  ExecResult indexed = MustRun(*idx_plan);
  EXPECT_EQ(scan.nodes, indexed.nodes);
}

// -------------------------------------------------------- Accounting.

TEST_F(ExecutorTest, IndexReadsFewerSimulatedPages) {
  Optimizer opt(&db_, cost_model_);
  Catalog empty;
  Query q = Parse(kQuery);
  Result<QueryPlan> scan_plan = opt.Optimize(q, empty, &cache_);
  ASSERT_TRUE(scan_plan.ok());
  ExecResult scan = MustRun(*scan_plan);

  Materialize("q_idx", "/site/regions/africa/item/quantity",
              ValueType::kDouble);
  Result<QueryPlan> idx_plan = opt.Optimize(q, catalog_, &cache_);
  ASSERT_TRUE(idx_plan.ok());
  ExecResult indexed = MustRun(*idx_plan);
  EXPECT_LT(indexed.simulated_page_reads, scan.simulated_page_reads);
  EXPECT_LT(indexed.nodes_examined, scan.nodes_examined);
}

TEST_F(ExecutorTest, VirtualIndexPlanCannotExecute) {
  IndexDefinition def;
  def.name = "virt";
  def.collection = "xmark";
  def.pattern = P("/site/regions/africa/item/quantity");
  def.type = ValueType::kDouble;
  VirtualIndexStats stats = EstimateVirtualIndex(
      *db_.synopsis("xmark"), def, cost_model_.storage);
  Catalog with_virtual;
  ASSERT_TRUE(with_virtual.AddVirtual(def, stats).ok());
  Optimizer opt(&db_, cost_model_);
  Result<QueryPlan> plan = opt.Optimize(Parse(kQuery), with_virtual, &cache_);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan->access.use_index);
  Executor executor(&db_, &catalog_, cost_model_);
  Result<ExecResult> run = executor.Execute(*plan);
  EXPECT_FALSE(run.ok());  // "virt" is not in catalog_ as physical.
}

TEST_F(ExecutorTest, ReturnProjectionCollectsReturnNodes) {
  Optimizer opt(&db_, cost_model_);
  Catalog empty;
  Query q = Parse(kQuery);  // return $i/name
  Result<QueryPlan> plan = opt.Optimize(q, empty, &cache_);
  ASSERT_TRUE(plan.ok());
  ExecResult run = MustRun(*plan);
  ASSERT_FALSE(run.returned.empty());
  // Projected nodes are <name> elements inside qualifying documents.
  for (const NodeRef& ref : run.returned) {
    const Document& doc = db_.GetCollection("xmark")->doc(ref.doc);
    EXPECT_EQ(db_.names().NameOf(doc.node(ref.node).name), "name");
  }
  // Same projection whether executed via scan or index.
  Materialize("q_idx", "/site/regions/africa/item/quantity",
              ValueType::kDouble);
  Result<QueryPlan> idx_plan = opt.Optimize(q, catalog_, &cache_);
  ASSERT_TRUE(idx_plan.ok());
  ASSERT_TRUE(idx_plan->access.use_index);
  ExecResult idx_run = MustRun(*idx_plan);
  EXPECT_EQ(run.returned, idx_run.returned);
}

TEST_F(ExecutorTest, RenderResultsEmitsXmlFragments) {
  Optimizer opt(&db_, cost_model_);
  Catalog empty;
  Query q = Parse(kQuery);
  Result<QueryPlan> plan = opt.Optimize(q, empty, &cache_);
  ASSERT_TRUE(plan.ok());
  ExecResult run = MustRun(*plan);
  std::string rendered = RenderResults(db_, "xmark", run, 5);
  EXPECT_NE(rendered.find("<name>"), std::string::npos);
  // Truncation notice appears when there are more results than shown.
  if (run.returned.size() > 5) {
    EXPECT_NE(rendered.find("more)"), std::string::npos);
  }
  EXPECT_EQ(RenderResults(db_, "ghost", run, 5), "");
}

TEST_F(ExecutorTest, NoReturnsMeansEmptyProjection) {
  Optimizer opt(&db_, cost_model_);
  Catalog empty;
  Query q = Parse(
      "select * from xmark where "
      "xmlexists('$d/site/regions/africa/item[quantity > 5]')");
  Result<QueryPlan> plan = opt.Optimize(q, empty, &cache_);
  ASSERT_TRUE(plan.ok());
  ExecResult run = MustRun(*plan);
  EXPECT_TRUE(run.returned.empty());
  EXPECT_FALSE(run.nodes.empty());
  // RenderResults falls back to the driving nodes.
  EXPECT_NE(RenderResults(db_, "xmark", run, 2).find("<item"),
            std::string::npos);
}

TEST_F(ExecutorTest, ScanCountsAllNodes) {
  Optimizer opt(&db_, cost_model_);
  Catalog empty;
  Result<QueryPlan> plan = opt.Optimize(Parse(kQuery), empty, &cache_);
  ASSERT_TRUE(plan.ok());
  ExecResult result = MustRun(*plan);
  EXPECT_EQ(result.nodes_examined,
            db_.GetCollection("xmark")->num_nodes());
  EXPECT_GT(result.wall_micros, 0.0);
}

// ------------------------------------------- Page-accounting equivalence.

/// Node-walk document size, independent of Document's cached total.
double WalkedBytes(const Document& doc) {
  size_t total = 0;
  for (const XmlNode& n : doc.nodes()) {
    total += sizeof(XmlNode) + n.value.size();
  }
  return static_cast<double>(total);
}

/// What one execution reports about pages.
struct PageCounts {
  uint64_t hits = 0;
  uint64_t misses = 0;
  double simulated_page_reads = 0;
};

/// Reference page accounting: replays the pages an execution of `plan`
/// touches, one BufferPool::Touch per page, in the executor's order:
/// scans touch every live document's pages; index plans touch each
/// probe's leading leaf pages, then the page of each fetched entry, then
/// every live candidate document's pages. Sizes come from node walks.
/// Every touched page id is recorded in `seen`.
class ReferencePager {
 public:
  ReferencePager(const Database& db, const Catalog& catalog,
                 const CostModel& cost_model, BufferPool* pool)
      : db_(db), catalog_(catalog), cm_(cost_model), pool_(pool) {}

  PageCounts Run(const QueryPlan& plan, std::set<uint64_t>* seen) {
    seen_ = seen;
    const Collection& coll = *db_.GetCollection(plan.query.collection);
    uint64_t hits_before = pool_->hits();
    uint64_t misses_before = pool_->misses();
    PageCounts out;
    if (!plan.access.use_index) {
      double bytes = 0;
      for (DocId id = 0; id < static_cast<DocId>(coll.num_docs()); ++id) {
        if (!coll.IsLive(id)) continue;
        TouchDoc(coll.doc(id));
        bytes += WalkedBytes(coll.doc(id));
      }
      out.simulated_page_reads = cm_.Pages(bytes);
    } else {
      const StorageConstants& sc = cm_.storage;
      const PathIndex& index =
          *catalog_.Find(plan.access.index_def.name)->physical;
      size_t fetched = 0;
      std::set<DocId> docs =
          Probe(coll, plan.query, index, plan.access.use,
                plan.access.served_predicate, plan.access.needs_verify,
                &fetched);
      double secondary_height = 0;
      if (plan.access.has_secondary) {
        const IndexProbe& sec = plan.access.secondary;
        const PathIndex& sec_index =
            *catalog_.Find(sec.index_def.name)->physical;
        std::set<DocId> sec_docs =
            Probe(coll, plan.query, sec_index, sec.use, sec.served_predicate,
                  sec.needs_verify, &fetched);
        std::set<DocId> both;
        for (DocId d : docs) {
          if (sec_docs.count(d) > 0) both.insert(d);
        }
        docs = std::move(both);
        secondary_height = static_cast<double>(sec_index.Height(sc));
      }
      // Both probes' fetches count against the primary index.
      double frac = index.num_entries() == 0
                        ? 0.0
                        : static_cast<double>(fetched) /
                              static_cast<double>(index.num_entries());
      out.simulated_page_reads =
          static_cast<double>(index.Height(sc)) +
          index.LeafPages(sc) * std::min(1.0, frac) +
          static_cast<double>(fetched) * 0.1 + secondary_height;
      for (DocId d : docs) {
        if (coll.IsLive(d)) TouchDoc(coll.doc(d));
      }
    }
    out.hits = pool_->hits() - hits_before;
    out.misses = pool_->misses() - misses_before;
    return out;
  }

 private:
  void Touch(uint64_t page_id) {
    pool_->Touch(page_id);
    seen_->insert(page_id);
  }

  void TouchDoc(const Document& doc) {
    double pages = std::max(
        1.0, std::ceil(WalkedBytes(doc) / cm_.storage.page_size_bytes));
    for (uint32_t p = 0; p < static_cast<uint32_t>(pages); ++p) {
      Touch(DocPageId(doc.id(), p));
    }
  }

  std::set<DocId> Probe(const Collection& coll, const NormalizedQuery& query,
                        const PathIndex& idx, MatchUse use, int served,
                        bool needs_verify, size_t* fetched_count) {
    std::vector<NodeRef> fetched =
        ProbeIndexForPredicate(idx, query, use, served);
    *fetched_count += fetched.size();
    double frac = idx.num_entries() == 0
                      ? 0.0
                      : static_cast<double>(fetched.size()) /
                            static_cast<double>(idx.num_entries());
    double leaves = idx.LeafPages(cm_.storage) * std::min(1.0, frac);
    uint64_t hash = std::hash<std::string>{}(idx.def().name);
    for (uint32_t p = 0; p < static_cast<uint32_t>(std::ceil(leaves)); ++p) {
      Touch(IndexPageId(hash, p));
    }
    for (const NodeRef& ref : fetched) {
      const Document& doc = coll.doc(ref.doc);
      double bytes_per_node =
          doc.num_nodes() == 0 ? 1.0
                               : WalkedBytes(doc) /
                                     static_cast<double>(doc.num_nodes());
      Touch(DocPageId(ref.doc, static_cast<uint32_t>(
                                   static_cast<double>(
                                       doc.node(ref.node).begin) *
                                   bytes_per_node /
                                   cm_.storage.page_size_bytes)));
    }
    const PathPattern& probed =
        served >= 0 ? query.predicates[static_cast<size_t>(served)].pattern
                    : query.for_path;
    PatternNfa nfa(probed);
    std::set<DocId> docs;
    for (const NodeRef& ref : fetched) {
      if (needs_verify &&
          !VerifyNodePathNfa(coll.doc(ref.doc), db_.names(), ref.node, nfa)) {
        continue;
      }
      docs.insert(ref.doc);
    }
    return docs;
  }

  const Database& db_;
  const Catalog& catalog_;
  const CostModel& cm_;
  BufferPool* pool_;
  std::set<uint64_t>* seen_ = nullptr;
};

// Batching page touches into one-lock runs must not change which pages
// are touched or in what order: every page counter an execution reports,
// and the pool's own totals and contents, equal a page-by-page reference
// across scan, index and IXAND plans of the XMark and TPoX templates —
// on a pool small enough to evict on every document and on a warm one.
TEST(ExecutorPageAccountingTest, RunsMatchPageByPageReference) {
  Database db;
  ASSERT_TRUE(PopulateXMark(&db, "xmark", 16, XMarkParams(), 42).ok());
  ASSERT_TRUE(PopulateTpox(&db, 50, 100, 20, TpoxParams(), 11).ok());
  CostModel cost_model;
  Catalog catalog;
  std::vector<Query> queries;
  for (const Workload& workload :
       {MakeXMarkWorkload("xmark"), MakeTpoxWorkload()}) {
    AdvisorOptions options;
    options.space_budget_bytes = 64.0 * 1024;
    Catalog base;
    Advisor advisor(&db, &base, options);
    Result<Recommendation> rec = advisor.Recommend(workload);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    ASSERT_TRUE(MaterializeConfiguration(db, rec->indexes, &catalog,
                                         cost_model.storage)
                    .ok());
    for (const Query& q : workload.queries()) queries.push_back(q);
  }
  // Two sargable indexes on one path make the IXAND plan available.
  for (const char* leaf : {"quantity", "price"}) {
    IndexDefinition def;
    def.name = std::string("ixand_") + leaf;
    def.collection = "xmark";
    def.pattern = P(std::string("/site/regions/africa/item/") + leaf);
    def.type = ValueType::kDouble;
    Result<PathIndex> built = BuildIndex(db, def);
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE(catalog
                    .AddPhysical(std::make_shared<PathIndex>(
                                     std::move(*built)),
                                 cost_model.storage)
                    .ok());
  }
  Result<Query> ixand_query = ParseQuery(
      "for $i in doc(\"xmark\")/site/regions/africa/item "
      "where $i/quantity > 8 and $i/price < 100 return $i/name");
  ASSERT_TRUE(ixand_query.ok());
  queries.push_back(std::move(*ixand_query));

  Optimizer optimizer(&db, cost_model);
  ContainmentCache cache;
  Catalog empty;
  std::vector<QueryPlan> plans;
  int index_plans = 0;
  int ixand_plans = 0;
  for (const Query& q : queries) {
    for (const Catalog* cat : {&empty, &catalog}) {
      Result<QueryPlan> plan = optimizer.Optimize(q, *cat, &cache);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      index_plans += plan->access.use_index ? 1 : 0;
      ixand_plans += plan->access.has_secondary ? 1 : 0;
      plans.push_back(std::move(*plan));
    }
  }
  ASSERT_GT(index_plans, 0);
  ASSERT_GT(ixand_plans, 0);

  for (size_t capacity : {size_t{8}, size_t{4096}}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    BufferPool pool(capacity);
    BufferPool ref_pool(capacity);
    Executor executor(&db, &catalog, cost_model, &pool);
    ReferencePager reference(db, catalog, cost_model, &ref_pool);
    std::set<uint64_t> seen;
    for (int pass = 0; pass < 2; ++pass) {
      for (const QueryPlan& plan : plans) {
        SCOPED_TRACE(plan.query_text);
        Result<ExecResult> run = executor.Execute(plan);
        ASSERT_TRUE(run.ok()) << run.status().ToString();
        PageCounts want = reference.Run(plan, &seen);
        EXPECT_EQ(run->buffer_hits, want.hits);
        EXPECT_EQ(run->buffer_misses, want.misses);
        EXPECT_EQ(run->simulated_page_reads, want.simulated_page_reads);
        EXPECT_EQ(pool.hits(), ref_pool.hits());
        EXPECT_EQ(pool.misses(), ref_pool.misses());
        EXPECT_EQ(pool.evictions(), ref_pool.evictions());
      }
    }
    // The small pool evicts within every document; the large one warms.
    EXPECT_GT(capacity == 8 ? pool.evictions() : pool.hits(), 0u);
    // Same contents: every page ever touched probes the same in both.
    for (uint64_t page : seen) {
      EXPECT_EQ(pool.Touch(page), ref_pool.Touch(page)) << page;
    }
  }
}

}  // namespace
}  // namespace xia
