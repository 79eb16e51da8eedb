#include "optimizer/explain.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/failpoint.h"
#include "common/string_util.h"

namespace xia {

namespace {

/// Same hook (and hit-argument convention) as the advisor's evaluator:
/// "advisor.whatif.optimize" with arg = workload query index, so tests
/// inject a failure into a specific query's what-if optimization no
/// matter which EXPLAIN path runs it.
Result<QueryPlan> OptimizeQueryWithFailpoint(const Optimizer& optimizer,
                                             const Query& query,
                                             size_t query_index,
                                             const Catalog& overlay,
                                             ContainmentCache* cache) {
  XIA_FAILPOINT_ARG("advisor.whatif.optimize",
                    static_cast<int64_t>(query_index));
  return optimizer.Optimize(query, overlay, cache);
}

}  // namespace

std::string CandidatePattern::ToString() const {
  std::string out = pattern.ToString();
  out += " AS ";
  out += ValueTypeName(type);
  out += sargable ? " (sargable)" : " (structural)";
  if (!source.empty()) out += "  <- " + source;
  return out;
}

std::string EnumerateIndexesResult::ToString() const {
  std::string out = "Enumerate Indexes for " +
                    (query_id.empty() ? "query" : query_id) + " on " +
                    collection + ":\n";
  for (const CandidatePattern& c : candidates) {
    out += "  " + c.ToString() + "\n";
  }
  return out;
}

Result<EnumerateIndexesResult> EnumerateIndexesMode(const Database& db,
                                                    const Query& query,
                                                    ContainmentCache* cache) {
  const NormalizedQuery& nq = query.normalized;
  const PathSynopsis* synopsis = db.synopsis(nq.collection);
  if (synopsis == nullptr) {
    return Status::InvalidArgument("collection " + nq.collection +
                                   " has no statistics; run Analyze first");
  }

  // Catalog overlay holding only the universal virtual indexes.
  StorageConstants constants;
  Catalog overlay;
  auto add_universal = [&](const PathPattern& pattern, ValueType type,
                           const std::string& name) {
    IndexDefinition def;
    def.name = name;
    def.collection = nq.collection;
    def.pattern = pattern;
    def.type = type;
    VirtualIndexStats stats =
        EstimateVirtualIndex(*synopsis, def, constants);
    return overlay.AddVirtual(std::move(def), stats);
  };
  XIA_RETURN_IF_ERROR(add_universal(PathPattern::AllElements(),
                                    ValueType::kVarchar, "uvi_elem_vc"));
  XIA_RETURN_IF_ERROR(add_universal(PathPattern::AllElements(),
                                    ValueType::kDouble, "uvi_elem_db"));
  XIA_RETURN_IF_ERROR(add_universal(PathPattern::AllAttributes(),
                                    ValueType::kVarchar, "uvi_attr_vc"));
  XIA_RETURN_IF_ERROR(add_universal(PathPattern::AllAttributes(),
                                    ValueType::kDouble, "uvi_attr_db"));

  IndexMatcher matcher(cache);
  std::vector<IndexMatch> matches =
      matcher.Match(nq, overlay.IndexesFor(nq.collection));

  EnumerateIndexesResult result;
  result.query_id = query.id;
  result.collection = nq.collection;
  // Keep the best candidate per (pattern, type): sargable beats structural.
  auto upsert = [&](CandidatePattern cand) {
    for (CandidatePattern& existing : result.candidates) {
      if (existing.pattern == cand.pattern && existing.type == cand.type) {
        if (cand.sargable && !existing.sargable) existing = std::move(cand);
        return;
      }
    }
    result.candidates.push_back(std::move(cand));
  };
  for (const IndexMatch& match : matches) {
    CandidatePattern cand;
    if (match.predicate_index >= 0) {
      const QueryPredicate& pred =
          nq.predicates[static_cast<size_t>(match.predicate_index)];
      cand.pattern = pred.pattern;
      cand.sargable = match.use != MatchUse::kStructural;
      // A structural match can still serve the predicate, but the useful
      // index type is the predicate's implied type only for sargable use.
      cand.type =
          cand.sargable ? pred.ImpliedType() : ValueType::kVarchar;
      cand.source = "predicate " + pred.ToString();
    } else {
      cand.pattern = nq.for_path;
      cand.type = ValueType::kVarchar;
      cand.sargable = false;
      cand.source = "FOR path";
    }
    upsert(std::move(cand));
  }
  return result;
}

Result<Catalog> MakeVirtualOverlay(const Database& db,
                                   const Catalog& base_catalog,
                                   const std::vector<IndexDefinition>& config,
                                   const StorageConstants& constants) {
  Catalog overlay = base_catalog;
  for (const IndexDefinition& def : config) {
    const PathSynopsis* synopsis = db.synopsis(def.collection);
    if (synopsis == nullptr) {
      return Status::InvalidArgument("collection " + def.collection +
                                     " has no statistics; run Analyze first");
    }
    IndexDefinition copy = def;
    if (copy.name.empty() || overlay.Find(copy.name) != nullptr) {
      copy.name = overlay.UniqueName(copy.pattern);
    }
    VirtualIndexStats stats = EstimateVirtualIndex(*synopsis, copy, constants);
    XIA_RETURN_IF_ERROR(overlay.AddVirtual(std::move(copy), stats));
  }
  return overlay;
}

Result<EvaluateIndexesResult> EvaluateIndexesMode(
    const Optimizer& optimizer, const std::vector<Query>& queries,
    const std::vector<IndexDefinition>& config, const Catalog& base_catalog,
    ContainmentCache* cache, ThreadPool* pool, WhatIfCostCache* cost_cache) {
  XIA_ASSIGN_OR_RETURN(
      Catalog overlay,
      MakeVirtualOverlay(optimizer.db(), base_catalog, config,
                         optimizer.cost_model().storage));
  // Optimize into per-query slots (the overlay and statistics are only
  // read), then fold costs and use counts serially in query order so the
  // result does not depend on scheduling.
  std::vector<Result<QueryPlan>> plans(queries.size(),
                                       Status::Internal("not evaluated"));
  if (cost_cache != nullptr && cost_cache->enabled()) {
    // Serial phase 1: resolve each distinct query against the plan cache
    // by its (fingerprint, relevance signature) key and collect the
    // misses. Equal fingerprints have equal signatures by definition, so
    // repeated workload queries share one key and one cache probe; each
    // repeat still counts as a hit or miss of its own. Keys here carry
    // full entry identities (names + stats bits), so a cache outlives
    // catalog edits without invalidation hooks.
    struct QueryClass {
      size_t query = 0;     // Representative query index.
      std::string key;      // Cost-cache key.
      bool cached = false;  // `plan` came from the cache.
      QueryPlan plan;
    };
    std::map<std::string, std::vector<const CatalogEntry*>> indexes_for;
    std::vector<QueryClass> classes;
    std::unordered_map<std::string, size_t> class_by_fingerprint;
    std::vector<size_t> class_of(queries.size());
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const NormalizedQuery& nq = queries[qi].normalized;
      auto [it, fresh] = class_by_fingerprint.try_emplace(
          QueryFingerprint(nq), classes.size());
      class_of[qi] = it->second;
      if (!fresh) {
        cost_cache->CountLookup(classes[it->second].cached);
        continue;
      }
      auto [coll_it, first_seen] = indexes_for.try_emplace(nq.collection);
      if (first_seen) coll_it->second = overlay.IndexesFor(nq.collection);
      QueryClass cls;
      cls.query = qi;
      cls.key = it->first;
      cls.key.push_back('\n');
      cls.key += RelevanceSignature(nq, coll_it->second, cache);
      cls.cached = cost_cache->Lookup(cls.key, &cls.plan);
      classes.push_back(std::move(cls));
    }
    std::vector<size_t> tasks;  // Indices of the uncached classes.
    for (size_t c = 0; c < classes.size(); ++c) {
      if (!classes[c].cached) tasks.push_back(c);
    }
    // Parallel phase 2: optimize the distinct misses against the full
    // overlay. (The minimal-overlay trick the evaluator uses is an
    // optimization, not a correctness requirement — the full overlay
    // yields the same plan, since irrelevant entries produce no matches.)
    std::vector<Result<QueryPlan>> task_plans(
        tasks.size(), Status::Internal("not evaluated"));
    // First-failure sibling cancellation: one bad task stops the batch,
    // and the outcome (statuses AND cache inserts below) is deterministic
    // at any thread count — exactly the tasks below the lowest failure
    // complete.
    ParallelForCancellable(
        pool, tasks.size(),
        [&](size_t ti) {
          size_t query = classes[tasks[ti]].query;
          task_plans[ti] = OptimizeQueryWithFailpoint(
              optimizer, queries[query], query, overlay, cache);
          return task_plans[ti].ok();
        },
        [&](size_t ti) {
          task_plans[ti] = Status::Cancelled(
              "cancelled: a lower-indexed what-if task failed first");
        });
    // Serial phase 3: memoize and distribute.
    std::vector<const Result<QueryPlan>*> computed(classes.size(), nullptr);
    for (size_t ti = 0; ti < tasks.size(); ++ti) {
      if (task_plans[ti].ok()) {
        cost_cache->Insert(classes[tasks[ti]].key, *task_plans[ti]);
      }
      computed[tasks[ti]] = &task_plans[ti];
    }
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const QueryClass& cls = classes[class_of[qi]];
      if (cls.cached) {
        plans[qi] = cls.plan;  // Equal key ⇒ bit-identical plan.
      } else {
        plans[qi] = *computed[class_of[qi]];
      }
      if (plans[qi].ok()) {
        plans[qi]->query_id = queries[qi].id;
        plans[qi]->query_text = queries[qi].text;
      }
    }
  } else {
    if (cost_cache != nullptr) cost_cache->AddBypasses(queries.size());
    ParallelForCancellable(
        pool, queries.size(),
        [&](size_t qi) {
          plans[qi] =
              OptimizeQueryWithFailpoint(optimizer, queries[qi], qi, overlay,
                                         cache);
          return plans[qi].ok();
        },
        [&](size_t qi) {
          plans[qi] = Status::Cancelled(
              "cancelled: a lower-indexed what-if optimization failed first");
        });
  }
  EvaluateIndexesResult result;
  result.plans.reserve(queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    XIA_RETURN_IF_ERROR(plans[qi].status());
    QueryPlan plan = std::move(*plans[qi]);
    result.total_weighted_cost += queries[qi].weight * plan.total_cost;
    if (plan.access.use_index) {
      result.index_use_counts[plan.access.index_def.name]++;
      if (plan.access.has_secondary) {
        result.index_use_counts[plan.access.secondary.index_def.name]++;
      }
    }
    result.plans.push_back(std::move(plan));
  }
  return result;
}

std::string EvaluateIndexesResult::ToString() const {
  std::string out = "Evaluate Indexes: total weighted cost = " +
                    FormatDouble(total_weighted_cost) + "\n";
  for (const QueryPlan& plan : plans) {
    out += "  " + (plan.query_id.empty() ? "query" : plan.query_id) +
           ": cost " + FormatDouble(plan.total_cost) + " via " +
           plan.access.ToString() + "\n";
  }
  if (!index_use_counts.empty()) {
    out += "  index usage:\n";
    for (const auto& [name, count] : index_use_counts) {
      out += "    " + name + ": " + std::to_string(count) + " queries\n";
    }
  }
  return out;
}

}  // namespace xia
