#ifndef XIA_ADVISOR_WHATIF_H_
#define XIA_ADVISOR_WHATIF_H_

#include <string>
#include <vector>

#include "advisor/cost_cache.h"
#include "common/status.h"
#include "optimizer/explain.h"
#include "optimizer/optimizer.h"
#include "workload/workload.h"

namespace xia {

/// Interactive what-if analysis over a hypothetical index configuration —
/// the demo's "modify the recommended configuration by adding and removing
/// indexes and see the effect of these modifications on query
/// performance" (Figure 5, last bullet).
///
/// The session owns a catalog overlay: indexes added here are virtual
/// (statistics estimated from the synopsis, nothing built), drops remove
/// session indexes or hide base-catalog ones; the base catalog is never
/// modified.
///
/// Evaluations run Evaluate Indexes mode (EvaluateIndexesMode) over the
/// overlay with a signature-keyed plan cache that lives as long as the
/// session: a query re-optimizes only when the set of overlay indexes that
/// can serve it changed. The cache needs no invalidation hooks — keys
/// embed the identities (names + statistics bits) of exactly the relevant
/// indexes, so AddIndex/DropIndex naturally change the keys of affected
/// queries and leave the rest hitting.
class WhatIfSession {
 public:
  /// `db` must outlive the session; `base` is copied.
  WhatIfSession(const Database* db, Catalog base, CostModel cost_model);

  /// Adds a hypothetical index. A blank name is auto-generated. Fails if
  /// the collection lacks statistics or the name collides.
  Result<std::string> AddIndex(IndexDefinition def);

  /// Removes an index (session-added or inherited from the base copy).
  Status DropIndex(const std::string& name);

  /// Estimated weighted cost of `workload` under the current overlay.
  Result<EvaluateIndexesResult> EvaluateWorkload(const Workload& workload);

  /// Names of indexes added during this session, in insertion order.
  const std::vector<std::string>& session_indexes() const {
    return session_indexes_;
  }

  const Catalog& catalog() const { return catalog_; }

  /// Counter snapshot of the session's plan + containment caches.
  AdvisorCacheCounters cache_counters() const;

 private:
  const Database* db_;
  Catalog catalog_;
  CostModel cost_model_;
  Optimizer optimizer_;
  ContainmentCache cache_;
  WhatIfCostCache cost_cache_;
  std::vector<std::string> session_indexes_;
};

}  // namespace xia

#endif  // XIA_ADVISOR_WHATIF_H_
