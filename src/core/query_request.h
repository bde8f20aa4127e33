#ifndef TABULA_CORE_QUERY_REQUEST_H_
#define TABULA_CORE_QUERY_REQUEST_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "storage/predicate.h"

namespace tabula {

/// One inclusive range constraint on a spatial grid axis.
///
/// `column` names the constrained double column; an EMPTY column means
/// the bound is *positional* — the first positional bound constrains the
/// grid's x axis and the second its y axis, whichever columns those are
/// configured to be. Positional bounds exist so `BBOX(...)` can be
/// produced by parsers (SQL, the thin client) that do not know the
/// engine's grid column names.
struct SpatialBound {
  std::string column;
  double lo = 0.0;
  double hi = 0.0;
};

/// \brief Inclusive bounding box over the engine's spatial grid columns.
///
/// The pan/zoom query surface (DESIGN.md §10): at most one bound per
/// grid axis; an axis with no bound is unconstrained. The shape is a
/// bound *list* rather than a fixed rect so a polygon variant can ride
/// the same struct later without another codec bump.
struct SpatialRange {
  std::vector<SpatialBound> bounds;

  bool empty() const { return bounds.empty(); }
};

/// How a request may trade freshness for speed at the serving layer.
enum class ConsistencyHint {
  /// A cached answer (fenced on the cube generation, so never stale
  /// relative to the last Refresh) is acceptable — the default.
  kCacheOk,
  /// Bypass the result cache and probe the cube; the answer is still
  /// cached for later kCacheOk requests.
  kBypassCache,
  /// Progressive-answer mode for continuously-ingesting deployments:
  /// if appended rows are still being folded into the cube, wait up to
  /// the request deadline for the in-flight ingest cycle to commit
  /// before answering. On timeout the freshest available answer is
  /// served anyway, tagged `stale` (the BlinkDB-style bounded-time /
  /// bounded-staleness trade). With no pending ingest this behaves
  /// exactly like kCacheOk.
  kFreshWithinDeadline,
};

/// \brief The one dashboard-query contract across the stack.
///
/// `Tabula::Query`, `QueryServer::Query`, and `QueryServer::BatchQuery`
/// all consume this struct; the legacy bare-predicate-vector overloads
/// survive only as thin wrappers around it. A request is one cell
/// lookup: equality predicates on cubed attributes, plus the serving
/// knobs that used to be scattered across three signatures.
struct QueryRequest {
  /// Equality predicates on cubed attributes; attributes not mentioned
  /// roll up to '*'.
  std::vector<PredicateTerm> where;

  /// Optional bounding box over the spatial grid columns (pan/zoom).
  /// Empty → pure cell lookup (the pre-spatial behavior, bit for bit).
  /// Non-empty → the answer is composed from grid cells intersecting the
  /// box; may be combined with equality terms on cubed attributes but
  /// not with an equality term on a grid column.
  SpatialRange range;

  /// Per-request deadline in milliseconds. < 0 → the server default;
  /// 0 → none. A request that cannot run before the deadline degrades
  /// to the global sample instead of queueing further. NaN and ±inf
  /// are refused by the serving layer (kInvalidArgument). Ignored by
  /// Tabula::Query (no queue below the serving layer).
  double deadline_ms = -1.0;

  /// Opt this request into tracing when the attached Tracer runs in
  /// kOnDemand mode (kAll traces regardless; kDisabled never traces).
  bool trace = false;

  ConsistencyHint consistency = ConsistencyHint::kCacheOk;

  /// Span to parent this request's spans under (0 → root). Set by
  /// callers that already hold a span — e.g. QueryServer linking the
  /// per-item spans of a BatchQuery to the batch span across the
  /// ThreadPool hop.
  uint64_t parent_span = 0;

  QueryRequest() = default;
  explicit QueryRequest(std::vector<PredicateTerm> terms)
      : where(std::move(terms)) {}
};

}  // namespace tabula

#endif  // TABULA_CORE_QUERY_REQUEST_H_
