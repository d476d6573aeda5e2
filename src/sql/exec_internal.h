#ifndef IRONSAFE_SQL_EXEC_INTERNAL_H_
#define IRONSAFE_SQL_EXEC_INTERNAL_H_

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_pool.h"
#include "obs/access_trace.h"
#include "obs/trace.h"
#include "sql/database.h"
#include "sql/executor.h"
#include "sql/schema.h"

/// Internals shared by the three SELECT executors: the row-at-a-time
/// volcano engine (executor.cc), the batch-at-a-time columnar engine
/// (vector_executor.cc) and the dummy-padded oblivious mode
/// (oblivious_executor.cc). RunSelect at the bottom is the one SELECT
/// skeleton all three run; everything it calls from here is
/// engine-neutral: conjunct and join-predicate analysis, the output
/// plan, the row/vectorized DISTINCT -> ORDER BY -> LIMIT tail,
/// aggregate accumulators, the morsel and join-key fan-out harnesses,
/// cost-charging context and stage spans. Each engine keeps only its
/// per-row / per-batch operators. Not part of the public sql API.
namespace ironsafe::sql::exec {

// Per-row work constants (cycles) of the row engine; relative magnitudes
// matter, not the absolute values — they seed the simulated CPU cost of
// operators.
constexpr uint64_t kScanRowCycles = 180;
constexpr uint64_t kFilterCycles = 80;
constexpr uint64_t kJoinBuildCycles = 180;
constexpr uint64_t kJoinProbeCycles = 220;
constexpr uint64_t kAggUpdateCycles = 200;
constexpr uint64_t kSortCmpCycles = 90;
constexpr uint64_t kProjectCycles = 120;

// Fan-out floors: below these per-worker shares, morsel overhead beats
// the parallel win, so the planner shrinks the worker count. Partition
// boundaries depend only on (work size, worker count), never on thread
// scheduling.
constexpr uint64_t kMinScanUnitsPerWorker = 2;
constexpr uint64_t kMinJoinRowsPerWorker = 512;

// Per-row / per-exchange constants of the oblivious mode
// (oblivious_executor.cc, docs/OBLIVIOUS.md). They sit above the row
// engine's constants because every oblivious step also maintains
// validity flags and staging copies; the real overhead, though, comes
// from the shape-only bounds: full scans with no pushdown, padded
// filters/aggregates and O(n log^2 n) sort networks.
constexpr uint64_t kOblScanRowCycles = 200;
constexpr uint64_t kOblFilterRowCycles = 90;
constexpr uint64_t kOblSortCmpCycles = 120;
constexpr uint64_t kOblMergeRowCycles = 150;
constexpr uint64_t kOblAggRowCycles = 220;
constexpr uint64_t kOblProjectRowCycles = 130;

class ExecSubqueryRunner : public SubqueryRunner {
 public:
  ExecSubqueryRunner(Database* db, sim::CostModel* cost,
                     const ExecOptions& opts)
      : db_(db), cost_(cost), opts_(opts) {
    // Correlated subqueries re-execute per outer row; their stage spans
    // would dwarf the trace without adding structure.
    opts_.trace = false;
  }

  /// Uncorrelated subqueries execute once and are cached (keyed by AST
  /// node); a subquery that fails without the outer scope is correlated
  /// and re-executes per outer row.
  Result<QueryResult> RunSubquery(const SelectStmt& stmt,
                                  const EvalScope* outer) override {
    auto it = cache_.find(&stmt);
    if (it != cache_.end()) return it->second;
    if (!correlated_.count(&stmt)) {
      auto r = ExecuteSelect(db_, stmt, nullptr, cost_, opts_);
      if (r.ok()) {
        cache_.emplace(&stmt, *r);
        return *r;
      }
      correlated_.insert(&stmt);
    }
    return ExecuteSelect(db_, stmt, outer, cost_, opts_);
  }

  bool IsCached(const SelectStmt& stmt) const override {
    return cache_.count(&stmt) > 0;
  }

 private:
  Database* db_;
  sim::CostModel* cost_;
  ExecOptions opts_;
  std::map<const SelectStmt*, QueryResult> cache_;
  std::set<const SelectStmt*> correlated_;
};

/// Shared execution state for one SELECT.
struct Ctx {
  /// Stage spans are on when opts.trace is set, the query is costed and
  /// the session thread has a tracer; access events when opts.trace is
  /// set and the thread has an access log.
  Ctx(Database* db, sim::CostModel* cost, const ExecOptions& opts,
      ExecStats* stats, const EvalScope* outer);

  Database* db = nullptr;
  sim::CostModel* cost = nullptr;
  ExecOptions opts;
  ExecStats* stats = nullptr;
  const EvalScope* outer = nullptr;
  std::unique_ptr<ExecSubqueryRunner> runner;
  std::unique_ptr<Evaluator> eval;
  uint64_t pending_cycles = 0;
  /// True when stage spans go to the current thread's tracer. Untraced
  /// runs keep the seed behavior exactly: charges stay batched until the
  /// single flush at query end.
  bool traced = false;
  /// Non-null when access events are recorded (opts.trace on and an
  /// obs::AccessLog installed on the session thread). Subquery
  /// executions inherit trace=false from ExecSubqueryRunner and so are
  /// excluded, matching the span stream.
  obs::AccessLog* access = nullptr;

  void RecordAccess(obs::AccessKind kind, uint64_t a = 0, uint64_t b = 0) {
    if (access != nullptr) access->Record(kind, a, b);
  }

  void Charge(uint64_t cycles) { pending_cycles += cycles; }

  void FlushCharges() {
    if (cost != nullptr && pending_cycles > 0) {
      cost->ChargeParallelCycles(opts.site, pending_cycles, opts.parallelism);
    }
    pending_cycles = 0;
  }

  void TrackMemory(uint64_t bytes) {
    if (stats != nullptr) {
      stats->peak_memory_bytes = std::max(stats->peak_memory_bytes, bytes);
    }
    if (bytes > opts.memory_cap_bytes) {
      uint64_t overflow = bytes - opts.memory_cap_bytes;
      if (stats != nullptr) stats->spill_bytes += overflow;
      if (cost != nullptr) {
        // Spill: write the overflow out and read it back.
        cost->ChargeDiskWrite(overflow);
        cost->ChargeDiskRead(overflow);
      }
    }
  }
};

/// Pipeline-stage span. Batched CPU cycles are flushed to the cost model
/// on both edges so the span's simulated interval covers the stage's CPU
/// work. Flush points are stage boundaries — the same sequence for every
/// worker count — so traced runs stay deterministic; untraced runs skip
/// the flushes and match the seed's charging bit for bit.
class StageSpan {
 public:
  StageSpan(Ctx* ctx, std::string_view name) : ctx_(ctx) {
    if (ctx_->traced) {
      ctx_->FlushCharges();
      id_ = obs::CurrentTracer()->OpenSpan(name, "sql", ctx_->cost);
      open_ = true;
    }
  }
  ~StageSpan() { Close(); }

  void Close() {
    if (open_) {
      ctx_->FlushCharges();
      obs::CurrentTracer()->CloseSpan(id_, ctx_->cost);
      open_ = false;
    }
  }
  void Tag(std::string_view key, int64_t value) {
    if (open_) obs::CurrentTracer()->AddTag(id_, key, value);
  }
  void Tag(std::string_view key, std::string_view value) {
    if (open_) obs::CurrentTracer()->AddTag(id_, key, value);
  }

  StageSpan(const StageSpan&) = delete;
  StageSpan& operator=(const StageSpan&) = delete;

 private:
  Ctx* ctx_;
  int64_t id_ = -1;
  bool open_ = false;
};

// ---- Expression analysis helpers (exec_internal.cc) ----

struct ConjunctInfo {
  const Expr* expr = nullptr;
  std::set<std::string> columns;
  bool has_subquery = false;
  bool consumed = false;
};

void SplitConjuncts(const Expr* e, std::vector<const Expr*>* out);
void CollectColumns(const Expr& e, std::set<std::string>* cols,
                    bool* has_subquery);
bool ResolvableBy(const std::set<std::string>& cols, const Schema& schema);
std::vector<ConjunctInfo> AnalyzeConjuncts(const Expr* where);
bool HasAggregate(const Expr& e);
void CollectAggregates(const Expr& e,
                       std::map<std::string, const Expr*>* aggs);

/// Clones `e`, replacing any subtree whose printed form is in `names`
/// with a column reference of that name (the post-aggregation schema
/// names its columns by printed expression).
ExprPtr RewriteToColumns(const Expr& e, const std::set<std::string>& names);

/// Best-effort static type inference for output schemas.
Type InferType(const Expr& e, const Schema& schema);

/// Normalized grouping/join key: numerics (except dates) collapse to the
/// double bit pattern so INT 3 and DOUBLE 3.0 group/join together;
/// everything else uses Value::Serialize.
Bytes KeyOf(const std::vector<Value>& values);

/// Number of workers for a parallelizable stage of `work` units. The
/// result depends only on the requested fan-out, the pool's worker cap
/// and the work size — never on thread scheduling — so the partition
/// (and therefore row order and merged cost) is reproducible.
int PlanWorkers(const Ctx& ctx, uint64_t work, uint64_t min_per_worker);

// ---- Predicate placement ----

/// Marks consumed and returns the unconsumed, subquery-free conjuncts
/// that resolve against `schema` alone: the predicates a scan of that
/// relation applies (pushed into the plain engines' scans, masked by
/// the oblivious one).
std::vector<const Expr*> TakePushableFilters(
    std::vector<ConjunctInfo>* conjuncts, const Schema& schema);

/// The conjuncts no scan or join consumed, subquery predicates included:
/// the residual WHERE filter.
std::vector<const Expr*> UnconsumedConjuncts(
    const std::vector<ConjunctInfo>& conjuncts);

struct EquiKey {
  const Expr* left_expr;   // resolves against the left schema
  const Expr* right_expr;  // resolves against the right schema
};

/// The predicates one join applies, split into equi-join keys and
/// residual predicates.
struct JoinPredicates {
  Schema combined;  // left columns, then right columns
  std::vector<EquiKey> keys;
  std::vector<const Expr*> residual;

  /// One side's key expressions, in key order.
  std::vector<const Expr*> KeyExprs(bool left_side) const;
};

/// Gathers the ON clause plus the WHERE conjuncts that resolve against
/// the combined schema but not either input alone (marking those
/// consumed). A subquery-free `a = b` whose sides resolve against
/// opposite inputs becomes an equi-key; everything else is residual.
JoinPredicates AnalyzeJoin(std::vector<ConjunctInfo>* conjuncts,
                           const Expr* on, const Schema& left,
                           const Schema& right);

// ---- Output plan ----

/// What the stages after the WHERE filter compute, derived from the
/// statement alone: the aggregation (if any) and the select list,
/// HAVING and ORDER BY, rewritten to read the aggregation output's
/// columns when the query aggregates.
struct OutputPlan {
  bool aggregated = false;
  std::vector<const Expr*> group_exprs;
  /// Distinct aggregate calls of items, HAVING and ORDER BY, ordered by
  /// printed form (which also names their output columns).
  std::vector<const Expr*> aggs;
  std::vector<SelectItem> items;
  ExprPtr having;
  std::vector<OrderItem> order_by;

  bool star_only() const {
    return items.size() == 1 && items[0].expr->kind == ExprKind::kStar;
  }
};

/// InvalidArgument when HAVING appears without GROUP BY or aggregates.
Result<OutputPlan> PlanOutput(const SelectStmt& stmt);

/// Output schema of the aggregation: group-by expressions, then the
/// aggregates, each named by printed form.
Schema AggregateSchema(const OutputPlan& plan, const Schema& input);

/// Output columns of the projection.
struct OutputColumns {
  Schema schema;
  /// Per ORDER BY key: true when the key does not resolve against the
  /// output schema (e.g. ORDER BY a column that is not projected). Such
  /// keys are evaluated against the pre-projection row and carried as
  /// hidden keys alongside each output row.
  std::vector<bool> order_from_input;
  bool any_hidden = false;
};

/// A lone `*` keeps the input schema. Otherwise an unaliased column
/// reference is named by its unqualified name and any other expression
/// by its printed form. InvalidArgument when `*` is mixed with other
/// items.
Result<OutputColumns> PlanOutputColumns(const OutputPlan& plan,
                                        const Schema& input);

/// A projected result before DISTINCT / ORDER BY / LIMIT.
struct Projection {
  QueryResult result;
  std::vector<bool> order_from_input;  // see OutputColumns
  /// Per output row, the hidden ORDER BY key values (empty when no key
  /// is hidden).
  std::vector<std::vector<Value>> hidden_keys;
};

/// The row and vectorized engines' tail: DISTINCT (first row of each
/// duplicate run wins), then a stable ORDER BY on output-schema keys
/// evaluated on the projected row and hidden keys read from the
/// projection, then LIMIT; finally the query's rows_output, the select
/// span's rows_out tag, the kResult event and the last charge flush.
Result<QueryResult> FinishSelect(Ctx* ctx, const SelectStmt& stmt,
                                 const OutputPlan& plan, Projection proj,
                                 StageSpan* select_span);

// ---- Aggregation state ----

/// Running state of one aggregate call over one group.
struct AggState {
  double sum = 0;
  int64_t isum = 0;
  bool all_int = true;
  uint64_t count = 0;
  Value min, max;
  std::set<std::string> distinct;  // serialized values for DISTINCT

  /// Folds in one non-null argument value of `agg` (any call but
  /// COUNT(*), which the caller counts directly).
  void Add(const Expr& agg, const Value& v);
};

/// One group's output row: its group-by values, then each aggregate's
/// final value (NULL for SUM/AVG/MIN/MAX over no values).
Row AggregateRow(std::vector<Value> group_values,
                 const std::vector<const Expr*>& aggs,
                 const std::vector<AggState>& states);

// ---- Fan-out harnesses ----

/// Bookkeeping every morsel-scan worker keeps; each engine's slice type
/// derives from it and adds the rows or batches the worker produced.
struct MorselSlice {
  uint64_t rows_scanned = 0;
  uint64_t cycles = 0;
  std::optional<sim::CostModel> cost;
  Status status = Status::OK();
  uint64_t unit_begin = 0;
  uint64_t unit_end = 0;
  int64_t wall_start_us = 0;
  int64_t wall_end_us = 0;
};

/// Morsel-driven parallel scan of a base table. The table's morsel
/// units are split into one contiguous range per worker;
/// `scan(slice, cost)` runs on a pool worker over
/// [slice->unit_begin, slice->unit_end) against the slice's private
/// cost model (null when the query is uncosted). After the pool drains
/// the slices merge in range order on the calling thread: scanned rows,
/// cycles and the private cost fold into the query, a traced run adds
/// one `morsel` detail span per worker (its private cost-model elapsed
/// plus the worker's wall window), and `merge(slice, span)` takes the
/// engine's payload (`span` is the detail span's id, -1 when
/// untraced). Merged charges equal the serial charges exactly (cycle
/// counts sum; per-event ns conversion commutes under addition), so
/// results, ExecStats and simulated cost are bit-identical for any
/// worker count. `scan` is a template parameter so its per-row loop
/// compiles inline; the only type-erased call is one per worker.
template <typename Slice, typename ScanFn, typename MergeFn>
Status RunMorsels(Ctx* ctx, Table* table, const ScanFn& scan,
                  const MergeFn& merge) {
  const uint64_t units = table->morsel_units();
  const int workers = PlanWorkers(*ctx, units, kMinScanUnitsPerWorker);
  std::vector<Slice> slices(workers);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(workers);
  obs::Tracer* tracer = ctx->traced ? obs::CurrentTracer() : nullptr;
  for (int w = 0; w < workers; ++w) {
    Slice* slice = &slices[w];
    slice->unit_begin = units * w / workers;
    slice->unit_end = units * (w + 1) / workers;
    if (ctx->cost != nullptr) slice->cost.emplace(ctx->cost->profile());
    tasks.push_back([&scan, slice, tracer] {
      if (tracer != nullptr) slice->wall_start_us = tracer->WallNowUs();
      slice->status = scan(slice, slice->cost ? &*slice->cost : nullptr);
      if (tracer != nullptr) slice->wall_end_us = tracer->WallNowUs();
    });
  }

  // Bracket the scan even single-threaded so page-cache semantics do not
  // depend on the worker count.
  table->BeginParallelScan(workers);
  common::ThreadPool::Shared().RunTasks(tasks);
  table->EndParallelScan();

  for (int w = 0; w < workers; ++w) {
    Slice& s = slices[w];
    RETURN_IF_ERROR(s.status);
    if (ctx->stats != nullptr) ctx->stats->rows_scanned += s.rows_scanned;
    ctx->Charge(s.cycles);
    if (ctx->cost != nullptr && s.cost.has_value()) {
      ctx->cost->MergeChild(*s.cost);
    }
    int64_t span = -1;
    if (tracer != nullptr) {
      span = tracer->AddDetailSpan("morsel", "sql",
                                   s.cost ? s.cost->elapsed_ns() : 0, w,
                                   s.wall_start_us, s.wall_end_us);
      tracer->AddTag(span, "worker", static_cast<int64_t>(w));
      tracer->AddTag(span, "unit_begin", static_cast<int64_t>(s.unit_begin));
      tracer->AddTag(span, "unit_end", static_cast<int64_t>(s.unit_end));
      tracer->AddTag(span, "rows_scanned",
                     static_cast<int64_t>(s.rows_scanned));
    }
    merge(s, span);
  }
  return Status::OK();
}

/// The plain engines' extra `morsel` span tags: rows kept after the
/// pushed filters, CPU cycles and pages decrypted.
void TagMorselKept(int64_t span, const MorselSlice& slice, uint64_t kept);

/// Equi-join key evaluation fan-out: `items` (rows or batches, named by
/// `unit`) are split into one contiguous range per worker, the worker
/// count sized by `work` rows. `keys(lo, hi, &cycles)` runs on a pool
/// worker, writes the keys of items [lo, hi) to disjoint caller-owned
/// slots and adds its per-row cycles. Key expressions are subquery-free
/// (subquery conjuncts never become equi-keys), so workers evaluate with
/// private runner-less evaluators. Worker cycles are charged in worker
/// order, identical to the serial account; a traced run adds one
/// `join-keys` detail span per worker, priced at the query's simulated
/// fan-out on a scratch model (not a real charge).
template <typename KeyFn>
Status RunJoinKeys(Ctx* ctx, size_t items, uint64_t work,
                   std::string_view unit, const KeyFn& keys) {
  struct KeySlice {
    uint64_t cycles = 0;
    Status status = Status::OK();
    size_t lo = 0;
    size_t hi = 0;
    int64_t wall_start_us = 0;
    int64_t wall_end_us = 0;
  };
  const int workers = PlanWorkers(*ctx, work, kMinJoinRowsPerWorker);
  std::vector<KeySlice> slices(workers);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(workers);
  obs::Tracer* tracer = ctx->traced ? obs::CurrentTracer() : nullptr;
  for (int w = 0; w < workers; ++w) {
    KeySlice* slice = &slices[w];
    slice->lo = items * w / workers;
    slice->hi = items * (w + 1) / workers;
    tasks.push_back([&keys, slice, tracer] {
      if (tracer != nullptr) slice->wall_start_us = tracer->WallNowUs();
      slice->status = keys(slice->lo, slice->hi, &slice->cycles);
      if (tracer != nullptr) slice->wall_end_us = tracer->WallNowUs();
    });
  }
  common::ThreadPool::Shared().RunTasks(tasks);
  for (int w = 0; w < workers; ++w) {
    const KeySlice& s = slices[w];
    RETURN_IF_ERROR(s.status);
    ctx->Charge(s.cycles);
    if (tracer != nullptr) {
      sim::SimNanos dur = 0;
      if (ctx->cost != nullptr) {
        sim::CostModel scratch(ctx->cost->profile());
        scratch.ChargeParallelCycles(ctx->opts.site, s.cycles,
                                     ctx->opts.parallelism);
        dur = scratch.elapsed_ns();
      }
      int64_t id = tracer->AddDetailSpan("join-keys", "sql", dur, w,
                                         s.wall_start_us, s.wall_end_us);
      tracer->AddTag(id, "worker", static_cast<int64_t>(w));
      tracer->AddTag(id, std::string(unit) + "_begin",
                     static_cast<int64_t>(s.lo));
      tracer->AddTag(id, std::string(unit) + "_end",
                     static_cast<int64_t>(s.hi));
      tracer->AddTag(id, "cycles", static_cast<int64_t>(s.cycles));
    }
  }
  return Status::OK();
}

/// SELECT without FROM: the items evaluated once against the outer
/// scope. Touches no storage, so it serves every engine (oblivious
/// included) unchanged.
Result<QueryResult> SelectWithoutFrom(Ctx* ctx, const SelectStmt& stmt);

// ---- Engine entry points ----

/// The legacy row-at-a-time volcano engine (executor.cc).
Result<QueryResult> ExecuteSelectRow(Database* db, const SelectStmt& stmt,
                                     const EvalScope* outer,
                                     sim::CostModel* cost,
                                     const ExecOptions& opts,
                                     ExecStats* stats);

/// The batch-at-a-time columnar engine (vector_executor.cc).
Result<QueryResult> ExecuteSelectVectorized(Database* db,
                                            const SelectStmt& stmt,
                                            const EvalScope* outer,
                                            sim::CostModel* cost,
                                            const ExecOptions& opts,
                                            ExecStats* stats);

/// The oblivious mode (oblivious_executor.cc): one dummy-padded pipeline
/// entered for either value of opts.engine — the engine only selects the
/// scan decode path (row cursor vs batch decode), which reads the same
/// pages and charges the same constants, so the two variants are
/// bit-identical in rows, stats, cost and access trace.
Result<QueryResult> ExecuteSelectOblivious(Database* db,
                                           const SelectStmt& stmt,
                                           const EvalScope* outer,
                                           sim::CostModel* cost,
                                           const ExecOptions& opts,
                                           ExecStats* stats);

// ---- The SELECT skeleton ----
//
// RunSelect runs one SELECT with a FROM clause through the stage order
// every engine shares: scan (+ pushed filters) -> joins -> residual
// filter -> aggregation -> HAVING -> projection -> the engine's tail.
// The stage spans, their tags and the stage-boundary access events are
// emitted here, once. `Engine` supplies the relation type and the
// operators, as static members:
//
//   using Rel;        // an intermediate relation with a `schema` member
//   using Projected;  // what Project hands to Finish
//   using Out;        // what Finish returns
//   static constexpr std::string_view kEquiJoinKind;  // join span `kind`
//   static uint64_t Rows(const Rel&);      // the row count stages report
//   static Result<Rel> Derived(Ctx*, const SelectStmt& subquery);
//   static Status Scan(Ctx*, Table* table,  // null: derived rows in *rel
//                      const std::vector<const Expr*>& filters, Rel* rel);
//   static Result<Rel> Join(Ctx*, Rel left, Rel right,
//                           const JoinPredicates&);
//   static Status Filter(Ctx*, Rel*, const std::vector<const Expr*>&);
//   static Result<Rel> Aggregate(Ctx*, Rel, const OutputPlan&);
//   static Status Having(Ctx*, Rel*, const Expr& having);
//   static Status Project(Ctx*, const OutputPlan&, Rel, Projected*);
//   static Result<Out> Finish(Ctx*, const SelectStmt&, const OutputPlan&,
//                             Projected, StageSpan* select_span);
//                    // (the row and vectorized engines: &FinishSelect)
//
// Filter and Aggregate record their own kFilter / kAggregate events: the
// oblivious engine's masked filters record one per predicate pass.

template <typename Engine>
Result<typename Engine::Rel> ScanStage(Ctx* ctx, const TableRef& ref,
                                       std::vector<ConjunctInfo>* conjuncts) {
  StageSpan span(ctx, "scan");
  span.Tag("table", ref.subquery ? "derived:" + ref.alias : ref.table_name);
  ctx->RecordAccess(obs::AccessKind::kScanBegin);
  typename Engine::Rel rel;
  Table* table = nullptr;
  if (ref.subquery) {
    // Derived table: execute, then re-qualify its output by the alias.
    ASSIGN_OR_RETURN(rel, Engine::Derived(ctx, *ref.subquery));
    rel.schema = rel.schema.Qualified(ref.alias);
  } else {
    ASSIGN_OR_RETURN(table, ctx->db->GetTable(ref.table_name));
    rel.schema = table->schema().Qualified(ref.alias);
  }
  RETURN_IF_ERROR(Engine::Scan(
      ctx, table, TakePushableFilters(conjuncts, rel.schema), &rel));
  span.Tag("rows_out", static_cast<int64_t>(Engine::Rows(rel)));
  // Rows after the pushed filters (the plain engines' first selectivity
  // leak; the oblivious engine's padded width).
  ctx->RecordAccess(obs::AccessKind::kScanEnd, Engine::Rows(rel));
  return rel;
}

template <typename Engine>
Result<typename Engine::Rel> JoinStage(Ctx* ctx, typename Engine::Rel left,
                                       typename Engine::Rel right,
                                       std::vector<ConjunctInfo>* conjuncts,
                                       const Expr* on) {
  StageSpan span(ctx, "join");
  span.Tag("left_rows", static_cast<int64_t>(Engine::Rows(left)));
  span.Tag("right_rows", static_cast<int64_t>(Engine::Rows(right)));
  ctx->RecordAccess(obs::AccessKind::kJoinBegin, Engine::Rows(left),
                    Engine::Rows(right));
  JoinPredicates preds = AnalyzeJoin(conjuncts, on, left.schema, right.schema);
  span.Tag("kind", preds.keys.empty() ? std::string_view("nested-loop")
                                      : Engine::kEquiJoinKind);
  ASSIGN_OR_RETURN(typename Engine::Rel out,
                   Engine::Join(ctx, std::move(left), std::move(right), preds));
  span.Tag("rows_out", static_cast<int64_t>(Engine::Rows(out)));
  ctx->RecordAccess(obs::AccessKind::kJoinEnd, Engine::Rows(out),
                    preds.keys.empty() ? 0 : 1);
  return out;
}

template <typename Engine>
Result<typename Engine::Out> RunSelect(Ctx* ctx, const SelectStmt& stmt) {
  using Rel = typename Engine::Rel;
  StageSpan select_span(ctx, "select");
  // The argument marks an oblivious run in the access trace.
  ctx->RecordAccess(obs::AccessKind::kQueryBegin, ctx->opts.oblivious ? 1 : 0);

  std::vector<ConjunctInfo> conjuncts = AnalyzeConjuncts(stmt.where.get());

  // 1. Scan the first relation, then fold in the rest.
  ASSIGN_OR_RETURN(Rel current,
                   ScanStage<Engine>(ctx, stmt.from[0], &conjuncts));
  for (size_t i = 1; i < stmt.from.size(); ++i) {
    ASSIGN_OR_RETURN(Rel next,
                     ScanStage<Engine>(ctx, stmt.from[i], &conjuncts));
    ASSIGN_OR_RETURN(current,
                     JoinStage<Engine>(ctx, std::move(current), std::move(next),
                                       &conjuncts, nullptr));
  }
  for (const JoinClause& join : stmt.joins) {
    ASSIGN_OR_RETURN(Rel next, ScanStage<Engine>(ctx, join.table, &conjuncts));
    ASSIGN_OR_RETURN(current,
                     JoinStage<Engine>(ctx, std::move(current), std::move(next),
                                       &conjuncts, join.on.get()));
  }

  // 2. Residual predicates, including every subquery predicate
  //    (correlated ones see the current row through the scope chain).
  std::vector<const Expr*> residual = UnconsumedConjuncts(conjuncts);
  if (!residual.empty()) {
    StageSpan span(ctx, "filter");
    span.Tag("rows_in", static_cast<int64_t>(Engine::Rows(current)));
    span.Tag("predicates", static_cast<int64_t>(residual.size()));
    RETURN_IF_ERROR(Engine::Filter(ctx, &current, residual));
    span.Tag("rows_out", static_cast<int64_t>(Engine::Rows(current)));
  }

  // 3. Aggregation.
  ASSIGN_OR_RETURN(OutputPlan plan, PlanOutput(stmt));
  if (plan.aggregated) {
    StageSpan span(ctx, "aggregate");
    span.Tag("rows_in", static_cast<int64_t>(Engine::Rows(current)));
    ASSIGN_OR_RETURN(current, Engine::Aggregate(ctx, std::move(current), plan));
    span.Tag("groups", static_cast<int64_t>(Engine::Rows(current)));
  }

  // 4. HAVING.
  if (plan.having) {
    RETURN_IF_ERROR(Engine::Having(ctx, &current, *plan.having));
  }

  // 5. Projection.
  typename Engine::Projected projected;
  {
    StageSpan span(ctx, "project");
    span.Tag("rows", static_cast<int64_t>(Engine::Rows(current)));
    RETURN_IF_ERROR(Engine::Project(ctx, plan, std::move(current), &projected));
  }

  // 6-8. DISTINCT, ORDER BY, LIMIT.
  return Engine::Finish(ctx, stmt, plan, std::move(projected), &select_span);
}

}  // namespace ironsafe::sql::exec

#endif  // IRONSAFE_SQL_EXEC_INTERNAL_H_
