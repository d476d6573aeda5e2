#include <algorithm>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "sql/column_batch.h"
#include "sql/database.h"
#include "sql/exec_internal.h"
#include "sql/oblivious_kernels.h"

/// The oblivious execution mode (docs/OBLIVIOUS.md). One dummy-padded
/// pipeline serves both ExecEngine settings: the engine only selects the
/// scan decode path (row cursor vs batch decode), which touches the same
/// pages in the same order and charges the same constants, so the two
/// variants return bit-identical rows, stats, cost and access traces.
///
/// Obliviousness invariants, enforced at the page/batch/operator-event
/// granularity the access-trace harness observes (tests/oblivious_test.cc):
///  - scans read every morsel unit of each base table in order, with no
///    predicate pushdown narrowing what is fetched;
///  - filters never drop rows — they flip validity flags, so every
///    downstream pass keeps its shape, and conjuncts are never
///    short-circuited (the evaluation count per row is fixed);
///  - sorts run on a bitonic merge network whose compare-exchange
///    sequence is a pure function of the padded size;
///  - equi-joins are sort-merge over both *full* inputs — filtered-out
///    rows participate with their validity flag down, so the merge
///    structure depends only on the join-key multiplicity of the stored
///    data (public), never on predicate selectivity;
///  - aggregation output is padded to its worst-case bound (one group
///    per input row), with null-filled dummy rows for the slack.
/// Row-level arithmetic inside the simulated enclave (expression
/// evaluation, aggregate accumulation) is below this model's
/// granularity; the branch-free discipline is enforced mechanically for
/// the kernels in oblivious_kernels.* by ironsafe_lint.
namespace ironsafe::sql::exec {

namespace {

/// A dummy-padded relation: `rows` always carries well-typed data (real
/// scanned/joined tuples, or null-filled dummies after aggregation);
/// `valid[i]` says whether row i logically exists. Validity never drives
/// control flow inside the pipeline — only the final declassification
/// compacts on it.
struct ORel {
  Schema schema;
  std::vector<Row> rows;
  std::vector<uint8_t> valid;
};

/// Pads `items` to the next power of two with default-constructed
/// sentinels (every sortable item type below defaults to pad = 1, which
/// all comparators order last), runs the bitonic network, charges the
/// exchange count and records the network's shape, then drops the
/// sentinels again. The whole access sequence is a function of
/// items->size() alone.
template <typename T, typename Cmp>
void SortNetwork(Ctx* ctx, std::vector<T>* items, const Cmp& cmp) {
  const size_t n = items->size();
  const size_t padded = NextPow2(std::max<size_t>(n, 1));
  items->resize(padded);
  uint64_t exchanges = BitonicSort(items, cmp);
  ctx->Charge(exchanges * kOblSortCmpCycles);
  ctx->RecordAccess(obs::AccessKind::kSortNetwork, padded, exchanges);
  items->resize(n);
}

int CompareU64(uint64_t a, uint64_t b) {
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

/// A projected padded relation before DISTINCT / ORDER BY / LIMIT.
struct OProjection {
  ORel rel;
  std::vector<bool> order_from_input;  // see OutputColumns
  std::vector<std::vector<Value>> hidden_keys;
};

/// The oblivious mode's operators for RunSelect. Every stage keeps its
/// input's padded width; Rows() reports that width, so the stage tags
/// and access events the skeleton emits are shape-only.
struct OblEngine {
  using Rel = ORel;
  using Projected = OProjection;
  using Out = ORel;
  static constexpr std::string_view kEquiJoinKind = "sort-merge";

  static uint64_t Rows(const ORel& rel) { return rel.rows.size(); }
  static Result<ORel> Derived(Ctx* ctx, const SelectStmt& subquery);
  static Status Scan(Ctx* ctx, Table* table,
                     const std::vector<const Expr*>& filters, ORel* rel);
  static Result<ORel> Join(Ctx* ctx, ORel left, ORel right,
                           const JoinPredicates& preds);
  static Status Filter(Ctx* ctx, ORel* rel,
                       const std::vector<const Expr*>& residual);
  static Result<ORel> Aggregate(Ctx* ctx, ORel input, const OutputPlan& plan);
  static Status Having(Ctx* ctx, ORel* rel, const Expr& having) {
    return Filter(ctx, rel, {&having});
  }
  static Status Project(Ctx* ctx, const OutputPlan& plan, ORel input,
                        OProjection* out);
  static Result<ORel> Finish(Ctx* ctx, const SelectStmt& stmt,
                             const OutputPlan& plan, OProjection proj,
                             StageSpan* select_span);
};

// ---- Scan ----

struct OblScanSlice : MorselSlice {
  std::vector<Row> rows;
  obs::AccessLog access;
};

/// Full-table morsel scan with no pushed filters: every unit is read in
/// table order regardless of values, and each worker records its
/// unit-read events in a private access slice that merges in worker
/// order, so rows, charges and the event sequence are identical for
/// every real worker count. The decode path follows opts.engine (cursor
/// vs batch), but both read the same pages and charge the same flat
/// constant per row — the `cached` decode discount is deliberately not
/// taken, so cost stays engine- and history-independent.
Status ScanTableOblivious(Ctx* ctx, Table* table, ORel* rel) {
  if (table->morsel_units() == 0) {
    // Empty table (or a store without partitioned scans): plain serial
    // cursor over whatever is there — still a full scan.
    auto cursor = table->NewCursor(ctx->cost);
    Row row;
    while (true) {
      ASSIGN_OR_RETURN(bool more, cursor->Next(&row));
      if (!more) break;
      if (ctx->stats != nullptr) ++ctx->stats->rows_scanned;
      ctx->Charge(kOblScanRowCycles);
      rel->rows.push_back(std::move(row));
    }
    rel->valid.assign(rel->rows.size(), 1);
    return Status::OK();
  }

  const bool batch_decode = ctx->opts.engine == ExecEngine::kVectorized;
  const bool record = ctx->access != nullptr;
  RETURN_IF_ERROR(RunMorsels<OblScanSlice>(
      ctx, table,
      [&](OblScanSlice* slice, sim::CostModel* cost) -> Status {
        Row row;
        for (uint64_t unit = slice->unit_begin; unit < slice->unit_end;
             ++unit) {
          uint64_t unit_rows = 0;
          if (batch_decode) {
            ASSIGN_OR_RETURN(DecodedMorsel decoded,
                             table->DecodeMorselBatch(unit, cost));
            const auto& batch = decoded.batch;
            size_t n = batch == nullptr ? 0 : batch->rows();
            for (size_t i = 0; i < n; ++i) {
              batch->MaterializeRow(i, &row);
              slice->rows.push_back(row);
            }
            unit_rows = n;
          } else {
            auto cursor = table->NewMorselCursor(unit, unit + 1, cost);
            while (true) {
              ASSIGN_OR_RETURN(bool more, cursor->Next(&row));
              if (!more) break;
              ++unit_rows;
              slice->rows.push_back(std::move(row));
            }
          }
          slice->rows_scanned += unit_rows;
          slice->cycles += unit_rows * kOblScanRowCycles;
          if (record) {
            slice->access.Record(obs::AccessKind::kUnitRead, unit, unit_rows);
          }
        }
        return Status::OK();
      },
      [&](OblScanSlice& s, int64_t /*span*/) {
        if (ctx->access != nullptr) ctx->access->Append(s.access);
        rel->rows.insert(rel->rows.end(),
                         std::make_move_iterator(s.rows.begin()),
                         std::make_move_iterator(s.rows.end()));
      }));
  rel->valid.assign(rel->rows.size(), 1);
  return Status::OK();
}

/// Evaluates `exprs` on every row (valid and dummy alike, with no
/// short-circuiting, so the evaluation count per row is fixed) and ANDs
/// the outcome into the validity flags. Rows are never dropped.
Status OblEngine::Filter(Ctx* ctx, ORel* rel,
                         const std::vector<const Expr*>& exprs) {
  if (exprs.empty()) return Status::OK();
  const size_t n = rel->rows.size();
  ctx->Charge(static_cast<uint64_t>(n) * exprs.size() * kOblFilterRowCycles);
  std::vector<uint8_t> pass(n, 1);
  for (size_t i = 0; i < n; ++i) {
    EvalScope scope{&rel->schema, &rel->rows[i], ctx->outer};
    for (const Expr* e : exprs) {
      ASSIGN_OR_RETURN(bool ok, ctx->eval->EvalBool(*e, scope));
      pass[i] = static_cast<uint8_t>(pass[i] & static_cast<uint8_t>(ok));
    }
  }
  MaskedFilterUpdate(&rel->valid, pass);
  ctx->RecordAccess(obs::AccessKind::kFilter, n, n);
  return Status::OK();
}

/// Derived table: the subquery's *padded* relation flows through — its
/// width is shape-derived, so the outer pipeline never sees the
/// (value-dependent) compacted row count. As in the plain engines, the
/// inner pipeline charges the shared cost model but not the outer
/// ExecStats; the derived relation's valid rows count as scanned.
Result<ORel> OblEngine::Derived(Ctx* ctx, const SelectStmt& subquery) {
  Ctx inner(ctx->db, ctx->cost, ctx->opts, /*stats=*/nullptr, ctx->outer);
  ORel rel;
  if (subquery.from.empty()) {
    ASSIGN_OR_RETURN(QueryResult sub, SelectWithoutFrom(&inner, subquery));
    rel.schema = std::move(sub.schema);
    rel.rows = std::move(sub.rows);
    rel.valid.assign(rel.rows.size(), 1);
  } else {
    ASSIGN_OR_RETURN(rel, RunSelect<OblEngine>(&inner, subquery));
  }
  if (ctx->stats != nullptr) {
    ctx->stats->rows_scanned += MaskedCount(rel.valid);
  }
  ctx->Charge(rel.rows.size() * kOblScanRowCycles);
  return rel;
}

/// The conjuncts the plain engines push into the scan are applied here
/// as a validity mask instead — same consumption bookkeeping, but the
/// fetch never depended on them.
Status OblEngine::Scan(Ctx* ctx, Table* table,
                       const std::vector<const Expr*>& filters, ORel* rel) {
  if (table != nullptr) RETURN_IF_ERROR(ScanTableOblivious(ctx, table, rel));
  return Filter(ctx, rel, filters);
}

// ---- Join ----

/// Sortable join-side item. Default-constructed items are network
/// padding and order last.
struct JoinItem {
  std::string key;
  uint64_t seq = 0;
  uint8_t pad = 1;
  uint8_t valid = 0;
  Row row;
};

int CompareJoinItems(const JoinItem& a, const JoinItem& b) {
  if (a.pad != b.pad) return a.pad < b.pad ? -1 : 1;
  int c = a.key.compare(b.key);
  if (c != 0) return c;
  return CompareU64(a.seq, b.seq);
}

/// Evaluates the equi-key expressions for every row of `rel` — valid
/// and invalid alike — into sortable items. Key expressions are
/// subquery-free by construction, so a runner-less evaluator suffices.
Result<std::vector<JoinItem>> ComputeJoinItems(
    Ctx* ctx, const ORel& rel, const std::vector<const Expr*>& exprs) {
  std::vector<JoinItem> items(rel.rows.size());
  ctx->Charge(rel.rows.size() * kOblMergeRowCycles);
  Evaluator eval(nullptr);
  std::vector<Value> kv;
  for (size_t i = 0; i < rel.rows.size(); ++i) {
    EvalScope scope{&rel.schema, &rel.rows[i], ctx->outer};
    kv.clear();
    kv.reserve(exprs.size());
    for (const Expr* e : exprs) {
      ASSIGN_OR_RETURN(Value v, eval.Eval(*e, scope));
      kv.push_back(std::move(v));
    }
    Bytes key = KeyOf(kv);
    items[i].key.assign(key.begin(), key.end());
    items[i].seq = i;
    items[i].pad = 0;
    items[i].valid = rel.valid[i];
    items[i].row = rel.rows[i];
  }
  return items;
}

/// Sort-merge join over both full inputs. Every row participates in the
/// sort and merge whether or not upstream filters invalidated it; an
/// output pair is valid only when both parents are. The merge structure
/// therefore depends on the stored data's join-key multiplicity (public
/// shape), never on predicate selectivity. Non-equi joins fall back to
/// the full cross product — all nl*nr pairs, validity-masked.
Result<ORel> OblEngine::Join(Ctx* ctx, ORel left, ORel right,
                             const JoinPredicates& preds) {
  ctx->TrackMemory(TotalRowBytes(left.rows) + TotalRowBytes(right.rows));

  ORel out;
  out.schema = preds.combined;
  if (!preds.keys.empty()) {
    ASSIGN_OR_RETURN(std::vector<JoinItem> litems,
                     ComputeJoinItems(ctx, left, preds.KeyExprs(true)));
    ASSIGN_OR_RETURN(std::vector<JoinItem> ritems,
                     ComputeJoinItems(ctx, right, preds.KeyExprs(false)));
    SortNetwork(ctx, &litems, CompareJoinItems);
    SortNetwork(ctx, &ritems, CompareJoinItems);

    // Group-wise merge in key order; within a key group pairs emit in
    // (left seq, right seq) order, so the output is deterministic.
    const size_t nl = litems.size();
    const size_t nr = ritems.size();
    size_t i = 0, j = 0;
    while (i < nl && j < nr) {
      int c = litems[i].key.compare(ritems[j].key);
      if (c < 0) {
        ++i;
        continue;
      }
      if (c > 0) {
        ++j;
        continue;
      }
      size_t i2 = i;
      while (i2 < nl && litems[i2].key == litems[i].key) ++i2;
      size_t j2 = j;
      while (j2 < nr && ritems[j2].key == ritems[j].key) ++j2;
      for (size_t li = i; li < i2; ++li) {
        for (size_t rj = j; rj < j2; ++rj) {
          Row joined = litems[li].row;
          joined.insert(joined.end(), ritems[rj].row.begin(),
                        ritems[rj].row.end());
          out.rows.push_back(std::move(joined));
          out.valid.push_back(
              static_cast<uint8_t>(litems[li].valid & ritems[rj].valid));
        }
      }
      i = i2;
      j = j2;
    }
    ctx->Charge((nl + nr + out.rows.size()) * kOblMergeRowCycles);
    ctx->RecordAccess(obs::AccessKind::kJoinMerge, out.rows.size(), 1);
  } else {
    // Cross product of both full inputs.
    out.rows.reserve(left.rows.size() * right.rows.size());
    for (size_t li = 0; li < left.rows.size(); ++li) {
      for (size_t rj = 0; rj < right.rows.size(); ++rj) {
        Row joined = left.rows[li];
        joined.insert(joined.end(), right.rows[rj].begin(),
                      right.rows[rj].end());
        out.rows.push_back(std::move(joined));
        out.valid.push_back(
            static_cast<uint8_t>(left.valid[li] & right.valid[rj]));
      }
    }
    ctx->Charge(out.rows.size() * kOblMergeRowCycles);
    ctx->RecordAccess(obs::AccessKind::kJoinMerge, out.rows.size(), 0);
  }

  RETURN_IF_ERROR(Filter(ctx, &out, preds.residual));
  return out;
}

// ---- Aggregation ----

Status AccumulateAgg(Ctx* ctx, const Schema& schema, const Row& row,
                     const std::vector<const Expr*>& aggs,
                     std::vector<AggState>* states) {
  EvalScope scope{&schema, &row, ctx->outer};
  for (size_t i = 0; i < aggs.size(); ++i) {
    const Expr* a = aggs[i];
    if (a->agg_func == AggFunc::kCountStar) {
      ++(*states)[i].count;
      continue;
    }
    ASSIGN_OR_RETURN(Value v, ctx->eval->Eval(*a->args[0], scope));
    if (!v.is_null()) (*states)[i].Add(*a, v);
  }
  return Status::OK();
}

/// Sortable aggregation item; defaults are network padding.
struct AggItem {
  std::string key;
  uint64_t seq = 0;
  uint8_t pad = 1;
  uint8_t valid = 0;
  Row row;
  std::vector<Value> gvals;
};

int CompareAggItems(const AggItem& a, const AggItem& b) {
  if (a.pad != b.pad) return a.pad < b.pad ? -1 : 1;
  // Valid rows first so true groups are contiguous prefixes.
  if (a.valid != b.valid) return a.valid > b.valid ? -1 : 1;
  int c = a.key.compare(b.key);
  if (c != 0) return c;
  return CompareU64(a.seq, b.seq);
}

/// Oblivious grouped aggregation: sort all rows by (validity, group
/// key) on the network, then one fixed-length pass accumulates groups
/// and emits each group's result at its last position. The output is
/// padded to the worst-case bound — one group per input row — with
/// null-filled dummy rows for the slack; compacting the valid rows
/// yields exactly the plain engines' map-ordered output. A global
/// aggregate (no GROUP BY) has the public output width 1 and needs no
/// sort.
Result<ORel> OblEngine::Aggregate(Ctx* ctx, ORel input,
                                  const OutputPlan& plan) {
  ORel out;
  out.schema = AggregateSchema(plan, input.schema);
  const std::vector<const Expr*>& aggs = plan.aggs;

  const size_t n = input.rows.size();
  ctx->Charge(static_cast<uint64_t>(n) * kOblAggRowCycles);

  if (plan.group_exprs.empty()) {
    // Global aggregate: one output row always exists, even over zero
    // valid inputs (matching the plain engines' empty-group special
    // case).
    std::vector<AggState> states(aggs.size());
    for (size_t i = 0; i < n; ++i) {
      if (!input.valid[i]) continue;
      RETURN_IF_ERROR(
          AccumulateAgg(ctx, input.schema, input.rows[i], aggs, &states));
    }
    out.rows.push_back(AggregateRow({}, aggs, states));
    out.valid.push_back(1);
    ctx->RecordAccess(obs::AccessKind::kAggregate, n, 1);
    return out;
  }

  std::vector<AggItem> items(n);
  for (size_t i = 0; i < n; ++i) {
    EvalScope scope{&input.schema, &input.rows[i], ctx->outer};
    std::vector<Value> gvals;
    gvals.reserve(plan.group_exprs.size());
    for (const Expr* g : plan.group_exprs) {
      ASSIGN_OR_RETURN(Value v, ctx->eval->Eval(*g, scope));
      gvals.push_back(std::move(v));
    }
    Bytes key = KeyOf(gvals);
    items[i].key.assign(key.begin(), key.end());
    items[i].seq = i;
    items[i].pad = 0;
    items[i].valid = input.valid[i];
    items[i].row = std::move(input.rows[i]);
    items[i].gvals = std::move(gvals);
  }
  SortNetwork(ctx, &items, CompareAggItems);

  const Row dummy(out.schema.size(), Value::Null());
  out.rows.assign(n, dummy);
  out.valid.assign(n, 0);
  std::vector<AggState> states;
  std::vector<Value> cur_gvals;
  for (size_t i = 0; i < n; ++i) {
    const AggItem& item = items[i];
    bool starts_group =
        item.valid != 0 && (i == 0 || items[i - 1].valid == 0 ||
                            items[i - 1].key != item.key);
    if (starts_group) {
      states.assign(aggs.size(), AggState{});
      cur_gvals = item.gvals;
    }
    if (item.valid != 0) {
      RETURN_IF_ERROR(
          AccumulateAgg(ctx, input.schema, item.row, aggs, &states));
    }
    bool ends_group =
        item.valid != 0 && (i + 1 == n || items[i + 1].valid == 0 ||
                            items[i + 1].key != item.key);
    if (ends_group) {
      out.rows[i] = AggregateRow(cur_gvals, aggs, states);
      out.valid[i] = 1;
    }
  }
  ctx->RecordAccess(obs::AccessKind::kAggregate, n, n);
  return out;
}

// ---- Projection ----

/// Projection over every row, dummies included (dummy rows carry
/// well-typed data — real tuples or nulls — so item expressions evaluate
/// uniformly). Hidden ORDER BY keys ride along as in the plain engines.
Status OblEngine::Project(Ctx* ctx, const OutputPlan& plan, ORel input,
                          OProjection* out) {
  ctx->Charge(input.rows.size() * kOblProjectRowCycles);
  ctx->RecordAccess(obs::AccessKind::kProject, input.rows.size());
  ASSIGN_OR_RETURN(OutputColumns cols, PlanOutputColumns(plan, input.schema));
  ORel& projected = out->rel;
  projected.schema = std::move(cols.schema);
  out->order_from_input = std::move(cols.order_from_input);
  if (plan.star_only()) {
    projected.rows = std::move(input.rows);
    projected.valid = std::move(input.valid);
    return Status::OK();
  }
  for (size_t i = 0; i < input.rows.size(); ++i) {
    EvalScope scope{&input.schema, &input.rows[i], ctx->outer};
    Row out_row;
    out_row.reserve(plan.items.size());
    for (const SelectItem& item : plan.items) {
      ASSIGN_OR_RETURN(Value v, ctx->eval->Eval(*item.expr, scope));
      out_row.push_back(std::move(v));
    }
    if (cols.any_hidden) {
      std::vector<Value> hk;
      for (size_t k = 0; k < plan.order_by.size(); ++k) {
        if (!out->order_from_input[k]) continue;
        ASSIGN_OR_RETURN(Value v,
                         ctx->eval->Eval(*plan.order_by[k].expr, scope));
        hk.push_back(std::move(v));
      }
      out->hidden_keys.push_back(std::move(hk));
    }
    projected.rows.push_back(std::move(out_row));
    projected.valid.push_back(input.valid[i]);
  }
  return Status::OK();
}

// ---- DISTINCT / ORDER BY / LIMIT ----

/// A projected output row bundled with its hidden ORDER BY keys and
/// provenance, sortable on the network; defaults are padding.
struct OutItem {
  Row row;
  std::vector<Value> hidden;
  std::vector<Value> order_keys;
  std::string dedupe_key;
  uint64_t seq = 0;
  uint8_t pad = 1;
  uint8_t valid = 0;
};

/// DISTINCT and ORDER BY share one sortable bundle; LIMIT keeps the
/// first `limit` valid rows by mask.
Result<ORel> OblEngine::Finish(Ctx* ctx, const SelectStmt& stmt,
                               const OutputPlan& plan, OProjection proj,
                               StageSpan* select_span) {
  ORel& projected = proj.rel;
  const std::vector<OrderItem>& order_by = plan.order_by;
  const size_t n_out = projected.rows.size();
  if (stmt.distinct || !order_by.empty()) {
    std::vector<OutItem> bundle(n_out);
    for (size_t i = 0; i < n_out; ++i) {
      OutItem& it = bundle[i];
      it.seq = i;
      it.pad = 0;
      it.valid = projected.valid[i];
      it.row = std::move(projected.rows[i]);
      if (i < proj.hidden_keys.size()) {
        it.hidden = std::move(proj.hidden_keys[i]);
      }
      if (stmt.distinct) {
        Bytes key = KeyOf(it.row);
        it.dedupe_key.assign(key.begin(), key.end());
      }
    }

    if (stmt.distinct) {
      // Sort by the visible row so duplicates are adjacent, then mask
      // every valid repeat; the first of each run (lowest seq) wins.
      auto cmp = [](const OutItem& a, const OutItem& b) {
        if (a.pad != b.pad) return a.pad < b.pad ? -1 : 1;
        if (a.valid != b.valid) return a.valid > b.valid ? -1 : 1;
        int c = a.dedupe_key.compare(b.dedupe_key);
        if (c != 0) return c;
        return CompareU64(a.seq, b.seq);
      };
      SortNetwork(ctx, &bundle, cmp);
      for (size_t i = 0; i < bundle.size(); ++i) {
        bool dup = bundle[i].valid != 0 && i > 0 && bundle[i - 1].valid != 0 &&
                   bundle[i - 1].dedupe_key == bundle[i].dedupe_key;
        if (dup) bundle[i].valid = 0;
      }
      ctx->RecordAccess(obs::AccessKind::kDistinct, bundle.size(),
                        bundle.size());
    }

    if (!order_by.empty()) {
      StageSpan sort_span(ctx, "sort");
      sort_span.Tag("rows", static_cast<int64_t>(bundle.size()));
      for (size_t i = 0; i < bundle.size(); ++i) {
        OutItem& it = bundle[i];
        it.order_keys.clear();
        EvalScope scope{&projected.schema, &it.row, ctx->outer};
        size_t hidden_pos = 0;
        for (size_t k = 0; k < order_by.size(); ++k) {
          if (proj.order_from_input[k]) {
            it.order_keys.push_back(it.hidden[hidden_pos++]);
            continue;
          }
          ASSIGN_OR_RETURN(Value v, ctx->eval->Eval(*order_by[k].expr, scope));
          it.order_keys.push_back(std::move(v));
        }
      }
      auto cmp = [&order_by](const OutItem& a, const OutItem& b) {
        if (a.pad != b.pad) return a.pad < b.pad ? -1 : 1;
        if (a.pad != 0) return 0;  // two padding items carry no keys
        if (a.valid != b.valid) return a.valid > b.valid ? -1 : 1;
        for (size_t k = 0; k < order_by.size(); ++k) {
          int c = a.order_keys[k].Compare(b.order_keys[k]);
          if (c != 0) return order_by[k].desc ? -c : c;
        }
        return CompareU64(a.seq, b.seq);
      };
      SortNetwork(ctx, &bundle, cmp);
    }

    for (size_t i = 0; i < bundle.size(); ++i) {
      projected.rows[i] = std::move(bundle[i].row);
      projected.valid[i] = bundle[i].valid;
    }
    ctx->TrackMemory(TotalRowBytes(projected.rows));
  }

  if (stmt.limit >= 0) {
    MaskedLimit(&projected.valid, static_cast<uint64_t>(stmt.limit));
  }

  select_span->Tag("rows_out", static_cast<int64_t>(projected.rows.size()));
  ctx->RecordAccess(obs::AccessKind::kResult, projected.rows.size());
  ctx->FlushCharges();
  return std::move(projected);
}

}  // namespace

Result<QueryResult> ExecuteSelectOblivious(Database* db,
                                           const SelectStmt& stmt,
                                           const EvalScope* outer,
                                           sim::CostModel* cost,
                                           const ExecOptions& opts,
                                           ExecStats* stats) {
  Ctx ctx(db, cost, opts, stats, outer);
  // SELECT without FROM touches no storage, so the shared scalar path is
  // trivially oblivious.
  if (stmt.from.empty()) return SelectWithoutFrom(&ctx, stmt);
  ASSIGN_OR_RETURN(ORel padded, RunSelect<OblEngine>(&ctx, stmt));
  // Declassification: compact the valid rows, in padded order. The
  // result width is the query's (public) answer size; everything before
  // this point had shape-only width.
  QueryResult result;
  result.schema = std::move(padded.schema);
  uint64_t valid = MaskedCount(padded.valid);
  result.rows.reserve(valid);
  for (size_t i = 0; i < padded.rows.size(); ++i) {
    if (padded.valid[i] != 0) result.rows.push_back(std::move(padded.rows[i]));
  }
  if (stats != nullptr) stats->rows_output += result.rows.size();
  return result;
}

}  // namespace ironsafe::sql::exec
