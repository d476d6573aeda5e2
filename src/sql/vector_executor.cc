#include <map>
#include <unordered_map>

#include "sql/database.h"
#include "sql/exec_internal.h"
#include "sql/vector_eval.h"

namespace ironsafe::sql::exec {

namespace {

// Per-active-row work constants (cycles) of the vectorized engine. They
// are deliberately cheaper than the row engine's: a batch kernel touches
// a dense payload array instead of boxing every cell, so the simulated
// CPU prices the same logical work lower. Per-batch overhead covers the
// kernel dispatch and selection-vector bookkeeping. The charges are flat
// per active row regardless of whether a kernel or the scalar fallback
// ran, keeping cost totals independent of fast-path coverage.
constexpr uint64_t kVecDecodeRowCycles = 60;        ///< fresh page decode
constexpr uint64_t kVecDecodeCachedRowCycles = 10;  ///< decoded-batch hit
constexpr uint64_t kVecFilterRowCycles = 24;
constexpr uint64_t kVecJoinBuildRowCycles = 60;
constexpr uint64_t kVecJoinProbeRowCycles = 80;
constexpr uint64_t kVecAggRowCycles = 70;
constexpr uint64_t kVecProjectRowCycles = 40;
constexpr uint64_t kVecGatherRowCycles = 12;  ///< per materialized row
constexpr uint64_t kVecBatchCycles = 256;     ///< per batch per operator pass

SelVec FullSel(size_t n) {
  SelVec sel(n);
  for (size_t i = 0; i < n; ++i) sel[i] = static_cast<uint32_t>(i);
  return sel;
}

/// A relation as a sequence of column batches with selection vectors —
/// the vectorized engine's intermediate representation.
struct VecRel {
  Schema schema;
  std::vector<VecBatch> batches;

  size_t ActiveRows() const {
    size_t n = 0;
    for (const VecBatch& b : batches) n += b.active();
    return n;
  }
  /// Working-set bytes of the active rows under the row engine's
  /// accounting (RowBytes), so spill/EPC behaviour matches it exactly.
  uint64_t ActiveBytes() const {
    uint64_t total = 0;
    for (const VecBatch& b : batches) {
      for (uint32_t i : b.sel) total += b.batch->row_bytes(i);
    }
    return total;
  }
};

/// Accumulates rows into fresh kBatchRows-sized batches (full selection).
class VecRelBuilder {
 public:
  explicit VecRelBuilder(VecRel* rel) : rel_(rel) {}
  ~VecRelBuilder() { Flush(); }

  void Append(const Row& row) {
    if (cur_ == nullptr) {
      cur_ = std::make_shared<ColumnBatch>(rel_->schema.size());
    }
    cur_->AppendRow(row);
    if (cur_->rows() >= ColumnBatch::kBatchRows) Flush();
  }

  void Flush() {
    if (cur_ == nullptr || cur_->rows() == 0) return;
    size_t n = cur_->rows();
    rel_->batches.push_back(VecBatch{std::move(cur_), FullSel(n)});
    cur_ = nullptr;
  }

 private:
  VecRel* rel_;
  std::shared_ptr<ColumnBatch> cur_;
};

/// The batch-at-a-time columnar engine's operators for RunSelect:
/// intermediates are column batches narrowed by selection vectors, and
/// filters, join keys, aggregate inputs and projections evaluate a batch
/// at a time (with a scalar fallback for subqueries).
struct VecEngine {
  using Rel = VecRel;
  using Projected = Projection;
  using Out = QueryResult;
  static constexpr std::string_view kEquiJoinKind = "hash";

  static uint64_t Rows(const VecRel& rel) { return rel.ActiveRows(); }
  static Result<VecRel> Derived(Ctx* ctx, const SelectStmt& subquery);
  static Status Scan(Ctx* ctx, Table* table,
                     const std::vector<const Expr*>& filters, VecRel* rel);
  static Result<VecRel> Join(Ctx* ctx, VecRel left, VecRel right,
                             const JoinPredicates& preds);
  static Status Filter(Ctx* ctx, VecRel* rel,
                       const std::vector<const Expr*>& residual);
  static Result<VecRel> Aggregate(Ctx* ctx, VecRel input,
                                  const OutputPlan& plan);
  static Status Having(Ctx* ctx, VecRel* rel, const Expr& having);
  static Status Project(Ctx* ctx, const OutputPlan& plan, VecRel input,
                        Projection* out);
  static constexpr auto Finish = &FinishSelect;
};

// ---- Scan ----

struct VecScanSlice : MorselSlice {
  std::vector<VecBatch> batches;
};

/// Morsel-parallel batch scan: each worker decodes the batches of its
/// contiguous unit range (decoded-batch cache hits charge the cheap
/// constant) and narrows their selections with the pushed filters.
/// Batch boundaries are unit boundaries, so batch contents, charges and
/// the merged batch order depend only on the table — never the worker
/// count.
Status ScanTableBatches(Ctx* ctx, Table* table,
                        const std::vector<const Expr*>& filters,
                        VecRel* rel) {
  const Schema* schema = &rel->schema;
  const EvalScope* outer = ctx->outer;
  return RunMorsels<VecScanSlice>(
      ctx, table,
      [&](VecScanSlice* slice, sim::CostModel* cost) -> Status {
        // Pushed-down filters are subquery-free, so a runner-less
        // evaluator backs the kernel fallback.
        Evaluator fallback(nullptr);
        VectorEvaluator veval(&fallback, schema, outer);
        for (uint64_t unit = slice->unit_begin; unit < slice->unit_end;
             ++unit) {
          ASSIGN_OR_RETURN(DecodedMorsel decoded,
                           table->DecodeMorselBatch(unit, cost));
          const auto& batch = decoded.batch;
          if (batch == nullptr || batch->rows() == 0) continue;
          size_t n = batch->rows();
          slice->rows_scanned += n;
          slice->cycles +=
              kVecBatchCycles + n * (decoded.cached ? kVecDecodeCachedRowCycles
                                                    : kVecDecodeRowCycles);
          SelVec sel = FullSel(n);
          for (const Expr* f : filters) {
            slice->cycles += kVecBatchCycles + sel.size() * kVecFilterRowCycles;
            RETURN_IF_ERROR(veval.Filter(*f, *batch, &sel));
            if (sel.empty()) break;
          }
          if (!sel.empty()) {
            slice->batches.push_back(VecBatch{batch, std::move(sel)});
          }
        }
        return Status::OK();
      },
      [&](VecScanSlice& s, int64_t span) {
        if (span >= 0) {
          uint64_t kept = 0;
          for (const VecBatch& b : s.batches) kept += b.active();
          TagMorselKept(span, s, kept);
        }
        for (VecBatch& b : s.batches) rel->batches.push_back(std::move(b));
      });
}

Result<VecRel> VecEngine::Derived(Ctx* ctx, const SelectStmt& subquery) {
  ASSIGN_OR_RETURN(QueryResult sub, ExecuteSelect(ctx->db, subquery, ctx->outer,
                                                  ctx->cost, ctx->opts));
  // Re-batch the subquery output; Scan then filters it.
  VecRel rel;
  rel.schema = std::move(sub.schema);
  {
    VecRelBuilder builder(&rel);
    for (const Row& row : sub.rows) builder.Append(row);
  }
  return rel;
}

Status VecEngine::Scan(Ctx* ctx, Table* table,
                       const std::vector<const Expr*>& filters, VecRel* rel) {
  if (table != nullptr) {
    // An empty table has no morsel units and nothing to decode.
    if (table->morsel_units() == 0) return Status::OK();
    return ScanTableBatches(ctx, table, filters, rel);
  }
  // Derived table: the re-batched rows count as scanned.
  if (ctx->stats != nullptr) ctx->stats->rows_scanned += rel->ActiveRows();
  Evaluator fallback(nullptr);
  VectorEvaluator veval(&fallback, &rel->schema, ctx->outer);
  std::vector<VecBatch> kept;
  for (VecBatch& b : rel->batches) {
    ctx->Charge(kVecBatchCycles + b.active() * kVecDecodeRowCycles);
    for (const Expr* f : filters) {
      ctx->Charge(kVecBatchCycles + b.active() * kVecFilterRowCycles);
      RETURN_IF_ERROR(veval.Filter(*f, *b.batch, &b.sel));
      if (b.sel.empty()) break;
    }
    if (!b.sel.empty()) kept.push_back(std::move(b));
  }
  rel->batches = std::move(kept);
  return Status::OK();
}

// ---- Join ----

/// Normalized join keys of every active row of `rel`, one string per
/// active row in batch order, one contiguous batch range per worker.
Result<std::vector<std::vector<std::string>>> ComputeBatchKeys(
    Ctx* ctx, const VecRel& rel, const std::vector<const Expr*>& exprs,
    uint64_t per_row_cycles) {
  std::vector<std::vector<std::string>> out(rel.batches.size());
  const EvalScope* outer = ctx->outer;
  auto keys_of = [&](size_t lo, size_t hi, uint64_t* cycles) -> Status {
    Evaluator fallback(nullptr);
    VectorEvaluator veval(&fallback, &rel.schema, outer);
    std::vector<VecCol> cols(exprs.size());
    Bytes key;
    for (size_t bi = lo; bi < hi; ++bi) {
      const VecBatch& b = rel.batches[bi];
      size_t n = b.active();
      *cycles += kVecBatchCycles + n * per_row_cycles;
      for (size_t e = 0; e < exprs.size(); ++e) {
        RETURN_IF_ERROR(veval.Eval(*exprs[e], *b.batch, b.sel, &cols[e]));
      }
      std::vector<std::string>& keys = out[bi];
      keys.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        key.clear();
        for (const VecCol& c : cols) AppendNormalizedKey(c, i, &key);
        keys.emplace_back(key.begin(), key.end());
      }
    }
    return Status::OK();
  };
  RETURN_IF_ERROR(RunJoinKeys(ctx, rel.batches.size(), rel.ActiveRows(),
                              "batch", keys_of));
  return out;
}

Result<VecRel> VecEngine::Join(Ctx* ctx, VecRel left, VecRel right,
                               const JoinPredicates& preds) {
  VecRel out;
  out.schema = preds.combined;
  VecRelBuilder builder(&out);

  Row joined;
  auto emit = [&](const Row& l, const Row& r) -> Status {
    joined = l;
    joined.insert(joined.end(), r.begin(), r.end());
    EvalScope scope{&out.schema, &joined, ctx->outer};
    for (const Expr* e : preds.residual) {
      ctx->Charge(kVecFilterRowCycles);
      ASSIGN_OR_RETURN(bool ok, ctx->eval->EvalBool(*e, scope));
      if (!ok) return Status::OK();
    }
    ctx->Charge(kVecGatherRowCycles);
    builder.Append(joined);
    return Status::OK();
  };

  if (!preds.keys.empty()) {
    bool build_right = right.ActiveBytes() <= left.ActiveBytes();
    const VecRel& build = build_right ? right : left;
    const VecRel& probe = build_right ? left : right;

    ASSIGN_OR_RETURN(auto build_keys,
                     ComputeBatchKeys(ctx, build, preds.KeyExprs(!build_right),
                                      kVecJoinBuildRowCycles));
    // Build rows materialize once; the hash table maps key -> indices.
    std::vector<Row> build_rows;
    build_rows.reserve(build.ActiveRows());
    std::unordered_map<std::string, std::vector<size_t>> table;
    table.reserve(build.ActiveRows());
    for (size_t bi = 0; bi < build.batches.size(); ++bi) {
      const VecBatch& b = build.batches[bi];
      for (size_t i = 0; i < b.active(); ++i) {
        Row r;
        b.batch->MaterializeRow(b.sel[i], &r);
        table[build_keys[bi][i]].push_back(build_rows.size());
        build_rows.push_back(std::move(r));
      }
    }
    ctx->TrackMemory(build.ActiveBytes());

    ASSIGN_OR_RETURN(auto probe_keys,
                     ComputeBatchKeys(ctx, probe, preds.KeyExprs(build_right),
                                      kVecJoinProbeRowCycles));
    Row prow;
    for (size_t pi = 0; pi < probe.batches.size(); ++pi) {
      const VecBatch& b = probe.batches[pi];
      for (size_t i = 0; i < b.active(); ++i) {
        auto it = table.find(probe_keys[pi][i]);
        if (it == table.end()) continue;
        b.batch->MaterializeRow(b.sel[i], &prow);
        ctx->Charge(kVecGatherRowCycles);
        for (size_t ri : it->second) {
          const Row& l = build_right ? prow : build_rows[ri];
          const Row& r = build_right ? build_rows[ri] : prow;
          RETURN_IF_ERROR(emit(l, r));
        }
      }
    }
  } else {
    // Nested loop: materialize the inner side once, stream the outer.
    ctx->TrackMemory(right.ActiveBytes());
    std::vector<Row> right_rows;
    right_rows.reserve(right.ActiveRows());
    Row tmp;
    for (const VecBatch& b : right.batches) {
      for (uint32_t i : b.sel) {
        b.batch->MaterializeRow(i, &tmp);
        right_rows.push_back(tmp);
      }
    }
    Row lrow;
    for (const VecBatch& b : left.batches) {
      for (uint32_t i : b.sel) {
        b.batch->MaterializeRow(i, &lrow);
        for (const Row& r : right_rows) {
          ctx->Charge(kVecJoinProbeRowCycles);
          RETURN_IF_ERROR(emit(lrow, r));
        }
      }
    }
  }
  builder.Flush();
  return out;
}

// ---- Filter / HAVING ----

/// Residual predicates narrow the selections batch by batch; the scalar
/// fallback handles (possibly correlated) subqueries.
Status VecEngine::Filter(Ctx* ctx, VecRel* rel,
                         const std::vector<const Expr*>& residual) {
  uint64_t rows_in = rel->ActiveRows();
  VectorEvaluator veval(ctx->eval.get(), &rel->schema, ctx->outer);
  std::vector<VecBatch> kept;
  for (VecBatch& b : rel->batches) {
    for (const Expr* e : residual) {
      ctx->Charge(kVecBatchCycles + b.active() * kVecFilterRowCycles);
      RETURN_IF_ERROR(veval.Filter(*e, *b.batch, &b.sel));
      if (b.sel.empty()) break;
    }
    if (!b.sel.empty()) kept.push_back(std::move(b));
  }
  rel->batches = std::move(kept);
  ctx->RecordAccess(obs::AccessKind::kFilter, rows_in, rel->ActiveRows());
  return Status::OK();
}

Status VecEngine::Having(Ctx* ctx, VecRel* rel, const Expr& having) {
  VectorEvaluator veval(ctx->eval.get(), &rel->schema, ctx->outer);
  std::vector<VecBatch> kept;
  for (VecBatch& b : rel->batches) {
    ctx->Charge(kVecBatchCycles + b.active() * kVecFilterRowCycles);
    RETURN_IF_ERROR(veval.Filter(having, *b.batch, &b.sel));
    if (!b.sel.empty()) kept.push_back(std::move(b));
  }
  rel->batches = std::move(kept);
  return Status::OK();
}

// ---- Aggregation ----

Result<VecRel> VecEngine::Aggregate(Ctx* ctx, VecRel input,
                                    const OutputPlan& plan) {
  VecRel out;
  out.schema = AggregateSchema(plan, input.schema);
  const std::vector<const Expr*>& group_exprs = plan.group_exprs;
  const std::vector<const Expr*>& aggs = plan.aggs;

  std::map<std::string, std::pair<std::vector<Value>, std::vector<AggState>>>
      groups;

  VectorEvaluator veval(ctx->eval.get(), &input.schema, ctx->outer);
  std::vector<VecCol> gcols(group_exprs.size());
  std::vector<VecCol> acols(aggs.size());
  Bytes key;
  for (const VecBatch& b : input.batches) {
    size_t n = b.active();
    ctx->Charge(kVecBatchCycles + n * kVecAggRowCycles);
    // Group keys and aggregate arguments evaluate batch-at-a-time; the
    // per-group accumulate below is the only remaining scalar loop.
    for (size_t g = 0; g < group_exprs.size(); ++g) {
      RETURN_IF_ERROR(veval.Eval(*group_exprs[g], *b.batch, b.sel, &gcols[g]));
    }
    for (size_t a = 0; a < aggs.size(); ++a) {
      if (aggs[a]->agg_func == AggFunc::kCountStar) continue;
      RETURN_IF_ERROR(
          veval.Eval(*aggs[a]->args[0], *b.batch, b.sel, &acols[a]));
    }
    for (size_t i = 0; i < n; ++i) {
      key.clear();
      for (const VecCol& c : gcols) AppendNormalizedKey(c, i, &key);
      auto it = groups.find(std::string(key.begin(), key.end()));
      if (it == groups.end()) {
        std::vector<Value> gvals;
        gvals.reserve(gcols.size());
        for (const VecCol& c : gcols) gvals.push_back(c.Get(i));
        it = groups
                 .try_emplace(std::string(key.begin(), key.end()),
                              std::make_pair(std::move(gvals),
                                             std::vector<AggState>(aggs.size())))
                 .first;
      }
      auto& states = it->second.second;
      for (size_t a = 0; a < aggs.size(); ++a) {
        const Expr* agg = aggs[a];
        AggState& st = states[a];
        if (agg->agg_func == AggFunc::kCountStar) {
          ++st.count;
          continue;
        }
        const VecCol& c = acols[a];
        // Typed accumulate for plain SUM/AVG/COUNT over dense columns.
        if (!agg->distinct && c.kind != VecCol::Kind::kGeneric) {
          switch (agg->agg_func) {
            case AggFunc::kCount:
              ++st.count;
              continue;
            case AggFunc::kSum:
            case AggFunc::kAvg:
              ++st.count;
              if (c.kind == VecCol::Kind::kI64) {
                st.isum += c.nums[i];
                st.sum += static_cast<double>(c.nums[i]);
              } else if (c.kind == VecCol::Kind::kF64) {
                st.sum += vec::F64FromBits(c.nums[i]);
                st.all_int = false;
              } else {  // kDate: dates sum as their int payload
                st.sum += static_cast<double>(c.nums[i]);
                st.all_int = false;
              }
              continue;
            default:
              break;  // min/max fall through to the boxed path
          }
        }
        Value v = c.Get(i);
        if (!v.is_null()) st.Add(*agg, v);
      }
    }
  }

  if (groups.empty() && group_exprs.empty()) {
    groups.emplace("", std::make_pair(std::vector<Value>{},
                                      std::vector<AggState>(aggs.size())));
  }

  uint64_t mem = 0;
  VecRelBuilder builder(&out);
  for (auto& [gkey, group] : groups) {
    mem += gkey.size() + group.second.size() * sizeof(AggState);
    builder.Append(AggregateRow(std::move(group.first), aggs, group.second));
  }
  builder.Flush();
  ctx->TrackMemory(mem);
  ctx->RecordAccess(obs::AccessKind::kAggregate, input.ActiveRows(),
                    out.ActiveRows());
  return out;
}

// ---- Projection ----

/// Items evaluate batch-at-a-time into typed columns, then materialize
/// into the result rows (hidden ORDER BY keys alongside).
Status VecEngine::Project(Ctx* ctx, const OutputPlan& plan, VecRel input,
                          Projection* out) {
  ASSIGN_OR_RETURN(OutputColumns cols, PlanOutputColumns(plan, input.schema));
  out->result.schema = std::move(cols.schema);
  out->order_from_input = std::move(cols.order_from_input);
  std::vector<Row>& rows = out->result.rows;
  if (plan.star_only()) {
    rows.reserve(input.ActiveRows());
    Row tmp;
    for (const VecBatch& b : input.batches) {
      ctx->Charge(kVecBatchCycles + b.active() * kVecGatherRowCycles);
      for (uint32_t i : b.sel) {
        b.batch->MaterializeRow(i, &tmp);
        rows.push_back(tmp);
      }
    }
    return Status::OK();
  }
  VectorEvaluator veval(ctx->eval.get(), &input.schema, ctx->outer);
  std::vector<VecCol> vcols(plan.items.size());
  std::vector<VecCol> hcols;
  for (const VecBatch& b : input.batches) {
    size_t n = b.active();
    ctx->Charge(kVecBatchCycles + n * kVecProjectRowCycles);
    for (size_t c = 0; c < plan.items.size(); ++c) {
      RETURN_IF_ERROR(
          veval.Eval(*plan.items[c].expr, *b.batch, b.sel, &vcols[c]));
    }
    hcols.clear();
    if (cols.any_hidden) {
      for (size_t k = 0; k < plan.order_by.size(); ++k) {
        if (!out->order_from_input[k]) continue;
        hcols.emplace_back();
        RETURN_IF_ERROR(
            veval.Eval(*plan.order_by[k].expr, *b.batch, b.sel, &hcols.back()));
      }
    }
    for (size_t i = 0; i < n; ++i) {
      Row out_row;
      out_row.reserve(vcols.size());
      for (const VecCol& c : vcols) out_row.push_back(c.Get(i));
      if (cols.any_hidden) {
        std::vector<Value> hk;
        hk.reserve(hcols.size());
        for (const VecCol& c : hcols) hk.push_back(c.Get(i));
        out->hidden_keys.push_back(std::move(hk));
      }
      rows.push_back(std::move(out_row));
    }
  }
  return Status::OK();
}

}  // namespace

Result<QueryResult> ExecuteSelectVectorized(Database* db,
                                            const SelectStmt& stmt,
                                            const EvalScope* outer,
                                            sim::CostModel* cost,
                                            const ExecOptions& opts,
                                            ExecStats* stats) {
  Ctx ctx(db, cost, opts, stats, outer);
  if (stmt.from.empty()) return SelectWithoutFrom(&ctx, stmt);
  return RunSelect<VecEngine>(&ctx, stmt);
}

}  // namespace ironsafe::sql::exec
