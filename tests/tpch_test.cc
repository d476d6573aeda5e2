#include <gtest/gtest.h>

#include <set>

#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace ironsafe::tpch {
namespace {

class TpchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = sql::Database::CreateInMemory().release();
    TpchGenerator gen(TpchConfig{0.001, 42});
    auto st = gen.LoadInto(db_);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }

  static sql::Database* db_;
};

sql::Database* TpchTest::db_ = nullptr;

TEST_F(TpchTest, AllTablesCreatedWithExpectedCardinalities) {
  TpchGenerator gen(TpchConfig{0.001, 42});
  for (const char* t :
       {"region", "nation", "supplier", "customer", "part", "partsupp",
        "orders", "lineitem"}) {
    auto table = db_->GetTable(t);
    ASSERT_TRUE(table.ok()) << t;
    EXPECT_GT((*table)->row_count(), 0u) << t;
  }
  EXPECT_EQ((*db_->GetTable("region"))->row_count(), 5u);
  EXPECT_EQ((*db_->GetTable("nation"))->row_count(), 25u);
  EXPECT_EQ((*db_->GetTable("partsupp"))->row_count(),
            4 * (*db_->GetTable("part"))->row_count());
}

TEST_F(TpchTest, GenerationIsDeterministic) {
  auto db2 = sql::Database::CreateInMemory();
  TpchGenerator gen(TpchConfig{0.001, 42});
  ASSERT_TRUE(gen.LoadInto(db2.get()).ok());
  auto r1 = db_->Execute("SELECT sum(o_totalprice) FROM orders");
  auto r2 = db2->Execute("SELECT sum(o_totalprice) FROM orders");
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_DOUBLE_EQ(r1->rows[0][0].AsDouble(), r2->rows[0][0].AsDouble());
}

TEST_F(TpchTest, ForeignKeysResolve) {
  // Every lineitem points at an existing order and part.
  auto r = db_->Execute(
      "SELECT count(*) FROM lineitem WHERE l_orderkey NOT IN "
      "(SELECT o_orderkey FROM orders)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].AsInt(), 0);

  auto r2 = db_->Execute(
      "SELECT count(*) FROM partsupp WHERE ps_suppkey NOT IN "
      "(SELECT s_suppkey FROM supplier)");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->rows[0][0].AsInt(), 0);
}

TEST_F(TpchTest, DatesInTpchRange) {
  auto r = db_->Execute(
      "SELECT min(o_orderdate), max(o_orderdate) FROM orders");
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r->rows[0][0].AsInt(), *sql::ParseDate("1992-01-01"));
  EXPECT_LE(r->rows[0][1].AsInt(), *sql::ParseDate("1998-08-02"));
}

TEST_F(TpchTest, QuerySetHasSixteenQueries) {
  EXPECT_EQ(Queries().size(), 16u);
  EXPECT_TRUE(GetQuery(6).ok());
  EXPECT_TRUE(GetQuery(1).status().IsNotFound());   // not evaluated
  EXPECT_TRUE(GetQuery(22).status().IsNotFound());
}

TEST_F(TpchTest, ExtendedSetCoversTheOtherSix) {
  EXPECT_EQ(ExtendedQueries().size(), 6u);
  std::set<int> numbers;
  for (const auto& q : Queries()) numbers.insert(q.number);
  for (const auto& q : ExtendedQueries()) numbers.insert(q.number);
  // Together: all 22 TPC-H queries.
  EXPECT_EQ(numbers.size(), 22u);
  EXPECT_EQ(*numbers.begin(), 1);
  EXPECT_EQ(*numbers.rbegin(), 22);
}

// The six queries the paper does not evaluate still execute correctly.
class TpchExtendedRuns : public TpchTest,
                         public ::testing::WithParamInterface<int> {};

TEST_P(TpchExtendedRuns, ExecutesSuccessfully) {
  const TpchQuery* query = nullptr;
  for (const auto& q : ExtendedQueries()) {
    if (q.number == GetParam()) query = &q;
  }
  ASSERT_NE(query, nullptr);
  auto r = db_->Execute(query->sql);
  ASSERT_TRUE(r.ok()) << "Q" << GetParam() << ": " << r.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(Extended, TpchExtendedRuns,
                         ::testing::Values(1, 11, 15, 17, 20, 22),
                         [](const auto& param_info) {
                           return std::string("Q").append(
                               std::to_string(param_info.param));
                         });

TEST_F(TpchTest, Q1AggregatesAreInternallyConsistent) {
  const TpchQuery* q1 = &ExtendedQueries()[0];
  auto r = db_->Execute(q1->sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_FALSE(r->rows.empty());
  for (const auto& row : r->rows) {
    double sum_qty = row[2].AsDouble();
    double avg_qty = row[6].AsDouble();
    int64_t count = row[9].AsInt();
    EXPECT_NEAR(avg_qty * static_cast<double>(count), sum_qty, 1e-6);
    // Discounted price never exceeds base price.
    EXPECT_LE(row[4].AsDouble(), row[3].AsDouble() + 1e-9);
  }
}

// Every evaluated query must parse and execute on generated data.
class TpchQueryRuns : public TpchTest,
                      public ::testing::WithParamInterface<int> {};

TEST_P(TpchQueryRuns, ExecutesSuccessfully) {
  auto q = GetQuery(GetParam());
  ASSERT_TRUE(q.ok());
  sim::CostModel cm;
  auto r = db_->Execute((*q)->sql, &cm);
  ASSERT_TRUE(r.ok()) << "Q" << GetParam() << ": " << r.status().ToString();
  // The simulation must have charged some work.
  EXPECT_GT(cm.elapsed_ns(), 0u) << "Q" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllQueries, TpchQueryRuns,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13,
                                           14, 16, 18, 19, 21),
                         [](const auto& param_info) {
                           return std::string("Q").append(
                               std::to_string(param_info.param));
                         });

// Spot-check selected query semantics.
TEST_F(TpchTest, Q6MatchesManualComputation) {
  auto q6 = db_->Execute((*GetQuery(6))->sql);
  ASSERT_TRUE(q6.ok());
  auto manual = db_->Execute(
      "SELECT l_extendedprice, l_discount FROM lineitem "
      "WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < "
      "DATE '1995-01-01' AND l_discount BETWEEN 0.05 AND 0.07 AND "
      "l_quantity < 24");
  ASSERT_TRUE(manual.ok());
  double expected = 0;
  for (const auto& row : manual->rows) {
    expected += row[0].AsDouble() * row[1].AsDouble();
  }
  ASSERT_EQ(q6->rows.size(), 1u);
  if (manual->rows.empty()) {
    EXPECT_TRUE(q6->rows[0][0].is_null());
  } else {
    EXPECT_NEAR(q6->rows[0][0].AsDouble(), expected, 1e-6);
  }
}

TEST_F(TpchTest, Q3ReturnsBuildingSegmentOrders) {
  auto r = db_->Execute((*GetQuery(3))->sql);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->rows.size(), 10u);
  // Revenue column must be sorted descending.
  for (size_t i = 1; i < r->rows.size(); ++i) {
    EXPECT_GE(r->rows[i - 1][1].AsDouble(), r->rows[i][1].AsDouble());
  }
}

TEST_F(TpchTest, Q12CountsConsistent) {
  auto r = db_->Execute((*GetQuery(12))->sql);
  ASSERT_TRUE(r.ok());
  // high + low counts must equal the unconditional count per ship mode.
  for (const auto& row : r->rows) {
    auto check = db_->Execute(
        "SELECT count(*) FROM orders, lineitem WHERE o_orderkey = l_orderkey "
        "AND l_shipmode = '" + row[0].AsString() + "' AND l_commitdate < "
        "l_receiptdate AND l_shipdate < l_commitdate AND l_receiptdate >= "
        "DATE '1994-01-01' AND l_receiptdate < DATE '1995-01-01'");
    ASSERT_TRUE(check.ok());
    EXPECT_EQ(row[1].AsInt() + row[2].AsInt(), check->rows[0][0].AsInt());
  }
}

}  // namespace
}  // namespace ironsafe::tpch
