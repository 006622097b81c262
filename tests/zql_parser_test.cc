#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "tests/test_util.h"
#include "zql/parser.h"

namespace zv::zql {
namespace {

// --- Name column -------------------------------------------------------------

TEST(ZqlNameTest, PlainOutputAndInput) {
  ZV_ASSERT_OK_AND_ASSIGN(NameEntry n, ParseNameEntry("*f1"));
  EXPECT_EQ(n.name, "f1");
  EXPECT_TRUE(n.output);
  EXPECT_FALSE(n.user_input);

  ZV_ASSERT_OK_AND_ASSIGN(NameEntry m, ParseNameEntry("-f2"));
  EXPECT_TRUE(m.user_input);
  EXPECT_EQ(m.name, "f2");

  ZV_ASSERT_OK_AND_ASSIGN(NameEntry p, ParseNameEntry("f3"));
  EXPECT_FALSE(p.output);
  EXPECT_FALSE(p.user_input);
}

TEST(ZqlNameTest, Derivations) {
  ZV_ASSERT_OK_AND_ASSIGN(NameEntry plus, ParseNameEntry("f3=f1+f2"));
  EXPECT_EQ(plus.derive, NameEntry::Derive::kPlus);
  EXPECT_EQ(plus.source_a, "f1");
  EXPECT_EQ(plus.source_b, "f2");

  ZV_ASSERT_OK_AND_ASSIGN(NameEntry minus, ParseNameEntry("*f3=f1-f2"));
  EXPECT_EQ(minus.derive, NameEntry::Derive::kMinus);
  EXPECT_TRUE(minus.output);

  ZV_ASSERT_OK_AND_ASSIGN(NameEntry inter, ParseNameEntry("f4=f1^f3"));
  EXPECT_EQ(inter.derive, NameEntry::Derive::kIntersect);

  ZV_ASSERT_OK_AND_ASSIGN(NameEntry idx, ParseNameEntry("f2=f1[3]"));
  EXPECT_EQ(idx.derive, NameEntry::Derive::kIndex);
  EXPECT_EQ(idx.index_a, 3);

  ZV_ASSERT_OK_AND_ASSIGN(NameEntry slice, ParseNameEntry("f2=f1[2:5]"));
  EXPECT_EQ(slice.derive, NameEntry::Derive::kSlice);
  EXPECT_EQ(slice.index_a, 2);
  EXPECT_EQ(slice.index_b, 5);

  ZV_ASSERT_OK_AND_ASSIGN(NameEntry range, ParseNameEntry("f2=f1.range"));
  EXPECT_EQ(range.derive, NameEntry::Derive::kRange);

  ZV_ASSERT_OK_AND_ASSIGN(NameEntry order, ParseNameEntry("*f2=f1.order"));
  EXPECT_EQ(order.derive, NameEntry::Derive::kOrder);
}

TEST(ZqlNameTest, Errors) {
  EXPECT_FALSE(ParseNameEntry("").ok());
  EXPECT_FALSE(ParseNameEntry("f1=f2?f3").ok());
  EXPECT_FALSE(ParseNameEntry("'quoted'").ok());
}

// --- X/Y column ----------------------------------------------------------------

TEST(ZqlAxisTest, Literal) {
  ZV_ASSERT_OK_AND_ASSIGN(AxisEntry e, ParseAxisEntry("'year'"));
  EXPECT_EQ(e.kind, AxisEntry::Kind::kLiteral);
  EXPECT_EQ(e.literal.attrs, std::vector<std::string>{"year"});
}

TEST(ZqlAxisTest, DeclareSet) {
  ZV_ASSERT_OK_AND_ASSIGN(AxisEntry e,
                          ParseAxisEntry("y1 <- {'profit', 'sales'}"));
  EXPECT_EQ(e.kind, AxisEntry::Kind::kDeclare);
  EXPECT_EQ(e.var, "y1");
  ASSERT_EQ(e.set.size(), 2u);
  EXPECT_EQ(e.set[0].Label(), "profit");
  EXPECT_EQ(e.set[1].Label(), "sales");
}

TEST(ZqlAxisTest, NamedSet) {
  ZV_ASSERT_OK_AND_ASSIGN(AxisEntry e, ParseAxisEntry("y1 <- M"));
  EXPECT_EQ(e.kind, AxisEntry::Kind::kDeclare);
  EXPECT_EQ(e.named_set, "M");
}

TEST(ZqlAxisTest, ReuseAndDerivedAndOrder) {
  ZV_ASSERT_OK_AND_ASSIGN(AxisEntry r, ParseAxisEntry("x2"));
  EXPECT_EQ(r.kind, AxisEntry::Kind::kReuse);

  ZV_ASSERT_OK_AND_ASSIGN(AxisEntry d, ParseAxisEntry("y1 <- _"));
  EXPECT_EQ(d.kind, AxisEntry::Kind::kDerived);

  ZV_ASSERT_OK_AND_ASSIGN(AxisEntry o, ParseAxisEntry("u1 ->"));
  EXPECT_EQ(o.kind, AxisEntry::Kind::kOrderBy);
  EXPECT_EQ(o.var, "u1");
}

TEST(ZqlAxisTest, PolarisCompose) {
  ZV_ASSERT_OK_AND_ASSIGN(AxisEntry plus, ParseAxisEntry("'profit' + 'sales'"));
  EXPECT_EQ(plus.kind, AxisEntry::Kind::kLiteral);
  EXPECT_EQ(plus.literal.compose, AxisValue::Compose::kPlus);
  EXPECT_EQ(plus.literal.Label(), "profit+sales");

  ZV_ASSERT_OK_AND_ASSIGN(
      AxisEntry cross,
      ParseAxisEntry("'product' * (x1 <- {'city', 'country'})"));
  EXPECT_EQ(cross.kind, AxisEntry::Kind::kDeclare);
  EXPECT_EQ(cross.var, "x1");
  ASSERT_EQ(cross.set.size(), 2u);
  EXPECT_EQ(cross.set[0].Label(), "product*city");
}

TEST(ZqlAxisTest, Blank) {
  ZV_ASSERT_OK_AND_ASSIGN(AxisEntry e, ParseAxisEntry("  "));
  EXPECT_EQ(e.kind, AxisEntry::Kind::kNone);
}

// --- Z column --------------------------------------------------------------------

TEST(ZqlZTest, Literal) {
  ZV_ASSERT_OK_AND_ASSIGN(ZEntry e, ParseZEntry("'product'.'chair'"));
  EXPECT_EQ(e.kind, ZEntry::Kind::kLiteral);
  EXPECT_EQ(e.literal.attr, "product");
  EXPECT_EQ(e.literal.value, Value::Str("chair"));
}

TEST(ZqlZTest, DeclareAll) {
  ZV_ASSERT_OK_AND_ASSIGN(ZEntry e, ParseZEntry("v1 <- 'product'.*"));
  EXPECT_EQ(e.kind, ZEntry::Kind::kDeclare);
  EXPECT_EQ(e.vars, std::vector<std::string>{"v1"});
  ASSERT_NE(e.set, nullptr);
  EXPECT_EQ(e.set->kind, ZSetExpr::Kind::kAttrDotValue);
  EXPECT_EQ(e.set->attr.kind, AttrSpec::Kind::kLiteral);
  EXPECT_EQ(e.set->value.kind, ValueSpec::Kind::kAll);
}

TEST(ZqlZTest, DeclareAllExcept) {
  ZV_ASSERT_OK_AND_ASSIGN(ZEntry e,
                          ParseZEntry("v1 <- 'product'.(* - 'stapler')"));
  EXPECT_EQ(e.set->value.kind, ValueSpec::Kind::kAllExcept);
  ASSERT_EQ(e.set->value.values.size(), 1u);
  EXPECT_EQ(e.set->value.values[0], Value::Str("stapler"));
}

TEST(ZqlZTest, DeclareValueList) {
  ZV_ASSERT_OK_AND_ASSIGN(ZEntry e,
                          ParseZEntry("v2 <- 'location'.{USA, Canada}"));
  EXPECT_EQ(e.set->value.kind, ValueSpec::Kind::kList);
  EXPECT_EQ(e.set->value.values[0], Value::Str("USA"));
}

TEST(ZqlZTest, AttributeIteration) {
  ZV_ASSERT_OK_AND_ASSIGN(
      ZEntry e, ParseZEntry("z1.v1 <- (* \\ {'year', 'sales'}).*"));
  EXPECT_EQ(e.vars, (std::vector<std::string>{"z1", "v1"}));
  EXPECT_EQ(e.set->attr.kind, AttrSpec::Kind::kAllExcept);
  ASSERT_EQ(e.set->attr.names.size(), 2u);
  EXPECT_EQ(e.set->value.kind, ValueSpec::Kind::kAll);
}

TEST(ZqlZTest, PairUnion) {
  ZV_ASSERT_OK_AND_ASSIGN(
      ZEntry e,
      ParseZEntry("z1.v1 <- ('product'.{'chair','desk'} | 'location'.'US')"));
  EXPECT_EQ(e.set->kind, ZSetExpr::Kind::kOp);
  EXPECT_EQ(e.set->op, '|');
}

TEST(ZqlZTest, RangeCombination) {
  ZV_ASSERT_OK_AND_ASSIGN(ZEntry e,
                          ParseZEntry("v4 <- (v2.range & v3.range)"));
  EXPECT_EQ(e.set->kind, ZSetExpr::Kind::kOp);
  EXPECT_EQ(e.set->op, '&');
  EXPECT_EQ(e.set->lhs->kind, ZSetExpr::Kind::kVarRange);
  EXPECT_EQ(e.set->lhs->var, "v2");
}

TEST(ZqlZTest, NamedSetAndReuseAndDerived) {
  ZV_ASSERT_OK_AND_ASSIGN(ZEntry named, ParseZEntry("v1 <- P"));
  EXPECT_EQ(named.set->kind, ZSetExpr::Kind::kNamedSet);
  EXPECT_EQ(named.set->var, "P");

  ZV_ASSERT_OK_AND_ASSIGN(ZEntry reuse, ParseZEntry("v1"));
  EXPECT_EQ(reuse.kind, ZEntry::Kind::kReuse);

  ZV_ASSERT_OK_AND_ASSIGN(ZEntry derived, ParseZEntry("v2 <- 'product'._"));
  EXPECT_EQ(derived.kind, ZEntry::Kind::kDerived);
  EXPECT_EQ(derived.derived_attr, "product");
}

TEST(ZqlZTest, NumericValues) {
  ZV_ASSERT_OK_AND_ASSIGN(ZEntry e, ParseZEntry("v2 <- 'year'.{2010, 2015}"));
  EXPECT_EQ(e.set->value.values[0], Value::Int(2010));
}

TEST(ZqlZTest, IntegerLiteralsPastInt64ParseAsDouble) {
  ZV_ASSERT_OK_AND_ASSIGN(
      ZEntry e, ParseZEntry("v2 <- 'year'.{9223372036854775807, "
                            "99999999999999999999, -9223372036854775808}"));
  const std::vector<Value>& values = e.set->value.values;
  ASSERT_EQ(values.size(), 3u);
  // 9223372036854775807 rounds to 2^63 as a double, one past INT64_MAX.
  ASSERT_TRUE(values[0].is_double());
  EXPECT_EQ(values[0].AsDouble(), 9223372036854775808.0);
  ASSERT_TRUE(values[1].is_double());
  EXPECT_EQ(values[1].AsDouble(), 1e20);
  // -2^63 is exactly INT64_MIN and stays an integer.
  ASSERT_TRUE(values[2].is_int());
  EXPECT_EQ(values[2].AsInt(), std::numeric_limits<int64_t>::min());
}

// --- Viz column -------------------------------------------------------------------

TEST(ZqlVizTest, Literal) {
  ZV_ASSERT_OK_AND_ASSIGN(VizEntry e, ParseVizEntry("bar.(y=agg('sum'))"));
  EXPECT_EQ(e.kind, VizEntry::Kind::kLiteral);
  EXPECT_EQ(e.literal.chart, ChartType::kBar);
  EXPECT_EQ(e.literal.y_agg, sql::AggFunc::kSum);
}

TEST(ZqlVizTest, BinSpec) {
  ZV_ASSERT_OK_AND_ASSIGN(
      VizEntry e, ParseVizEntry("bar.(x=bin(20), y=agg('sum'))"));
  EXPECT_DOUBLE_EQ(e.literal.x_bin, 20);
}

TEST(ZqlVizTest, SetOfSummarizations) {
  ZV_ASSERT_OK_AND_ASSIGN(
      VizEntry e,
      ParseVizEntry("s1 <- bar.{(x=bin(20), y=agg('sum')), (x=bin(30), "
                    "y=agg('sum'))}"));
  EXPECT_EQ(e.kind, VizEntry::Kind::kDeclare);
  ASSERT_EQ(e.set.size(), 2u);
  EXPECT_DOUBLE_EQ(e.set[0].x_bin, 20);
  EXPECT_DOUBLE_EQ(e.set[1].x_bin, 30);
}

TEST(ZqlVizTest, SetOfChartTypes) {
  ZV_ASSERT_OK_AND_ASSIGN(
      VizEntry e,
      ParseVizEntry("t1 <- {bar, dotplot}.(x=bin(20), y=agg('sum'))"));
  ASSERT_EQ(e.set.size(), 2u);
  EXPECT_EQ(e.set[0].chart, ChartType::kBar);
  EXPECT_EQ(e.set[1].chart, ChartType::kDotPlot);
  EXPECT_DOUBLE_EQ(e.set[1].x_bin, 20);
}

TEST(ZqlVizTest, BareType) {
  ZV_ASSERT_OK_AND_ASSIGN(VizEntry e, ParseVizEntry("scatterplot"));
  EXPECT_EQ(e.literal.chart, ChartType::kScatter);
}

// --- Process column ---------------------------------------------------------------

TEST(ZqlProcessTest, ArgMinTopK) {
  ZV_ASSERT_OK_AND_ASSIGN(auto ps,
                          ParseProcessCell("v2 <- argmin_v1[k=10] D(f1, f2)"));
  ASSERT_EQ(ps.size(), 1u);
  const ProcessDecl& p = ps[0];
  EXPECT_EQ(p.mech, Mechanism::kArgMin);
  EXPECT_EQ(p.outputs, std::vector<std::string>{"v2"});
  EXPECT_EQ(p.iter_vars, std::vector<std::string>{"v1"});
  ASSERT_TRUE(p.filter.k.has_value());
  EXPECT_EQ(*p.filter.k, 10);
  EXPECT_EQ(p.expr->func, "D");
  EXPECT_EQ(p.expr->args, (std::vector<std::string>{"f1", "f2"}));
}

TEST(ZqlProcessTest, ThresholdFilter) {
  ZV_ASSERT_OK_AND_ASSIGN(auto ps,
                          ParseProcessCell("v2 <- argany_v1[t > 0] T(f1)"));
  const ProcessDecl& p = ps[0];
  EXPECT_EQ(p.mech, Mechanism::kArgAny);
  ASSERT_TRUE(p.filter.t_above.has_value());
  EXPECT_DOUBLE_EQ(*p.filter.t_above, 0);
  EXPECT_EQ(p.expr->func, "T");
}

TEST(ZqlProcessTest, KInfinity) {
  ZV_ASSERT_OK_AND_ASSIGN(auto ps,
                          ParseProcessCell("u1 <- argmin_v1[k=inf] T(f1)"));
  EXPECT_FALSE(ps[0].filter.k.has_value());
}

TEST(ZqlProcessTest, MultipleVariables) {
  ZV_ASSERT_OK_AND_ASSIGN(
      auto ps, ParseProcessCell("x2, y2 <- argmax_x1,y1[k=10] D(f1, f2)"));
  const ProcessDecl& p = ps[0];
  EXPECT_EQ(p.outputs, (std::vector<std::string>{"x2", "y2"}));
  EXPECT_EQ(p.iter_vars, (std::vector<std::string>{"x1", "y1"}));
}

TEST(ZqlProcessTest, InnerReducer) {
  ZV_ASSERT_OK_AND_ASSIGN(
      auto ps,
      ParseProcessCell("v3 <- argmax_v1[k=10] min_v2 D(f1, f2)"));
  const ProcessDecl& p = ps[0];
  ASSERT_EQ(p.expr->kind, ProcessExpr::Kind::kReduce);
  EXPECT_EQ(p.expr->reduce, ProcessExpr::Reduce::kMin);
  EXPECT_EQ(p.expr->reduce_vars, std::vector<std::string>{"v2"});
  EXPECT_EQ(p.expr->child->func, "D");
}

TEST(ZqlProcessTest, SumReducerMultiVar) {
  ZV_ASSERT_OK_AND_ASSIGN(
      auto ps,
      ParseProcessCell("x3,y3 <- argmax_x1,y1[k=1] sum_x2,y2 D(f1, f2)"));
  const ProcessDecl& p = ps[0];
  EXPECT_EQ(p.expr->reduce, ProcessExpr::Reduce::kSum);
  EXPECT_EQ(p.expr->reduce_vars, (std::vector<std::string>{"x2", "y2"}));
}

TEST(ZqlProcessTest, RepresentativeCall) {
  ZV_ASSERT_OK_AND_ASSIGN(auto ps, ParseProcessCell("v2 <- R(10, v1, f1)"));
  const ProcessDecl& p = ps[0];
  EXPECT_EQ(p.kind, ProcessDecl::Kind::kRepresentative);
  EXPECT_EQ(p.repr_k, 10);
  EXPECT_EQ(p.repr_vars, std::vector<std::string>{"v1"});
  EXPECT_EQ(p.repr_component, "f1");
}

TEST(ZqlProcessTest, MultipleProcesses) {
  ZV_ASSERT_OK_AND_ASSIGN(
      auto ps,
      ParseProcessCell("(v2 <- argmax_v1[k=1] D(f1, f2)), (v3 <- "
                       "argmin_v1[k=1] D(f1, f2))"));
  ASSERT_EQ(ps.size(), 2u);
  EXPECT_EQ(ps[0].mech, Mechanism::kArgMax);
  EXPECT_EQ(ps[1].mech, Mechanism::kArgMin);
}

TEST(ZqlProcessTest, EmptyCell) {
  ZV_ASSERT_OK_AND_ASSIGN(auto ps, ParseProcessCell("  "));
  EXPECT_TRUE(ps.empty());
}

TEST(ZqlProcessTest, Errors) {
  EXPECT_FALSE(ParseProcessCell("v2 <- argmin_v1[k=0] T(f1)").ok());
  EXPECT_FALSE(ParseProcessCell("v2 <- frobnicate_v1 T(f1)").ok());
  EXPECT_FALSE(ParseProcessCell("v2, v3 <- argmin_v1[k=1] T(f1)").ok());
  EXPECT_FALSE(ParseProcessCell("v2 <- R(0, v1, f1)").ok());
}

// --- full queries -------------------------------------------------------------------

TEST(ZqlQueryTest, Table21) {
  // Paper Table 2.1.
  const char* text =
      "*f1 | 'year' | 'sales' | v1 <- 'product'.* | location='US' | "
      "bar.(y=agg('sum')) |";
  ZV_ASSERT_OK_AND_ASSIGN(ZqlQuery q, ParseQuery(text));
  ASSERT_EQ(q.rows.size(), 1u);
  const ZqlRow& row = q.rows[0];
  EXPECT_TRUE(row.name.output);
  EXPECT_EQ(row.x.literal.Label(), "year");
  EXPECT_EQ(row.constraints, "location='US'");
  EXPECT_EQ(row.viz.literal.chart, ChartType::kBar);
  EXPECT_EQ(q.OutputNames(), std::vector<std::string>{"f1"});
}

TEST(ZqlQueryTest, Table22UserInput) {
  const char* text =
      "-f1 | | | | |\n"
      "f2 | 'year' | 'sales' | v1 <- 'product'.* | | | v2 <- argmin_v1[k=1] "
      "D(f1, f2)\n"
      "*f3 | 'year' | 'sales' | v2 | | |";
  ZV_ASSERT_OK_AND_ASSIGN(ZqlQuery q, ParseQuery(text));
  ASSERT_EQ(q.rows.size(), 3u);
  EXPECT_TRUE(q.rows[0].name.user_input);
  ASSERT_EQ(q.rows[1].processes.size(), 1u);
  EXPECT_EQ(q.rows[2].zs[0].kind, ZEntry::Kind::kReuse);
}

TEST(ZqlQueryTest, HeaderReordersColumns) {
  const char* text =
      "name | x | y | z | z2 | process\n"
      "f1 | 'year' | 'sales' | v1 <- 'product'.* | v2 <- "
      "'location'.{USA, Canada} |";
  ZV_ASSERT_OK_AND_ASSIGN(ZqlQuery q, ParseQuery(text));
  ASSERT_EQ(q.rows[0].zs.size(), 2u);
  EXPECT_EQ(q.rows[0].zs[1].kind, ZEntry::Kind::kDeclare);
}

TEST(ZqlQueryTest, CommentsAndBlanksIgnored) {
  const char* text =
      "# a comment\n"
      "\n"
      "*f1 | 'year' | 'sales' | | | |\n";
  ZV_ASSERT_OK_AND_ASSIGN(ZqlQuery q, ParseQuery(text));
  EXPECT_EQ(q.rows.size(), 1u);
}

TEST(ZqlQueryTest, EmptyQueryFails) {
  EXPECT_FALSE(ParseQuery("# nothing\n").ok());
}

// --- Structured diagnostics --------------------------------------------------

TEST(ZqlDiagnosticsTest, ErrorsCarryLineColumnAndToken) {
  ParseDiagnostic diag;
  Result<ZqlQuery> r = ParseQuery(
      "# comment line\n"
      "*f1 | 'year' | 'sales' | | | |\n"
      "*f2 | 'year' | ??? | v1 <- 'product'.* | | |",
      &diag);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(diag.line, 3);
  // "???" starts at 1-based column 16 of the third line.
  EXPECT_EQ(diag.column, 16);
  EXPECT_EQ(diag.token, "???");
  EXPECT_NE(r.status().message().find("line 3, column 16 near '?\?\?'"),
            std::string::npos)
      << r.status().message();
}

TEST(ZqlDiagnosticsTest, IndentationCountsTowardColumns) {
  ParseDiagnostic diag;
  Result<ZqlQuery> r = ParseQuery("   *f1 | bad~name | 'sales' | | | |",
                                  &diag);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(diag.line, 1);
  EXPECT_EQ(diag.column, 10);  // 3 spaces of indent + "*f1 | " prefix
  EXPECT_EQ(diag.token, "bad~name");
}

TEST(ZqlDiagnosticsTest, ProcessCellErrorsPointIntoTheCell) {
  ParseDiagnostic diag;
  Result<ZqlQuery> r = ParseQuery(
      "*f1 | 'year' | 'sales' | v1 <- 'product'.* | | | v2 <- "
      "argmin_v1[k=0] T(f1)",
      &diag);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(diag.line, 1);
  EXPECT_GT(diag.column, 40) << "column should land inside the process cell";
  EXPECT_FALSE(diag.message.empty());
}

TEST(ZqlDiagnosticsTest, RowLevelErrorsStillCarryTheLine) {
  ParseDiagnostic diag;
  Result<ZqlQuery> r = ParseQuery("*f1 | 'x' | 'y' | | | |\n | 'x' |", &diag);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(diag.line, 2);
  ParseDiagnostic empty_diag;
  EXPECT_FALSE(ParseQuery("", &empty_diag).ok());
  EXPECT_EQ(empty_diag.line, 0);
}

}  // namespace
}  // namespace zv::zql
