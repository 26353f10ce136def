// Tests for the stats library: Cdf, Table.
#include <gtest/gtest.h>

#include "stats/cdf.h"
#include "stats/table.h"

namespace tapo::stats {
namespace {

TEST(Cdf, PercentileDefinition) {
  Cdf c;
  for (int i = 1; i <= 5; ++i) c.add(i);  // 1..5
  EXPECT_DOUBLE_EQ(c.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(c.percentile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(c.percentile(0.5), 3.0);
  // Type-7: h = q*(n-1) = 0.25*4 = 1 -> exactly the 2nd sample.
  EXPECT_DOUBLE_EQ(c.percentile(0.25), 2.0);
  // Interpolation: q=0.1 -> h=0.4 -> 1 + 0.4*(2-1).
  EXPECT_DOUBLE_EQ(c.percentile(0.1), 1.4);
}

TEST(Cdf, FractionAtMost) {
  Cdf c;
  for (int i = 1; i <= 10; ++i) c.add(i);
  EXPECT_DOUBLE_EQ(c.fraction_at_most(0.5), 0.0);
  EXPECT_DOUBLE_EQ(c.fraction_at_most(5.0), 0.5);
  EXPECT_DOUBLE_EQ(c.fraction_at_most(10.0), 1.0);
  EXPECT_DOUBLE_EQ(c.fraction_at_most(100.0), 1.0);
}

TEST(Cdf, MinMaxMean) {
  Cdf c;
  c.add(3.0);
  c.add(1.0);
  c.add(5.0);
  EXPECT_DOUBLE_EQ(c.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(c.percentile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(c.mean(), 3.0);
}

TEST(Table, RendersAlignedColumns) {
  Table t("My Table");
  t.set_header({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string r = t.render();
  EXPECT_NE(r.find("My Table"), std::string::npos);
  EXPECT_NE(r.find("name"), std::string::npos);
  EXPECT_NE(r.find("alpha | 1"), std::string::npos);
  EXPECT_NE(r.find("-----"), std::string::npos);
}

TEST(Table, ShortRowsPadded) {
  Table t;
  t.set_header({"a", "b", "c"});
  t.add_row({"x"});
  EXPECT_NO_THROW(t.render());
}

}  // namespace
}  // namespace tapo::stats
