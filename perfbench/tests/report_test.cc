/**
 * @file
 * Unit tests of the benchmark's metric code: the tail-percentile rule
 * (at least ten samples beyond), the failure ratio and its counts, and
 * that no metric can be printed without a well-formed unit.
 */

#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "report.hh"

using namespace perfbench;

namespace {

std::vector<double>
oneTo(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i) // descending: percentile() must sort
        v.push_back(i);
    return v;
}

} // namespace

TEST(PercentileRule, NearestRankAndSamplesBeyond)
{
    EXPECT_EQ(nearestRank(1000, 99.0), 990u);
    EXPECT_EQ(samplesBeyond(1000, 99.0), 10u);
    EXPECT_EQ(samplesBeyond(999, 99.0), 9u);
    EXPECT_EQ(nearestRank(1, 50.0), 1u);
    EXPECT_EQ(samplesBeyond(0, 99.0), 0u);
}

TEST(PercentileRule, HighestPercentileWithTenSamplesBeyond)
{
    EXPECT_EQ(tailPercentile(10000), 99.9);
    EXPECT_EQ(tailPercentile(9999), 99.0);
    EXPECT_EQ(tailPercentile(1000), 99.0);
    EXPECT_EQ(tailPercentile(999), 95.0);
    EXPECT_EQ(tailPercentile(100), 90.0);
    EXPECT_EQ(tailPercentile(40), 75.0);
    EXPECT_EQ(tailPercentile(39), 0.0);
    EXPECT_EQ(tailPercentile(0), 0.0);
}

TEST(PercentileRule, SummaryReportsMedianTailAndCount)
{
    const Summary s = summarize(oneTo(1000));
    EXPECT_EQ(s.n, 1000u);
    EXPECT_EQ(s.median, 500.0);
    EXPECT_EQ(s.tail_pct, 99.0);
    EXPECT_EQ(s.tail, 990.0);
    EXPECT_EQ(describe(s), "median 500, p99 990, n=1000");

    const Summary few = summarize(oneTo(7));
    EXPECT_EQ(few.median, 4.0);
    EXPECT_EQ(few.tail_pct, 0.0);
    EXPECT_EQ(describe(few), "median 4, n=7");
    EXPECT_EQ(summarize({}).n, 0u);
}

TEST(FailureRatio, CountsAndRatio)
{
    EXPECT_EQ(failedFraction(10, 0), 0.0);
    EXPECT_EQ(failedFraction(8, 2), 0.25);
    EXPECT_EQ(failedFraction(3, 3), 1.0);
    EXPECT_THROW(failedFraction(0, 0), std::invalid_argument);
    EXPECT_THROW(failedFraction(1, 2), std::invalid_argument);
}

TEST(MetricSet, EveryMetricCarriesItsUnit)
{
    MetricSet set;
    set.add("host_s", 1.25, "s");
    set.add("beats_per_host_s", 3.0, "beats/s", "median 3, n=5");
    EXPECT_EQ(set.json(true, 7, 0),
              "{\"correct\": true, \"attempted\": 7, \"failed\": 0, "
              "\"metrics\": {\"host_s\": {\"value\": 1.25, \"unit\": \"s\"}, "
              "\"beats_per_host_s\": {\"value\": 3, \"unit\": "
              "\"beats/s\"}}}");
    std::ostringstream lines;
    set.printLines(lines, "e2e ");
    EXPECT_EQ(lines.str(), "e2e host_s = 1.25 s\n"
                           "e2e beats_per_host_s = 3 beats/s  "
                           "[median 3, n=5]\n");
}

TEST(MetricSet, RejectsMissingOrMalformedUnitsAndNames)
{
    MetricSet set;
    EXPECT_THROW(set.add("x", 1.0, ""), std::invalid_argument);
    EXPECT_THROW(set.add("x", 1.0, "m s"), std::invalid_argument);
    EXPECT_THROW(set.add("x", 1.0, "aaaaaaaaaaaaaaaaa"), std::invalid_argument);
    EXPECT_THROW(set.add("", 1.0, "s"), std::invalid_argument);
    EXPECT_THROW(set.add("_x", 1.0, "s"), std::invalid_argument);
    EXPECT_THROW(set.add("x", std::nan(""), "s"), std::invalid_argument);
    EXPECT_THROW(set.add("x", std::numeric_limits<double>::infinity(), "s"),
                 std::invalid_argument);
    set.add("x", 1.0, "%");
    EXPECT_THROW(set.add("x", 2.0, "s"), std::invalid_argument);
    EXPECT_EQ(set.metrics().size(), 1u);
}

TEST(MetricSet, ValuesKeepAllTheirDigits)
{
    for (double v : {0.1, 1.0 / 3.0, 123456.789012345678, 6.02e23}) {
        EXPECT_EQ(std::strtod(fullDigits(v).c_str(), nullptr), v);
    }
}
