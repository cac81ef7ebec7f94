/**
 * @file
 * Metric arithmetic and output for the benchmark: the tail-percentile
 * rule, the failure ratio, and the named-metric set that prints every
 * value with its unit (human-readable lines plus the final JSON line).
 * Kept free of simulator headers so its unit tests build on their own.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/** Samples a tail percentile must leave strictly beyond it. */
inline constexpr std::size_t kTailSamplesBeyond = 10;

/** Nearest-rank index (1-based) of the @p pct percentile of @p n samples. */
std::size_t nearestRank(std::size_t n, double pct);

/** Samples strictly above the nearest-rank @p pct percentile. */
std::size_t samplesBeyond(std::size_t n, double pct);

/** Nearest-rank percentile of @p samples (any order); 0 if empty. */
double percentile(std::vector<double> samples, double pct);

/**
 * The highest of 99.9, 99, 95, 90 and 75 that leaves at least
 * kTailSamplesBeyond samples beyond it among @p n samples, or 0 when
 * none does (fewer than 40 samples).
 */
double tailPercentile(std::size_t n);

/** Median plus the tail percentile the rule above allows. */
struct Summary {
    std::size_t n = 0;
    double median = 0.0;
    double tail_pct = 0.0; //!< 0: no percentile qualifies
    double tail = 0.0;
};

Summary summarize(std::vector<double> samples);

/** One-line rendering: "median X (pNN Y, n=N)" or "median X (n=N)". */
std::string describe(const Summary &summary);

/**
 * failed / attempted. Throws std::invalid_argument when nothing was
 * attempted or more failed than were attempted.
 */
double failedFraction(std::uint64_t attempted, std::uint64_t failed);

/** One printed metric. */
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string note; //!< human-readable detail (percentiles, counts)
};

/**
 * Ordered set of named metrics. add() rejects an empty or malformed
 * name or unit and a duplicate name (std::invalid_argument), so
 * nothing can be printed without its unit.
 */
class MetricSet
{
  public:
    void add(const std::string &name, double value, const std::string &unit,
             const std::string &note = "");

    const std::vector<Metric> &metrics() const { return metrics_; }
    const Metric *find(const std::string &name) const;

    /** "name = value unit  [note]" per metric. */
    void printLines(std::ostream &os, const std::string &prefix) const;

    /**
     * The result line: {"correct": .., "attempted": .., "failed": ..,
     * "metrics": {"name": {"value": .., "unit": ".."}, ...}}.
     * Values are printed with all significant digits.
     */
    std::string json(bool correct, std::uint64_t attempted,
                     std::uint64_t failed) const;

  private:
    std::vector<Metric> metrics_;
};

/** %.17g rendering (round-trips a double exactly). */
std::string fullDigits(double value);

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
