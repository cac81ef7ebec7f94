#include "report.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

bool
validName(const std::string &name)
{
    if (name.empty() || name.size() > 64)
        return false;
    if (!std::isalnum(static_cast<unsigned char>(name[0])))
        return false;
    return std::all_of(name.begin(), name.end(), [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
               c == '.' || c == '-';
    });
}

bool
validUnit(const std::string &unit)
{
    if (unit.empty() || unit.size() > 16)
        return false;
    return std::all_of(unit.begin(), unit.end(), [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
               c == '/' || c == '%' || c == '.' || c == '-';
    });
}

} // namespace

std::size_t
nearestRank(std::size_t n, double pct)
{
    if (n == 0)
        return 0;
    // The epsilon keeps decimal percentiles (99.9) from rounding a
    // whole rank up to the next one.
    auto rank = static_cast<std::size_t>(
        std::ceil(pct * static_cast<double>(n) / 100.0 - 1e-9));
    return std::clamp<std::size_t>(rank, 1, n);
}

std::size_t
samplesBeyond(std::size_t n, double pct)
{
    return n - nearestRank(n, pct);
}

double
percentile(std::vector<double> samples, double pct)
{
    if (samples.empty())
        return 0.0;
    const std::size_t rank = nearestRank(samples.size(), pct);
    std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                     samples.end());
    return samples[rank - 1];
}

double
tailPercentile(std::size_t n)
{
    for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0}) {
        if (samplesBeyond(n, pct) >= kTailSamplesBeyond)
            return pct;
    }
    return 0.0;
}

Summary
summarize(std::vector<double> samples)
{
    Summary s;
    s.n = samples.size();
    if (samples.empty())
        return s;
    s.median = percentile(samples, 50.0);
    s.tail_pct = tailPercentile(s.n);
    if (s.tail_pct > 0.0)
        s.tail = percentile(std::move(samples), s.tail_pct);
    return s;
}

std::string
describe(const Summary &summary)
{
    char buf[128];
    if (summary.tail_pct > 0.0) {
        std::snprintf(buf, sizeof buf, "median %.6g, p%g %.6g, n=%zu",
                      summary.median, summary.tail_pct, summary.tail,
                      summary.n);
    } else {
        std::snprintf(buf, sizeof buf, "median %.6g, n=%zu",
                      summary.median, summary.n);
    }
    return buf;
}

double
failedFraction(std::uint64_t attempted, std::uint64_t failed)
{
    if (attempted == 0)
        throw std::invalid_argument("failure ratio with nothing attempted");
    if (failed > attempted)
        throw std::invalid_argument("more operations failed than attempted");
    return static_cast<double>(failed) / static_cast<double>(attempted);
}

void
MetricSet::add(const std::string &name, double value,
               const std::string &unit, const std::string &note)
{
    if (!validName(name))
        throw std::invalid_argument("bad metric name '" + name + "'");
    if (!validUnit(unit))
        throw std::invalid_argument("metric '" + name + "' has bad unit '" +
                                    unit + "'");
    if (!std::isfinite(value))
        throw std::invalid_argument("metric '" + name + "' is not finite");
    if (find(name))
        throw std::invalid_argument("duplicate metric '" + name + "'");
    metrics_.push_back({name, value, unit, note});
}

const Metric *
MetricSet::find(const std::string &name) const
{
    for (const Metric &m : metrics_) {
        if (m.name == name)
            return &m;
    }
    return nullptr;
}

void
MetricSet::printLines(std::ostream &os, const std::string &prefix) const
{
    for (const Metric &m : metrics_) {
        os << prefix << m.name << " = " << fullDigits(m.value) << ' '
           << m.unit;
        if (!m.note.empty())
            os << "  [" << m.note << ']';
        os << '\n';
    }
}

std::string
MetricSet::json(bool correct, std::uint64_t attempted,
                std::uint64_t failed) const
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        os << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
           << fullDigits(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    }
    os << "}}";
    return os.str();
}

std::string
fullDigits(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

} // namespace perfbench
