#include "layers.hh"

#include <cctype>
#include <chrono>
#include <cstring>

#include "bench.hh"
#include "bus/packet.hh"
#include "iopmp/siopmp.hh"
#include "sim/stats.hh"

namespace perfbench {

using siopmp::trace::Event;
using siopmp::trace::Phase;

void
LayerSink::closeSpan(std::map<SpanKey, siopmp::Cycle> &open,
                     const Event &event, std::vector<double> &out)
{
    const SpanKey key{event.track, event.id};
    if (event.phase == Phase::SpanBegin) {
        open[key] = event.when;
        return;
    }
    auto it = open.find(key);
    if (it == open.end())
        return;
    out.push_back(static_cast<double>(event.when - it->second));
    open.erase(it);
}

void
LayerSink::record(const Event &event)
{
    if (event.phase != Phase::SpanBegin && event.phase != Phase::SpanEnd)
        return;
    const char *cat = event.category;
    const char *name = event.name;
    if (std::strcmp(cat, "bus") == 0 && std::strcmp(name, "txn") == 0) {
        closeSpan(open_txn_, event, txn_cycles_);
    } else if (std::strcmp(cat, "checker") == 0) {
        if (std::strcmp(name, "check") == 0) {
            if (event.phase == Phase::SpanBegin) {
                const bool get = std::strcmp(event.label, "Get") == 0;
                requests_.push_back({event.device, event.addr,
                                     static_cast<unsigned>(event.arg1),
                                     !get});
            }
            closeSpan(open_check_, event, check_cycles_);
        } else if (std::strcmp(name, "block_window") == 0) {
            closeSpan(open_block_, event, block_window_cycles_);
        }
    } else if (std::strcmp(cat, "mem") == 0) {
        if (std::strcmp(name, "read") == 0)
            closeSpan(open_read_, event, mem_read_);
        else if (std::strcmp(name, "write") == 0)
            closeSpan(open_write_, event, mem_write_);
    }
}

namespace {

/** Layer a stats group belongs to, or "" for groups not reported. */
std::string
layerOf(const std::string &group)
{
    if (group == "xbar" || group == "siopmp" || group == "monitor" ||
        group == "memory" || group == "iommu" || group == "check_accel") {
        return group == "check_accel" ? "accel" : group;
    }
    const std::string suffix = ".accel";
    if (group.size() > suffix.size() &&
        group.compare(group.size() - suffix.size(), suffix.size(),
                      suffix) == 0) {
        return "accel_node";
    }
    if (group.rfind("checker", 0) == 0) {
        for (std::size_t i = 7; i < group.size(); ++i) {
            if (!std::isdigit(static_cast<unsigned char>(group[i])))
                return "";
        }
        return "checker";
    }
    return "";
}

class TotalsVisitor : public siopmp::stats::StatsVisitor
{
  public:
    explicit TotalsVisitor(std::map<std::string, double> &out) : out_(out)
    {
    }

    void
    visitScalar(const siopmp::stats::Group &group, const std::string &name,
                const siopmp::stats::Scalar &s) override
    {
        const std::string layer = layerOf(group.name());
        if (layer.empty())
            return;
        out_[layer + "." + name] += s.value();
        // Replica accelerators also count toward all accelerators.
        if (layer == "accel_node")
            out_["accel." + name] += s.value();
    }

    void
    visitAverage(const siopmp::stats::Group &, const std::string &,
                 const siopmp::stats::Average &) override
    {
    }

    void
    visitDistribution(const siopmp::stats::Group &group,
                      const std::string &name,
                      const siopmp::stats::Distribution &d) override
    {
        if (group.name() == "monitor" && name == "cold_switch_cycles" &&
            d.count() > 0) {
            out_["monitor.cold_switch_p50"] = d.percentile(50.0);
            out_["monitor.cold_switch_p99"] = d.percentile(99.0);
        }
    }

    void
    visitHistogram(const siopmp::stats::Group &, const std::string &,
                   const siopmp::stats::Histogram &) override
    {
    }

  private:
    std::map<std::string, double> &out_;
};

} // namespace

std::map<std::string, double>
registryTotals()
{
    std::map<std::string, double> out;
    TotalsVisitor visitor(out);
    siopmp::stats::Registry::global().accept(visitor);
    return out;
}

void
replayChecks(const LayerSink &sink, siopmp::iopmp::SIopmp &unit,
             PassResult &result)
{
    using siopmp::iopmp::CheckRequest;
    std::vector<CheckRequest> stream;
    for (const CheckedRequest &req : sink.requests()) {
        const auto sid = unit.resolveSid(req.device);
        if (!sid)
            continue;
        CheckRequest check;
        // Same request shapes as the checker node: one check per read
        // burst, one per write beat.
        check.md_bitmap = unit.src2md().bitmap(*sid);
        if (!req.write) {
            check.addr = req.addr;
            check.len = static_cast<siopmp::Addr>(req.beats) *
                        siopmp::bus::kBeatBytes;
            check.perm = siopmp::Perm::Read;
            stream.push_back(check);
            continue;
        }
        for (unsigned i = 0; i < req.beats; ++i) {
            check.addr = req.addr + static_cast<siopmp::Addr>(i) *
                                        siopmp::bus::kBeatBytes;
            check.len = siopmp::bus::kBeatBytes;
            check.perm = siopmp::Perm::Write;
            stream.push_back(check);
        }
    }
    if (stream.empty())
        return;
    std::uint64_t allowed = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (const CheckRequest &check : stream)
        allowed += unit.checker().check(check).allowed ? 1 : 0;
    const auto t1 = std::chrono::steady_clock::now();
    result.traced["iopmp.check_host_ns"] =
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        static_cast<double>(stream.size());
    result.traced["iopmp.replayed_checks"] =
        static_cast<double>(stream.size());
    result.traced["iopmp.replayed_allowed"] = static_cast<double>(allowed);
}

} // namespace perfbench
