/**
 * @file
 * Benchmark entry point: runs passes of one workload for the requested host
 * time, checks every output, and prints every metric by name with its
 * unit, ending with one JSON result line.
 *
 *   perfbench --workload stream_hot|churn_pressure|nic_map_unmap
 *             [--seed N] [--seconds S] [--trace 0|1] [--inject-fault]
 *
 * --trace 0 prints the end-to-end metrics (tracing off). --trace 1
 * spends half the time untraced and half with an in-memory trace sink
 * and registry retention, and prints the per-layer metrics, including
 * the tracing overhead. Exit status is 0 only if every check passed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hh"
#include "layers.hh"
#include "report.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

using Runner = std::function<PassResult(const Options &, LayerSink *)>;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "stream_hot|churn_pressure|nic_map_unmap [--seed N] "
                 "[--seconds S] [--trace 0|1] [--inject-fault]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            opt.workload = value();
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            opt.seconds = std::atof(value().c_str());
        } else if (arg == "--trace") {
            opt.trace = value() != "0";
        } else if (arg == "--inject-fault") {
            opt.inject_fault = true;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (opt.seconds <= 0.0)
        usage("--seconds must be positive");
    return opt;
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

std::vector<double>
collect(const std::vector<PassResult> &passes,
        const std::function<double(const PassResult &)> &fn)
{
    std::vector<double> out;
    for (const PassResult &p : passes)
        out.push_back(fn(p));
    return out;
}

/** Every call_ns sample of @p op over @p passes. */
std::vector<double>
callSamples(const std::vector<PassResult> &passes, const std::string &op)
{
    std::vector<double> out;
    for (const PassResult &p : passes) {
        auto it = p.call_ns.find(op);
        if (it != p.call_ns.end())
            out.insert(out.end(), it->second.begin(), it->second.end());
    }
    return out;
}

double
valueOr(const std::map<std::string, double> &m, const std::string &key,
        double fallback = 0.0)
{
    auto it = m.find(key);
    return it == m.end() ? fallback : it->second;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
mean(const std::vector<double> &v)
{
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/**
 * Peak resident set of this process image, MiB. /proc's VmHWM starts
 * afresh at exec; getrusage's ru_maxrss (the fallback) keeps the
 * launching process's peak, e.g. a Python wrapper's.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

/** Host seconds of the workload's fastest pass. */
double
fastestHost(const std::vector<PassResult> &passes)
{
    double best = passes.front().host_s;
    for (const PassResult &p : passes)
        best = std::min(best, p.host_s);
    return best;
}

/** "fastest of N passes; median ..." */
std::string
fastestNote(const std::vector<double> &samples)
{
    return "fastest of " + std::to_string(samples.size()) + " passes; " +
           describe(summarize(samples));
}

/**
 * Run passes until @p budget host seconds are spent (at least one),
 * starting another only if at least half of it, judged by the last
 * pass, fits: a run of long passes then ends within half a pass of the
 * budget. @p first_rss_mb, when given, receives the peak RSS after the
 * first pass: later passes reuse that memory, while the results the run
 * keeps grow with the number of passes, i.e. with the host's speed.
 */
std::vector<PassResult>
runPasses(const Runner &runner, const Options &opt, double budget,
          bool traced, double *first_rss_mb = nullptr)
{
    std::vector<PassResult> passes;
    const double start = hostNow();
    double pass_start = start;
    const auto another = [&] {
        const double now = hostNow();
        const double last = now - pass_start;
        pass_start = now;
        return now - start + last / 2 < budget;
    };
    do {
        if (!traced) {
            passes.push_back(runner(opt, nullptr));
            if (first_rss_mb && passes.size() == 1)
                *first_rss_mb = peakRssMb();
            continue;
        }
        auto &registry = siopmp::stats::Registry::global();
        registry.clearRetired();
        LayerSink sink;
        siopmp::trace::tracer().setSink(&sink);
        PassResult pass = runner(opt, &sink);
        siopmp::trace::tracer().setSink(nullptr);

        // Per-layer observations of this pass: registry totals of the
        // (now retired) component groups plus the paired trace spans.
        for (const auto &[key, value] : registryTotals())
            pass.traced["reg." + key] = value;
        const auto spans = [&](const std::string &name,
                               const std::vector<double> &cycles) {
            pass.traced[name + "_p50"] = percentile(cycles, 50.0);
            pass.traced[name + "_p99"] = percentile(cycles, 99.0);
            pass.traced[name + "_n"] = static_cast<double>(cycles.size());
            pass.traced[name + "_mean"] = mean(cycles);
        };
        spans("txn", sink.txnCycles());
        spans("check", sink.checkCycles());
        spans("block_window", sink.blockWindowCycles());
        spans("mem_read", sink.memReadCycles());
        spans("mem_write", sink.memWriteCycles());
        registry.clearRetired();
        passes.push_back(std::move(pass));
    } while (another());
    return passes;
}

/** Failed checks of a whole run, from its passes. */
std::vector<std::string>
checkPasses(const std::vector<PassResult> &passes,
            const PassResult &reference, const char *label)
{
    std::vector<std::string> failures;
    for (std::size_t i = 0; i < passes.size(); ++i) {
        const PassResult &p = passes[i];
        for (const std::string &f : p.failures)
            failures.push_back(std::string(label) + " pass " +
                               std::to_string(i) + ": " + f);
        if (p.modelled != reference.modelled ||
            p.fingerprint != reference.fingerprint) {
            failures.push_back(std::string(label) + " pass " +
                               std::to_string(i) +
                               ": modelled outcomes differ from pass 0 of "
                               "the untraced run");
        }
    }
    return failures;
}

MetricSet
endToEnd(const std::vector<PassResult> &passes, double rss_mb)
{
    const auto &m = passes.front().modelled;
    const auto host = collect(passes, [](const PassResult &p) {
        return p.host_s;
    });
    const auto setup = collect(passes, [](const PassResult &p) {
        return p.setup_s;
    });
    const double host_s = fastestHost(passes);
    MetricSet set;
    set.add("setup_s", median(setup), "s",
            "median of " + std::to_string(setup.size()) + " passes");
    set.add("host_s", host_s, "s", fastestNote(host));
    set.add("sim_mcycles_per_host_s", m.at("sim_cycles") / 1e6 / host_s,
            "Mcycles/s");
    set.add("beats_per_host_s", m.at("beats") / host_s, "beats/s");
    set.add("peak_rss_mb", rss_mb, "MB", "after the first pass");
    set.add("sim_cycles", m.at("sim_cycles"), "cycles");
    set.add("burst_p50_cycles", m.at("burst_p50_cycles"), "cycles");
    set.add("burst_p99_cycles", m.at("burst_p99_cycles"), "cycles",
            "n=" + std::to_string(static_cast<std::uint64_t>(
                       m.at("bursts_timed"))) + " per pass");
    set.add("bytes_per_cycle", m.at("bytes_per_cycle"), "B/cycle");
    return set;
}

/**
 * Metrics that apply to one workload each (zero elsewhere), so they are
 * printed for reading here and carried as per-layer metrics.
 */
MetricSet
workloadSpecific(const PassResult &ref, std::uint64_t attempted,
                 std::uint64_t failed)
{
    const auto &m = ref.modelled;
    MetricSet set;
    set.add("tee_per_sim_s",
            valueOr(m, "tee_lifecycles") / (m.at("sim_cycles") / 1e9), "1/s",
            "TEE lifecycles per simulated second at 1 GHz");
    set.add("cold_switch_p99_cycles", valueOr(m, "cold_switch_p99_cycles"),
            "cycles");
    set.add("cpu_cycles_per_packet", valueOr(m, "cpu_cycles_per_packet"),
            "cycles");
    set.add("ops_failed_frac", failedFraction(attempted, failed), "ratio",
            std::to_string(failed) + " of " + std::to_string(attempted) +
                " failed");
    return set;
}

MetricSet
perLayer(const std::vector<PassResult> &untraced,
         const std::vector<PassResult> &traced, std::uint64_t attempted,
         std::uint64_t failed)
{
    const PassResult &u = untraced.front();
    const PassResult &t = traced.back();
    const auto &m = u.modelled;
    const auto &tr = t.traced;
    const auto reg = [&](const std::string &key) {
        return valueOr(tr, "reg." + key);
    };
    const double host_s = fastestHost(untraced);
    const double traced_host_s = fastestHost(traced);
    const double cycles = m.at("sim_cycles");
    const auto callMedian = [&](const std::string &op, double scale) {
        const auto samples = callSamples(untraced, op);
        return samples.empty() ? 0.0 : median(samples) / scale;
    };
    const bool loop = u.drives_loop;

    MetricSet set;
    // sim
    set.add("sim.host_ns_per_cycle", host_s * 1e9 / cycles, "ns");
    set.add("sim.active_components_mean",
            loop ? ratio(u.active_sum, static_cast<double>(u.steps)) : 0.0,
            "count");
    set.add("sim.host_ns_per_eval", loop ? ratio(host_s * 1e9, u.active_sum)
                                         : 0.0,
            "ns");
    set.add("sim.idle_skip_frac",
            loop ? static_cast<double>(u.idle_skipped) / cycles : 0.0,
            "ratio");
    // bus
    set.add("bus.a_beats", reg("xbar.a_beats"), "count");
    set.add("bus.d_beats", reg("xbar.d_beats"), "count");
    set.add("bus.txn_p50_cycles", valueOr(tr, "txn_p50"), "cycles");
    set.add("bus.txn_p99_cycles", valueOr(tr, "txn_p99"), "cycles",
            "n=" + std::to_string(static_cast<std::uint64_t>(
                       valueOr(tr, "txn_n"))));
    // iopmp checker node
    const double fwd = reg("checker.beats_forwarded");
    const double sid_stalls = reg("checker.sid_miss_stalls");
    const double block_stalls = reg("checker.block_stalls");
    set.add("checker.beats_forwarded", fwd, "count");
    set.add("checker.sid_miss_stalls", sid_stalls, "count");
    set.add("checker.block_stalls", block_stalls, "count");
    set.add("checker.sid_miss_rearms", reg("checker.sid_miss_rearms"),
            "count");
    set.add("checker.useful_eval_ratio",
            ratio(fwd, fwd + sid_stalls + block_stalls), "ratio");
    set.add("checker.check_p50_cycles", valueOr(tr, "check_p50"), "cycles");
    set.add("checker.check_p99_cycles", valueOr(tr, "check_p99"), "cycles",
            "n=" + std::to_string(static_cast<std::uint64_t>(
                       valueOr(tr, "check_n"))));
    set.add("checker.block_windows", valueOr(tr, "block_window_n"),
            "count");
    set.add("checker.block_window_mean_cycles",
            valueOr(tr, "block_window_mean"), "cycles");
    // iopmp accelerator
    const double hits = reg("accel_node.check_cache_hits");
    const double lookups = hits + reg("accel_node.check_cache_misses");
    set.add("accel.cache_hit_ratio", ratio(hits, lookups), "ratio");
    // A beat held by backpressure is authorized again every cycle.
    set.add("accel.lookups_per_beat", ratio(lookups, fwd), "ratio");
    set.add("iopmp.check_host_ns", valueOr(tr, "iopmp.check_host_ns"), "ns",
            "n=" + std::to_string(static_cast<std::uint64_t>(
                       valueOr(tr, "iopmp.replayed_checks"))) +
                " replayed, " +
                std::to_string(static_cast<std::uint64_t>(
                    valueOr(tr, "iopmp.replayed_allowed"))) +
                " allowed");
    set.add("accel.partial_flushes", reg("accel.partial_flushes"), "count");
    set.add("accel.full_flushes", reg("accel.full_flushes"), "count");
    set.add("accel.plan_recompiles", reg("accel.plan_recompiles"), "count");
    // iopmp CAM / fw mount
    const double misses = reg("siopmp.sid_misses");
    set.add("cam.sid_misses", misses, "count");
    set.add("cam.miss_ratio", ratio(misses, reg("siopmp.checks")), "ratio");
    set.add("cam.evictions", reg("monitor.cam_evictions"), "count");
    set.add("cam.promotions", reg("monitor.promotions"), "count");
    set.add("cam.demotions", reg("monitor.demotions"), "count");
    set.add("fw.mounted_cold_flushes", reg("monitor.mounted_cold_flushes"),
            "count");
    set.add("fw.cold_switch_p50_cycles",
            valueOr(m, "cold_switch_p50_cycles",
                    reg("monitor.cold_switch_p50")),
            "cycles");
    set.add("cold_switch_p99_cycles",
            valueOr(m, "cold_switch_p99_cycles",
                    reg("monitor.cold_switch_p99")),
            "cycles");
    // mem
    set.add("mem.read_beats", reg("memory.read_beats"), "count");
    set.add("mem.write_beats", reg("memory.write_beats"), "count");
    set.add("mem.read_p50_cycles", valueOr(tr, "mem_read_p50"), "cycles");
    set.add("mem.write_p50_cycles", valueOr(tr, "mem_write_p50"), "cycles");
    // fw
    set.add("fw.create_tee_host_us", callMedian("fw.create_tee", 1e3), "us");
    set.add("fw.device_map_host_us", callMedian("fw.device_map", 1e3), "us");
    set.add("fw.smode_map_host_ns", callMedian("fw.smode_map", 1.0), "ns");
    set.add("fw.smode_unmap_host_ns", callMedian("fw.smode_unmap", 1.0),
            "ns");
    set.add("fw.smode_map_cycles", valueOr(m, "smode_map_cycles"), "cycles");
    set.add("fw.smode_unmap_cycles", valueOr(m, "smode_unmap_cycles"),
            "cycles");
    set.add("tee_per_sim_s", valueOr(m, "tee_lifecycles") / (cycles / 1e9),
            "1/s");
    set.add("cpu_cycles_per_packet", valueOr(m, "cpu_cycles_per_packet"),
            "cycles");
    // iommu
    set.add("iommu.map_host_ns", callMedian("iommu.map", 1.0), "ns");
    set.add("iommu.unmap_host_ns", callMedian("iommu.unmap", 1.0), "ns");
    set.add("iommu.translate_host_ns", callMedian("iommu.translate", 1.0),
            "ns");
    set.add("iommu.iotlb_hit_ratio", valueOr(m, "iotlb_hit_ratio"), "ratio");
    set.add("iommu.map_cost_cycles", valueOr(m, "iommu_map_cycles"),
            "cycles");
    set.add("iommu.unmap_wait_cycles", valueOr(m, "iommu_unmap_wait_cycles"),
            "cycles");
    set.add("iommu.deferred_flushes", valueOr(m, "iommu_deferred_flushes"),
            "count");
    set.add("iommu.stale_translations",
            valueOr(m, "iommu_stale_translations"), "count");
    // devices
    set.add("devices.bursts_timed", m.at("bursts_timed"), "count");
    set.add("devices.denied_bursts", m.at("denied_bursts"), "count");
    set.add("nic.rx_packets", valueOr(m, "rx_packets"), "count");
    set.add("nic.tx_packets", valueOr(m, "tx_packets"), "count");
    set.add("nic.rx_dropped", valueOr(m, "rx_dropped"), "count");
    set.add("ops_failed_frac", failedFraction(attempted, failed), "ratio",
            std::to_string(failed) + " of " + std::to_string(attempted) +
                " failed");
    // tracing
    set.add("trace.overhead_frac", traced_host_s / host_s - 1.0, "ratio",
            "traced host_s " + fullDigits(traced_host_s) + " s over " +
                std::to_string(traced.size()) + " passes");
    return set;
}

Runner
runnerFor(const std::string &workload)
{
    if (workload == "stream_hot")
        return runStreamHot;
    if (workload == "churn_pressure")
        return runChurnPressure;
    if (workload == "nic_map_unmap")
        return runNicMapUnmap;
    usage(("unknown workload '" + workload + "'").c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    const Runner runner = runnerFor(opt.workload);

    std::cout << "perfbench: workload=" << opt.workload
              << " seed=" << opt.seed << " seconds=" << opt.seconds
              << " trace=" << (opt.trace ? 1 : 0) << '\n'
              << "host: nproc=" << std::thread::hardware_concurrency()
              << " build=" << PERFBENCH_BUILD_TYPE << " compiler="
#if defined(__clang__)
              << "clang-" << __clang_version__
#elif defined(__GNUC__)
              << "gcc-" << __VERSION__
#else
              << "unknown"
#endif
              << " sim_threads=0 fast_forward=default accel=default\n"
              << "model: checked only against the paper anchors in "
                 "EXPERIMENTS.md (e.g. the 341-cycle cold switch), not "
                 "against hardware\n";

    double rss_mb = 0.0;
    const std::vector<PassResult> untraced =
        runPasses(runner, opt, opt.trace ? opt.seconds / 2 : opt.seconds,
                  false, &rss_mb);
    const PassResult &ref = untraced.front();
    std::vector<std::string> failures =
        checkPasses(untraced, ref, "untraced");

    std::vector<PassResult> traced;
    if (opt.trace) {
        siopmp::stats::Registry::global().setRetainRetired(true);
        traced = runPasses(runner, opt, opt.seconds / 2, true);
        siopmp::stats::Registry::global().setRetainRetired(false);
        // Tracing is a pure observer: the traced passes must reproduce
        // the untraced modelled outcomes exactly.
        for (const std::string &f : checkPasses(traced, ref, "traced"))
            failures.push_back(f);
    }

    std::uint64_t attempted = 0, failed = 0;
    for (const auto &passes : {std::cref(untraced), std::cref(traced)}) {
        for (const PassResult &p : passes.get()) {
            attempted += p.attempted;
            failed += p.failed;
        }
    }
    if (attempted == 0)
        failures.push_back("no operation was attempted");
    const bool measured = valueOr(ref.modelled, "sim_cycles") > 0.0;
    if (!measured)
        failures.push_back("no simulated cycle was measured");
    const bool correct = failures.empty() && failed == 0;

    std::printf("passes: %zu untraced, %zu traced\n", untraced.size(),
                traced.size());
    std::printf("fingerprint = %016llx\n",
                static_cast<unsigned long long>(ref.fingerprint));
    for (const std::string &f : failures)
        std::printf("CHECK FAILED: %s\n", f.c_str());
    std::printf("checks: %s (%llu operations attempted, %llu failed)\n",
                correct ? "passed" : "FAILED",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    if (attempted == 0 || !measured)
        return 1;

    const MetricSet e2e = endToEnd(untraced, rss_mb);
    e2e.printLines(std::cout, "e2e ");
    workloadSpecific(ref, attempted, failed).printLines(std::cout, "e2e ");
    if (!opt.trace) {
        std::cout << e2e.json(correct, attempted, failed) << std::endl;
        return correct ? 0 : 1;
    }
    const MetricSet layers = perLayer(untraced, traced, attempted, failed);
    layers.printLines(std::cout, "layer ");
    std::cout << layers.json(correct, attempted, failed) << std::endl;
    return correct ? 0 : 1;
}
