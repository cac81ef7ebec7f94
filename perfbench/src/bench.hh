/**
 * @file
 * Shared types of the benchmark: options, the outcome of one pass (one
 * complete instance of a workload), the host clock, and the entry
 * points of the three workloads.
 *
 * A run repeats passes of the same seed for the requested host time.
 * Modelled outcomes (simulated cycles, latencies, byte counts) are a
 * pure function of the seed, so every pass must reproduce them exactly.
 * Host times are taken from the fastest pass: the host this benchmark
 * was defined on switched between speed regimes up to 1.7x apart for
 * seconds to minutes at a time, which moves a median with the share of
 * slow time in a run far more than it moves the fastest pass. Medians
 * are printed alongside. Set-up times are medians.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace siopmp::iopmp {
class SIopmp;
}

namespace perfbench {

class LayerSink;

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 30.0;
    bool trace = false;
    //! Corrupt one output before it is checked (the benchmark's own
    //! test uses it to prove a failed check exits nonzero).
    bool inject_fault = false;
};

/** Host seconds since an arbitrary epoch (steady clock). */
inline double
hostNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Outcome of one pass. */
struct PassResult {
    double setup_s = 0.0; //!< host: start to first simulated cycle
    double host_s = 0.0;  //!< host: the timed run

    std::uint64_t attempted = 0; //!< operations (bursts/packets/tenants)
    std::uint64_t failed = 0;
    std::vector<std::string> failures; //!< failed output checks

    //! Simulated-time outcomes; identical across passes of one seed.
    std::map<std::string, double> modelled;
    //! FNV-1a over the deterministic observables of the pass.
    std::uint64_t fingerprint = 0;

    //! Sim-loop observations, when the benchmark drives the loop.
    bool drives_loop = false;
    std::uint64_t steps = 0;
    double active_sum = 0.0; //!< active components summed over steps
    siopmp::Cycle idle_skipped = 0;

    //! Host ns per call of the firmware/driver/IOMMU functions the
    //! benchmark calls from outside, keyed by operation ("fw.create_tee",
    //! "iommu.translate", ...).
    std::map<std::string, std::vector<double>> call_ns;

    //! Per-layer values only a traced pass can produce.
    std::map<std::string, double> traced;

    void
    fail(std::string what)
    {
        failures.push_back(std::move(what));
    }
};

/** FNV-1a accumulator for pass fingerprints. */
struct Fnv {
    std::uint64_t h = 1469598103934665603ULL;

    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 1099511628211ULL;
        }
    }
};

/** Time one call in host ns and append the sample to @p out. */
template <typename F>
auto
timed(std::vector<double> &out, F &&fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    auto result = fn();
    const auto t1 = std::chrono::steady_clock::now();
    out.push_back(
        std::chrono::duration<double, std::nano>(t1 - t0).count());
    return result;
}

/**
 * Traced passes only: replay the request stream the checker nodes saw
 * (recorded by @p sink) through @p unit's checker().check(), and store
 * host ns per check as "iopmp.check_host_ns" in @p result.
 */
void replayChecks(const LayerSink &sink, siopmp::iopmp::SIopmp &unit,
                  PassResult &result);

/** One pass of each workload; @p sink is non-null on traced passes. */
PassResult runStreamHot(const Options &opt, LayerSink *sink);
PassResult runChurnPressure(const Options &opt, LayerSink *sink);
PassResult runNicMapUnmap(const Options &opt, LayerSink *sink);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
