/**
 * @file
 * churn_pressure: an open loop in simulated time. Each pass is one
 * wl::runChurn call with sixteen ports over 128 devices, half of them
 * cold, at the default Poisson arrival rate, for 1600 tenants: a live
 * set of sixteen tenants against three CAM rows plus the eSID slot.
 * Firmware lifecycles, CAM eviction and promotion, SID-miss stalls and
 * blocking windows dominate; per-beat check work is small.
 *
 * 1600 tenants, because an instance's length follows the CAM-thrash
 * dynamics, which settle only in long runs: over 42-400 seeds the
 * simulated cycles of one instance vary by 41% at 200 tenants, 16% at
 * 400 (four such instances averaged: 7%), 8% at 800 and 4% at 1600
 * (interquartile range over median).
 *
 * 128 devices, because runChurn gives tenant seq device
 * 1 + seq % devices: with 64 devices a tenant whose DMA outlives 64
 * later activations shares its device id with a live tenant, and
 * destroying the older one drops the rules the younger needs, which
 * then stalls until the horizon (seed 10 of seeds 1-100 at 400
 * tenants). No seed of 1-400 at 400 tenants stalls with 128 devices.
 */

#include <algorithm>
#include <string>
#include <vector>

#include "bench.hh"
#include "bus/packet.hh"
#include "report.hh"
#include "workloads/churn.hh"

namespace perfbench {

using namespace siopmp;

namespace {

constexpr unsigned kSetupSamples = 15;
constexpr unsigned kTenants = 1600;

wl::ChurnConfig
churnConfig(std::uint64_t seed, unsigned tenants)
{
    wl::ChurnConfig cfg;
    cfg.ports = 16;
    cfg.devices = 128;
    cfg.cold_fraction = 0.5;
    cfg.tenants = tenants;
    cfg.seed = seed;
    return cfg;
}

} // namespace

PassResult
runChurnPressure(const Options &opt, LayerSink *)
{
    PassResult result;

    // Set-up: a zero-tenant runChurn builds and tears down the same
    // SoC, monitor and engines without simulating a cycle.
    std::vector<double> setups;
    for (unsigned i = 0; i < kSetupSamples; ++i) {
        const double t0 = hostNow();
        const wl::ChurnResult empty = wl::runChurn(churnConfig(opt.seed, 0));
        setups.push_back(hostNow() - t0);
        if (empty.cycles != 0)
            result.fail("zero-tenant churn simulated cycles");
    }
    result.setup_s = percentile(setups, 50.0);

    const double t_run = hostNow();
    const wl::ChurnResult r = wl::runChurn(churnConfig(opt.seed, kTenants));
    result.host_s = hostNow() - t_run;

    result.attempted = kTenants;
    result.failed =
        kTenants - std::min<std::uint64_t>(kTenants, r.tenants_destroyed);
    if (r.tenants_created != kTenants || result.failed > 0) {
        result.fail(std::to_string(r.tenants_destroyed) + "/" +
                    std::to_string(r.tenants_created) +
                    " tenants destroyed in " + std::to_string(r.cycles) +
                    " cycles (stopped at the horizon)");
    }
    if (r.invariant_violations > 0) {
        result.fail(std::to_string(r.invariant_violations) +
                    " post-destroy invariant violations");
    }
    if (samplesBeyond(r.bursts_completed, 99.0) < kTailSamplesBeyond)
        result.fail("too few bursts for a p99");

    const double cycles = static_cast<double>(r.cycles);
    const double beats =
        static_cast<double>(r.bursts_completed - r.denied_bursts) *
        bus::kBurstBeats;
    result.fingerprint = r.fingerprint;
    result.modelled = {
        {"sim_cycles", cycles},
        {"beats", beats},
        {"bytes_per_cycle", beats * bus::kBeatBytes / cycles},
        {"burst_p50_cycles", r.check_p50},
        {"burst_p99_cycles", r.check_p99},
        {"bursts_timed", static_cast<double>(r.bursts_completed)},
        {"denied_bursts", static_cast<double>(r.denied_bursts)},
        {"tee_lifecycles", static_cast<double>(r.tenants_destroyed)},
        {"cold_switch_p50_cycles", r.cold_switch_p50},
        {"cold_switch_p99_cycles", r.cold_switch_p99},
    };
    return result;
}

} // namespace perfbench
