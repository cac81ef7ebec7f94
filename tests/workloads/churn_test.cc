/**
 * @file
 * Tenant-churn workload smoke + regression tests: the fleet scenario
 * completes, sustains the required churn rate, leaves no post-destroy
 * residue, is deterministic per seed and bit-identical without
 * fast-forward — and the concurrent-cold-miss case that
 * livelocked the pre-fix checker (batched SID-missing interrupts, the
 * second mount evicting the first) makes progress.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "sim/stats.hh"
#include "workloads/churn.hh"

namespace siopmp {
namespace wl {
namespace {

ChurnConfig
smallConfig()
{
    ChurnConfig cfg;
    cfg.tenants = 60;
    cfg.arrival_mean = 400.0;
    cfg.seed = 7;
    return cfg;
}

TEST(Churn, CompletesAndSustainsChurnRate)
{
    const ChurnResult r = runChurn(smallConfig());
    EXPECT_EQ(r.tenants_created, 60u);
    EXPECT_EQ(r.tenants_destroyed, 60u);
    EXPECT_EQ(r.invariant_violations, 0u);
    EXPECT_GT(r.bursts_completed, 0u);
    // The mechanisms under test actually fired.
    EXPECT_GT(r.cold_switches, 0u);
    EXPECT_GT(r.sid_misses, 0u);
    EXPECT_GT(r.promotions, 0u);
    EXPECT_GT(r.block_windows, 0u);
    // Acceptance: >= 1000 TEE create/destroy cycles per simulated
    // second (the configured arrival rate is far above that).
    EXPECT_GE(r.churn_per_sim_s, 1000.0);
    EXPECT_GE(r.check_p99, r.check_p50);
    EXPECT_GT(r.check_p99, 0.0);
}

TEST(Churn, CamContentionDrivesEvictions)
{
    // All-hot tenants with fast arrivals: once the backlog keeps all
    // four ports occupied, four live hot tenants contend for three
    // CAM rows, so a promotion must evict a live victim — whose next
    // burst SID-misses and re-promotes mid-DMA.
    ChurnConfig cfg = smallConfig();
    cfg.tenants = 40;
    cfg.arrival_mean = 4.0;
    cfg.cold_fraction = 0.0;
    const ChurnResult r = runChurn(cfg);
    EXPECT_GT(r.cam_evictions, 0u);
    EXPECT_GT(r.sid_misses, 0u); // evicted live victims re-mount
    EXPECT_EQ(r.invariant_violations, 0u);
    EXPECT_EQ(r.tenants_destroyed, 40u);
}

/**
 * Regression: tenant seq used to get device 1 + seq % devices even when
 * a live tenant still held that device. Two live tenants then shared
 * the device's rules; at this seed destroying the older one stripped
 * the rules the younger one still needed, and its DMA SID-missed until
 * the 30M-cycle horizon (399 of 400 tenants finished).
 */
TEST(Churn, LiveTenantsNeverShareADevice)
{
    ChurnConfig cfg;
    cfg.ports = 16;
    cfg.devices = 64;
    cfg.tenants = 400;
    cfg.cold_fraction = 0.5;
    cfg.seed = 10;
    const ChurnResult r = runChurn(cfg);
    EXPECT_EQ(r.tenants_destroyed, 400u);
    EXPECT_LT(r.cycles, cfg.horizon);
    EXPECT_EQ(r.invariant_violations, 0u);
}

TEST(Churn, DeterministicPerSeed)
{
    const ChurnResult a = runChurn(smallConfig());
    const ChurnResult b = runChurn(smallConfig());
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_EQ(a.cycles, b.cycles);

    ChurnConfig other = smallConfig();
    other.seed = 8;
    const ChurnResult c = runChurn(other);
    EXPECT_NE(a.fingerprint, c.fingerprint);
}

/**
 * Regression: the control loop runs between sim.step() calls, so the
 * quiescence fast-forward scheduler must hand control back at exactly
 * the cycles the naive per-cycle loop would act on. Two bugs hid
 * here: arrival pins scheduled *at* the arrival cycle made the idle
 * skip return one cycle late, and a retired port with a backlogged
 * tenant slept until the next event instead of re-activating at the
 * retire cycle.
 */
TEST(Churn, BitIdenticalWithoutFastForward)
{
    const ChurnResult ff = runChurn(smallConfig());
    ChurnConfig naive = smallConfig();
    naive.fast_forward = false;
    const ChurnResult slow = runChurn(naive);
    EXPECT_EQ(ff.fingerprint, slow.fingerprint);
    EXPECT_EQ(ff.cycles, slow.cycles);
}

/**
 * Regression: two cold devices missing in the same cycle used to
 * livelock. The interrupt controller drains both SID-missing
 * interrupts in one batch; the second mount evicts the first from the
 * eSID slot, and the first checker's edge-triggered stall never
 * re-raised — its port wedged forever. The config-epoch re-arm in
 * CheckerNode lets the stalled beat re-authorize (and re-raise) when
 * the configuration moves without resolving its SID.
 */
TEST(Churn, ConcurrentColdMissesBothComplete)
{
    ChurnConfig cfg;
    cfg.ports = 2;
    cfg.tenants = 8;
    cfg.cold_fraction = 1.0; // every tenant cold: eSID thrash
    cfg.remap_fraction = cfg.revoke_fraction = cfg.abort_fraction = 0.0;
    cfg.arrival_mean = 1.0; // simultaneous arrivals → concurrent misses
    cfg.horizon = 2'000'000;
    cfg.seed = 3;
    const ChurnResult r = runChurn(cfg);
    EXPECT_EQ(r.tenants_destroyed, 8u); // pre-fix: wedges at horizon
    EXPECT_GT(r.sid_miss_rearms, 0u);   // the fix actually engaged
    EXPECT_EQ(r.invariant_violations, 0u);
}

/** Stall counters of one run, summed over the Soc's checker nodes. */
struct StallCounters {
    std::uint64_t block_stalls = 0;   //!< checker*.block_stalls
    std::uint64_t checks = 0;         //!< siopmp.checks
    std::uint64_t blocked_stalls = 0; //!< siopmp.blocked_stalls
};

/** Run @p cfg and read its stall counters from the retired groups. */
StallCounters
runAndCountStalls(const ChurnConfig &cfg, ChurnResult *result)
{
    auto &registry = stats::Registry::global();
    registry.clearRetired();
    registry.setRetainRetired(true);
    *result = runChurn(cfg);
    registry.setRetainRetired(false);

    struct Summer : stats::StatsVisitor {
        StallCounters c;
        void
        visitScalar(const stats::Group &group, const std::string &name,
                    const stats::Scalar &s) override
        {
            const auto v = static_cast<std::uint64_t>(s.value());
            if (group.name().rfind("checker", 0) == 0 &&
                name == "block_stalls")
                c.block_stalls += v;
            if (group.name() == "siopmp" && name == "checks")
                c.checks += v;
            if (group.name() == "siopmp" && name == "blocked_stalls")
                c.blocked_stalls += v;
        }
        void visitAverage(const stats::Group &, const std::string &,
                          const stats::Average &) override {}
        void visitDistribution(const stats::Group &, const std::string &,
                               const stats::Distribution &) override {}
        void visitHistogram(const stats::Group &, const std::string &,
                            const stats::Histogram &) override {}
    } summer;
    registry.accept(summer);
    registry.clearRetired();
    return summer.c;
}

/**
 * Parked stalls are host-side scheduling only. Checker nodes sleep
 * through block and SID-miss stalls and credit the polls they skip, so
 * the polling model's counters must come out exactly — pinned here at
 * the values the per-cycle polling checker produced for this cell
 * (1,434 CAM evictions; stalls dominate its simulated time), under
 * both schedulers. The naive loop also runs every parked node's
 * missed-wake self-check on every cycle.
 */
TEST(Churn, ParkedStallsKeepPollingCounters)
{
    ChurnConfig cfg;
    cfg.ports = 16;
    cfg.devices = 64;
    cfg.tenants = 400;
    cfg.cold_fraction = 0.5;
    cfg.seed = 10;
    for (const bool fast_forward : {true, false}) {
        SCOPED_TRACE(fast_forward ? "fast-forward" : "naive loop");
        cfg.fast_forward = fast_forward;
        ChurnResult r;
        const StallCounters c = runAndCountStalls(cfg, &r);
        EXPECT_EQ(r.fingerprint, 0x1fe65829ec07e85bULL);
        EXPECT_EQ(r.cam_evictions, 1434u);
        EXPECT_EQ(r.sid_miss_rearms, 5288u);
        EXPECT_EQ(c.block_stalls, 1'782'216u);
        EXPECT_EQ(c.checks, 1'789'302u);
        EXPECT_EQ(c.blocked_stalls, 1'782'216u);
    }
}

} // namespace
} // namespace wl
} // namespace siopmp
