/**
 * @file
 * Check-path accelerator tests (iopmp/accel.hh):
 *
 *  - differential: with the accelerator enabled, check() must return
 *    bit-identical results to the checker's own checkUncached() walk,
 *    across every checker kind, random programming, and direct table
 *    mutations mid-stream;
 *  - invalidation completeness: a parameterized walk over every MMIO
 *    write path (and the direct-mutation APIs) that can change an
 *    authorization outcome, comparing an accelerated DUT against an
 *    accel-off twin driven by the same op sequence;
 *  - invalidation minimality: a mutation confined to one MD must not
 *    dirty the plans of disjoint MD bitmaps (the point of the per-MD
 *    incremental scheme);
 *  - the SIOPMP_ACCEL_MODE escape hatch and the mode plumbing;
 *  - the check_accel observability counters.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "iopmp/accel.hh"
#include "iopmp/checker.hh"
#include "iopmp/linear_checker.hh"
#include "iopmp/siopmp.hh"
#include "sim/random.hh"

namespace siopmp {
namespace iopmp {
namespace {

// ---- differential vs the microarchitectural walk ------------------------

/** Address pool shared by entries and probes so they actually collide;
 * includes the extremes that historically broke interval arithmetic. */
Addr
pickAddr(Rng &rng)
{
    static constexpr Addr kPool[] = {
        0x0,
        0x1000,
        0x2000,
        0x8000,
        0x100000,
        std::uint64_t{1} << 32,
        std::uint64_t{1} << 63,
        ~std::uint64_t{0} - 0xfff, // region/burst ending at 2^64
    };
    Addr addr = kPool[rng.below(sizeof(kPool) / sizeof(kPool[0]))];
    if (rng.chance(0.4))
        addr += rng.below(0x2000) & ~Addr{7};
    return addr;
}

void
randomizeEntry(EntryTable &entries, Rng &rng)
{
    const unsigned idx = static_cast<unsigned>(rng.below(entries.size()));
    Entry entry = Entry::off();
    if (!rng.chance(0.15)) {
        static constexpr Addr kSizes[] = {1, 8, 0x40, 0x1000, 0x2000,
                                          std::uint64_t{1} << 32,
                                          std::uint64_t{1} << 63,
                                          ~std::uint64_t{0}};
        entry = Entry::range(
            pickAddr(rng),
            kSizes[rng.below(sizeof(kSizes) / sizeof(kSizes[0]))],
            static_cast<Perm>(rng.below(4)));
    }
    ASSERT_TRUE(entries.set(idx, entry, /*machine_mode=*/true));
}

void
randomizeTops(MdCfgTable &mdcfg, Rng &rng, unsigned num_entries)
{
    mdcfg.resetAll();
    unsigned top = 0;
    for (MdIndex md = 0; md < mdcfg.numMds(); ++md) {
        top = std::min(num_entries,
                       top + static_cast<unsigned>(
                                 rng.below(num_entries / 2 + 1)));
        ASSERT_TRUE(mdcfg.setTop(md, top));
    }
}

CheckRequest
randomRequest(Rng &rng, unsigned num_mds)
{
    CheckRequest req;
    req.addr = pickAddr(rng);
    static constexpr Addr kLens[] = {1, 4, 8, 0x40, 0x1000};
    req.len = kLens[rng.below(sizeof(kLens) / sizeof(kLens[0]))];
    if (rng.chance(0.05))
        req.len = 0; // must deny with no deciding entry
    else if (rng.chance(0.05))
        req.len = ~Addr{0} - req.addr + 1; // burst ending at 2^64
    req.perm = static_cast<Perm>(rng.below(4));
    req.md_bitmap = rng.next() & ((std::uint64_t{1} << num_mds) - 1);
    return req;
}

struct KindParam {
    CheckerKind kind;
    unsigned stages;
};

class AccelDifferential : public ::testing::TestWithParam<KindParam>
{
};

/** The accelerated path must be bit-identical to the checker's own
 * reduction, including across direct table mutations mid-stream (the
 * TableListener callbacks, not the MMIO window, carry the
 * invalidation). */
TEST_P(AccelDifferential, MatchesUncachedUnderMutation)
{
    constexpr unsigned kEntries = 24;
    constexpr unsigned kMds = 8;
    EntryTable entries(kEntries);
    MdCfgTable mdcfg(kMds, kEntries);
    Rng rng(0xacce1 + static_cast<unsigned>(GetParam().kind));

    randomizeTops(mdcfg, rng, kEntries);
    for (unsigned i = 0; i < kEntries; ++i)
        randomizeEntry(entries, rng);

    auto checker =
        makeChecker(GetParam().kind, GetParam().stages, entries, mdcfg);
    checker->setAccelMode(AccelMode::Plans);
    ASSERT_TRUE(checker->accelEnabled());

    for (unsigned i = 0; i < 4000; ++i) {
        if (i % 97 == 96) {
            // Mutate behind the accelerator's back: entry rewrite or a
            // whole-table MDCFG reshape, via the direct (non-MMIO) API.
            if (rng.chance(0.7))
                randomizeEntry(entries, rng);
            else
                randomizeTops(mdcfg, rng, kEntries);
        }
        const CheckRequest req = randomRequest(rng, kMds);
        const CheckResult fast = checker->check(req);
        const CheckResult slow = checker->checkUncached(req);
        ASSERT_EQ(fast.entry, slow.entry)
            << "iter " << i << " addr=" << std::hex << req.addr
            << " len=" << req.len << " bitmap=" << req.md_bitmap;
        ASSERT_EQ(fast.allowed, slow.allowed) << "iter " << i;
        ASSERT_EQ(fast.partial, slow.partial) << "iter " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, AccelDifferential,
    ::testing::Values(KindParam{CheckerKind::Linear, 1},
                      KindParam{CheckerKind::Tree, 1},
                      KindParam{CheckerKind::PipelineLinear, 3},
                      KindParam{CheckerKind::PipelineTree, 2}),
    [](const ::testing::TestParamInfo<KindParam> &info) {
        // gtest names must be [A-Za-z0-9_]; kind names carry dashes.
        std::string name = checkerKindName(info.param.kind);
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name + "x" + std::to_string(info.param.stages);
    });

// ---- invalidation completeness over the MMIO surface --------------------

/** One mutation scenario: a named state change that must become
 * visible through the accelerated path immediately. */
struct Mutation {
    const char *name;
    std::function<void(SIopmp &)> apply;
    //! Whether the probe battery is guaranteed to change somewhere
    //! (proving the invalidation is load-bearing, not vacuous).
    bool expect_change;
};

constexpr DeviceId kDevHot = 1;
constexpr DeviceId kDevHot2 = 2;
constexpr DeviceId kDevCold = 9;
constexpr DeviceId kDevCold2 = 10;
constexpr DeviceId kDevUnbound = 7;

IopmpConfig
probeConfig()
{
    IopmpConfig cfg;
    cfg.num_entries = 8;
    cfg.num_sids = 8;
    cfg.num_mds = 4;
    return cfg;
}

void
writeEntry(SIopmp &dut, unsigned idx, Addr base, Addr size,
           std::uint64_t cfg_word)
{
    const Addr off = regmap::kEntryBase + Addr{idx} * regmap::kEntryStride;
    dut.mmioWrite(off + 0, base);
    dut.mmioWrite(off + 8, size);
    dut.mmioWrite(off + 16, cfg_word);
}

/** Common programming, all through the MMIO window: three range
 * entries across two MDs, two hot SIDs, one mounted cold device. */
void
program(SIopmp &dut)
{
    constexpr std::uint64_t kRange = 1u << 2;
    writeEntry(dut, 0, 0x1000, 0x1000, kRange | 0x3); // rw
    writeEntry(dut, 1, 0x2000, 0x1000, kRange | 0x1); // r-
    writeEntry(dut, 2, 0x8000, 0x1000, kRange | 0x3); // rw
    dut.mmioWrite(regmap::kMdCfgBase + 0 * 8, 2); // MD0: entries 0-1
    dut.mmioWrite(regmap::kMdCfgBase + 1 * 8, 3); // MD1: entry 2
    dut.mmioWrite(regmap::kSrc2MdBase + 1 * 8, 0x1); // SID1 -> MD0
    dut.mmioWrite(regmap::kSrc2MdBase + 2 * 8, 0x2); // SID2 -> MD1
    // Cold slot (SID 7) sees both MDs.
    dut.mmioWrite(regmap::kSrc2MdBase + 7 * 8, 0x3);
    const std::uint64_t kValid = std::uint64_t{1} << 63;
    dut.mmioWrite(regmap::kCamBase + 1 * 8, kValid | kDevHot);
    dut.mmioWrite(regmap::kCamBase + 2 * 8, kValid | kDevHot2);
    dut.mmioWrite(regmap::kEsid, kValid | kDevCold);
}

/** Every (device, addr, perm) combination the scenarios can flip. */
std::vector<AuthResult>
probe(SIopmp &dut)
{
    static constexpr DeviceId kDevices[] = {kDevHot, kDevHot2, kDevCold,
                                            kDevCold2, kDevUnbound};
    static constexpr Addr kAddrs[] = {0x1000, 0x2000, 0x8000, 0x10000};
    static constexpr Perm kPerms[] = {Perm::Read, Perm::Write};
    std::vector<AuthResult> results;
    for (DeviceId device : kDevices)
        for (Addr addr : kAddrs)
            for (Perm perm : kPerms)
                results.push_back(dut.authorize(device, addr, 8, perm));
    return results;
}

bool
sameResults(const std::vector<AuthResult> &a,
            const std::vector<AuthResult> &b, std::string *why)
{
    if (a.size() != b.size()) {
        *why = "size mismatch";
        return false;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].status != b[i].status || a[i].sid != b[i].sid ||
            a[i].entry != b[i].entry) {
            *why = "probe " + std::to_string(i) + ": status " +
                   std::to_string(static_cast<int>(a[i].status)) +
                   " vs " + std::to_string(static_cast<int>(b[i].status)) +
                   ", entry " + std::to_string(a[i].entry) + " vs " +
                   std::to_string(b[i].entry);
            return false;
        }
    }
    return true;
}

class InvalidationCompleteness : public ::testing::TestWithParam<Mutation>
{
};

/**
 * Twin-DUT walk: drive the identical sequence — program, probe,
 * mutate, probe — through an accelerated DUT and an accel-off twin.
 * Any missing invalidation path shows up as the accelerated DUT
 * serving a pre-mutation verdict from a stale plan.
 */
TEST_P(InvalidationCompleteness, CachedMatchesUncachedAcrossMutation)
{
    SIopmp accel(probeConfig(), CheckerKind::Linear, 1);
    SIopmp walk(probeConfig(), CheckerKind::Tree, 1);
    accel.setAccelMode(AccelMode::Plans);
    walk.setAccelMode(AccelMode::Off);
    ASSERT_EQ(accel.accelMode(), AccelMode::Plans);
    ASSERT_EQ(walk.accelMode(), AccelMode::Off);

    program(accel);
    program(walk);

    std::string why;
    const std::vector<AuthResult> before_accel = probe(accel);
    const std::vector<AuthResult> before = probe(walk);
    ASSERT_TRUE(sameResults(before_accel, before, &why)) << why;

    // The probe compiled every plan it touched; a stale post-mutation
    // verdict can only come out of a plan the mutation failed to dirty.

    GetParam().apply(accel);
    GetParam().apply(walk);

    const std::vector<AuthResult> after_accel = probe(accel);
    const std::vector<AuthResult> after = probe(walk);
    EXPECT_TRUE(sameResults(after_accel, after, &why))
        << GetParam().name << ": " << why;

    if (GetParam().expect_change) {
        EXPECT_FALSE(sameResults(before, after, &why))
            << GetParam().name
            << ": mutation did not change any probe verdict — the "
               "scenario is vacuous";
    }
}

const std::uint64_t kValid63 = std::uint64_t{1} << 63;

INSTANTIATE_TEST_SUITE_P(
    MmioPaths, InvalidationCompleteness,
    ::testing::Values(
        Mutation{"entry_commit",
                 [](SIopmp &dut) {
                     // Entry 0 flips rw -> none: allowed becomes deny.
                     writeEntry(dut, 0, 0x1000, 0x1000, (1u << 2) | 0x0);
                 },
                 true},
        Mutation{"entry_disable",
                 [](SIopmp &dut) {
                     writeEntry(dut, 2, 0, 0, 0); // mode Off
                 },
                 true},
        Mutation{"entry_lock_rejected_rewrite",
                 [](SIopmp &dut) {
                     // Lock entry 0, then try to rewrite it: the write
                     // is rejected, verdicts must NOT change.
                     writeEntry(dut, 0, 0x1000, 0x1000,
                                (1u << 2) | 0x3 | 0x80);
                     writeEntry(dut, 0, 0x1000, 0x1000, (1u << 2) | 0x0);
                 },
                 false},
        Mutation{"src2md_bitmap",
                 [](SIopmp &dut) {
                     // SID1 loses MD0: its allowed probes default-deny.
                     dut.mmioWrite(regmap::kSrc2MdBase + 1 * 8, 0x0);
                 },
                 true},
        Mutation{"src2md_lock_then_rejected",
                 [](SIopmp &dut) {
                     // Locked row rejects the follow-up clear.
                     dut.mmioWrite(regmap::kSrc2MdBase + 1 * 8,
                                   kValid63 | 0x1);
                     dut.mmioWrite(regmap::kSrc2MdBase + 1 * 8, 0x0);
                 },
                 false},
        Mutation{"mdcfg_top",
                 [](SIopmp &dut) {
                     // MD0 shrinks to entry 0 only: entry 1 moves into
                     // MD1, so SID1 loses 0x2000 and SID2 gains it.
                     dut.mmioWrite(regmap::kMdCfgBase + 0 * 8, 1);
                 },
                 true},
        Mutation{"cam_invalidate",
                 [](SIopmp &dut) {
                     // Device 1 unbinds: probes turn sid_miss.
                     dut.mmioWrite(regmap::kCamBase + 1 * 8, 0);
                 },
                 true},
        Mutation{"cam_rebind",
                 [](SIopmp &dut) {
                     // Unbound device 7 takes over SID 2's row.
                     dut.mmioWrite(regmap::kCamBase + 2 * 8,
                                   kValid63 | kDevUnbound);
                 },
                 true},
        Mutation{"esid_cold_switch",
                 [](SIopmp &dut) {
                     // Mounted cold device swaps 9 -> 10.
                     dut.mmioWrite(regmap::kEsid, kValid63 | kDevCold2);
                 },
                 true},
        Mutation{"esid_unmount",
                 [](SIopmp &dut) { dut.mmioWrite(regmap::kEsid, 0); },
                 true},
        Mutation{"block_bitmap_set",
                 [](SIopmp &dut) {
                     // SID 1 blocked: probes stall.
                     dut.mmioWrite(regmap::kBlockBitmap, 0x2);
                 },
                 true},
        Mutation{"mount_api",
                 [](SIopmp &dut) {
                     // The monitor-facing mount API, not the register.
                     dut.setMountedCold(kDevCold2);
                 },
                 true},
        Mutation{"direct_entry_set",
                 [](SIopmp &dut) {
                     // Machine-mode table write bypassing MMIO: the
                     // table listener must still catch it.
                     dut.entryTable().set(0, Entry::off(),
                                          /*machine_mode=*/true);
                 },
                 true},
        Mutation{"direct_mdcfg_reset",
                 [](SIopmp &dut) {
                     // Direct wipe of the MD map: nothing is owned, all
                     // checks default-deny.
                     dut.mdcfg().resetAll();
                 },
                 true}),
    [](const ::testing::TestParamInfo<Mutation> &info) {
        return info.param.name;
    });

// ---- escape hatch and mode plumbing -------------------------------------

/** RAII save/restore of the acceleration env var. */
class EnvGuard
{
  public:
    EnvGuard() { save("SIOPMP_ACCEL_MODE", &accel_); }
    ~EnvGuard()
    {
        restore("SIOPMP_ACCEL_MODE", accel_);
        CheckAccel::setDefaultMode(std::nullopt);
    }

  private:
    static void
    save(const char *name, std::optional<std::string> *slot)
    {
        if (const char *value = std::getenv(name))
            *slot = value;
        unsetenv(name);
    }
    static void
    restore(const char *name, const std::optional<std::string> &slot)
    {
        if (slot)
            setenv(name, slot->c_str(), 1);
        else
            unsetenv(name);
    }

    std::optional<std::string> accel_;
};

TEST(CheckAccel, EnvEscapeHatch)
{
    EnvGuard guard;

    // No env, no override: compiled plans.
    EXPECT_EQ(CheckAccel::defaultMode(), AccelMode::Plans);

    setenv("SIOPMP_ACCEL_MODE", "off", 1);
    EXPECT_EQ(CheckAccel::defaultMode(), AccelMode::Off);
    {
        SIopmp dut(probeConfig(), CheckerKind::Linear, 1);
        EXPECT_EQ(dut.accelMode(), AccelMode::Off);
        // Explicit per-instance override beats the environment.
        dut.setAccelMode(AccelMode::Plans);
        EXPECT_EQ(dut.accelMode(), AccelMode::Plans);
    }

    setenv("SIOPMP_ACCEL_MODE", "plans", 1);
    EXPECT_EQ(CheckAccel::defaultMode(), AccelMode::Plans);
    {
        SIopmp dut(probeConfig(), CheckerKind::Linear, 1);
        EXPECT_EQ(dut.accelMode(), AccelMode::Plans);
    }

    // An unparseable value keeps the default rather than silently
    // disabling the layer.
    setenv("SIOPMP_ACCEL_MODE", "warpdrive", 1);
    EXPECT_EQ(CheckAccel::defaultMode(), AccelMode::Plans);

    // The programmatic override (CLIs) beats the environment.
    CheckAccel::setDefaultMode(AccelMode::Off);
    EXPECT_EQ(CheckAccel::defaultMode(), AccelMode::Off);
}

TEST(CheckAccel, SetCheckerPreservesAccelMode)
{
    SIopmp dut(probeConfig(), CheckerKind::Linear, 1);
    dut.setAccelMode(AccelMode::Plans);
    dut.setChecker(CheckerKind::Tree, 1);
    EXPECT_EQ(dut.accelMode(), AccelMode::Plans);
    dut.setAccelMode(AccelMode::Off);
    dut.setChecker(CheckerKind::PipelineTree, 2);
    EXPECT_EQ(dut.accelMode(), AccelMode::Off);
    dut.setAccelMode(AccelMode::Plans);
    dut.setChecker(CheckerKind::Linear, 1);
    EXPECT_EQ(dut.accelMode(), AccelMode::Plans);
}

/** One documented default, one construction path: the factory applies
 * CheckAccel::defaultMode(); raw checker constructors stay Off so
 * microarchitectural unit tests see the pure walk. */
TEST(CheckAccel, FactoryAppliesDefaultRawConstructionStaysOff)
{
    EnvGuard guard;

    constexpr unsigned kEntries = 8;
    EntryTable entries(kEntries);
    MdCfgTable mdcfg(2, kEntries);

    auto factory_built =
        makeChecker(CheckerKind::Linear, 1, entries, mdcfg);
    EXPECT_EQ(factory_built->accelMode(), CheckAccel::defaultMode());
    EXPECT_EQ(factory_built->accelMode(), AccelMode::Plans);

    LinearChecker raw(entries, mdcfg);
    EXPECT_EQ(raw.accelMode(), AccelMode::Off);

    // The factory honours a changed default, too.
    CheckAccel::setDefaultMode(AccelMode::Off);
    auto off_built = makeChecker(CheckerKind::Tree, 1, entries, mdcfg);
    EXPECT_EQ(off_built->accelMode(), AccelMode::Off);
}

// ---- observability counters ---------------------------------------------

TEST(CheckAccel, CountersTrackCompilesAndFlushes)
{
    SIopmp dut(probeConfig(), CheckerKind::Linear, 1);
    dut.setAccelMode(AccelMode::Plans);
    program(dut);
    const CheckAccel *accel = dut.checker().accel();
    ASSERT_NE(accel, nullptr);

    // program() itself churns the tables through MMIO, so flush
    // counters are already nonzero; snapshot and compare deltas.
    const std::uint64_t partial0 = accel->partialFlushes();
    const std::uint64_t full0 = accel->fullFlushes();

    // First check compiles SID1's plan.
    EXPECT_EQ(dut.authorize(kDevHot, 0x1000, 8, Perm::Read).status,
              AuthStatus::Allow);
    const std::uint64_t compiles0 = accel->planCompiles();
    EXPECT_EQ(compiles0, 1u);
    EXPECT_EQ(accel->planRecompiles(), 0u);
    EXPECT_EQ(accel->stalePlans(), 0u);

    // Repeats reuse the clean plan: no plan work at all.
    for (int i = 0; i < 5; ++i)
        dut.authorize(kDevHot, 0x1000, 8, Perm::Read);
    EXPECT_EQ(accel->planCompiles(), compiles0);
    EXPECT_EQ(accel->planRecompiles(), 0u);

    // A config write partially flushes (no full flush: only plans of
    // the owning MDs go stale), and the next check recompiles the
    // stranded plan and sees the new permission.
    writeEntry(dut, 0, 0x1000, 0x1000, (1u << 2) | 0x1); // rw -> r-
    EXPECT_EQ(accel->partialFlushes(), partial0 + 1);
    EXPECT_EQ(accel->fullFlushes(), full0);
    EXPECT_EQ(accel->stalePlans(), 1u);
    EXPECT_EQ(dut.authorize(kDevHot, 0x1000, 8, Perm::Write).status,
              AuthStatus::Deny);
    EXPECT_EQ(accel->planRecompiles(), 1u);
    EXPECT_EQ(accel->planCompiles(), compiles0);
    EXPECT_EQ(accel->stalePlans(), 0u);
}

// ---- invalidation minimality --------------------------------------------

/** Four-MD layout with one plan-warmed request per disjoint bitmap:
 * the shared scaffolding for the minimality tests. */
struct MinimalityRig {
    static constexpr unsigned kEntries = 16;

    MinimalityRig() : entries(kEntries), mdcfg(4, kEntries)
    {
        // MD m owns entries [4m, 4m+4).
        for (MdIndex md = 0; md < 4; ++md)
            EXPECT_TRUE(mdcfg.setTop(md, (md + 1) * 4));
        for (unsigned i = 0; i < kEntries; ++i) {
            EXPECT_TRUE(entries.set(
                i, Entry::range(Addr{0x1000} * i, 0x1000, Perm::ReadWrite),
                /*machine_mode=*/true));
        }
        checker = makeChecker(CheckerKind::Linear, 1, entries, mdcfg);
        checker->setAccelMode(AccelMode::Plans);
        accel = checker->accel();
        EXPECT_NE(accel, nullptr);

        // req_a reads through MD0; req_b through MD2|MD3 — disjoint.
        req_a.addr = 0x1000;
        req_a.len = 8;
        req_a.perm = Perm::Read;
        req_a.md_bitmap = 0x1;
        req_b = req_a;
        req_b.addr = 0x9000;
        req_b.md_bitmap = 0xc;

        // Compile both plans.
        checker->check(req_a);
        checker->check(req_b);
        EXPECT_EQ(accel->planCompiles(), 2u);
        EXPECT_EQ(accel->stalePlans(), 0u);
    }

    EntryTable entries;
    MdCfgTable mdcfg;
    std::unique_ptr<CheckerLogic> checker;
    const CheckAccel *accel = nullptr;
    CheckRequest req_a;
    CheckRequest req_b;
};

/** An entry rewrite inside MD0 must leave MD2|MD3's plan clean,
 * while MD0's plan goes stale and recompiles on its next use. */
TEST(CheckAccel, EntryMutationLeavesDisjointMdsValid)
{
    MinimalityRig rig;

    // Entry 1 lives in MD0's window: read-write becomes read-only.
    ASSERT_TRUE(rig.entries.set(
        1, Entry::range(0x1000, 0x1000, Perm::Read), true));
    EXPECT_EQ(rig.accel->partialFlushes(), 1u);
    EXPECT_EQ(rig.accel->fullFlushes(), 0u);
    EXPECT_EQ(rig.accel->stalePlans(), 1u);

    // Disjoint bitmap: its plan is still clean, no plan work.
    EXPECT_TRUE(rig.checker->check(rig.req_b).allowed);
    EXPECT_EQ(rig.accel->planRecompiles(), 0u);
    EXPECT_EQ(rig.accel->stalePlans(), 1u);

    // Touched bitmap: the plan recompiles and sees the new rule.
    CheckRequest write_a = rig.req_a;
    write_a.perm = Perm::Write;
    EXPECT_FALSE(rig.checker->check(write_a).allowed);
    EXPECT_EQ(rig.accel->planRecompiles(), 1u);
    EXPECT_EQ(rig.accel->planCompiles(), 2u);
    EXPECT_EQ(rig.accel->stalePlans(), 0u);
}

/** An MDCFG top move on the MD0/MD1 boundary must dirty only bitmaps
 * intersecting {MD0, MD1}. */
TEST(CheckAccel, MdcfgTopMoveLeavesDisjointMdsValid)
{
    MinimalityRig rig;

    // MD0 shrinks 4 -> 3: entry 3 moves from MD0 to MD1.
    ASSERT_TRUE(rig.mdcfg.setTop(0, 3));
    EXPECT_EQ(rig.accel->partialFlushes(), 1u);
    EXPECT_EQ(rig.accel->fullFlushes(), 0u);
    EXPECT_EQ(rig.accel->stalePlans(), 1u);

    // MD2|MD3 is untouched by the boundary move.
    rig.checker->check(rig.req_b);
    EXPECT_EQ(rig.accel->planRecompiles(), 0u);
    EXPECT_EQ(rig.accel->stalePlans(), 1u);

    // MD0's plan is stale and recompiles.
    rig.checker->check(rig.req_a);
    EXPECT_EQ(rig.accel->planRecompiles(), 1u);
    EXPECT_EQ(rig.accel->stalePlans(), 0u);
}

/** Overlapping bitmaps on both sides of a mutation: only those
 * intersecting the dirtied MD set pay for it. */
TEST(CheckAccel, OverlappingBitmapPlansAreIndependent)
{
    MinimalityRig rig;

    // A third request spanning MD1|MD2 — overlaps neither req_a (MD0)
    // nor the mutation target below (MD3).
    CheckRequest req_c = rig.req_a;
    req_c.addr = 0x5000;
    req_c.md_bitmap = 0x6;
    rig.checker->check(req_c);
    EXPECT_EQ(rig.accel->planCompiles(), 3u);

    // Mutate entry 13 (MD3): dirties req_b's plan (MD2|MD3 intersects
    // {MD3}) but not req_a's or req_c's.
    ASSERT_TRUE(rig.entries.set(
        13, Entry::range(0xd000, 0x1000, Perm::Read), true));
    EXPECT_EQ(rig.accel->stalePlans(), 1u);

    rig.checker->check(rig.req_a);
    rig.checker->check(req_c);
    EXPECT_EQ(rig.accel->planRecompiles(), 0u);
    EXPECT_EQ(rig.accel->stalePlans(), 1u);

    rig.checker->check(rig.req_b);
    EXPECT_EQ(rig.accel->planRecompiles(), 1u);
    EXPECT_EQ(rig.accel->planCompiles(), 3u);
    EXPECT_EQ(rig.accel->stalePlans(), 0u);
}

/** resetAll is the sledgehammer: everything stale, one full flush. */
TEST(CheckAccel, TableResetFullyFlushes)
{
    MinimalityRig rig;

    rig.entries.resetAll();
    EXPECT_EQ(rig.accel->fullFlushes(), 1u);
    EXPECT_EQ(rig.accel->stalePlans(), 2u);

    EXPECT_EQ(rig.accel->partialFlushes(), 0u);

    // Every entry is off now: both recompiled plans default-deny.
    EXPECT_FALSE(rig.checker->check(rig.req_a).allowed);
    EXPECT_FALSE(rig.checker->check(rig.req_b).allowed);
    EXPECT_EQ(rig.accel->planRecompiles(), 2u);
    EXPECT_EQ(rig.accel->planCompiles(), 2u);
    EXPECT_EQ(rig.accel->stalePlans(), 0u);
}

TEST(CheckAccel, ZeroLengthMatchesUncached)
{
    constexpr unsigned kEntries = 4;
    EntryTable entries(kEntries);
    MdCfgTable mdcfg(2, kEntries);
    ASSERT_TRUE(mdcfg.setTop(0, kEntries));
    ASSERT_TRUE(entries.set(0, Entry::range(0, ~Addr{0}, Perm::ReadWrite),
                            true));
    auto checker = makeChecker(CheckerKind::Linear, 1, entries, mdcfg);
    checker->setAccelMode(AccelMode::Plans);
    CheckRequest req;
    req.addr = 0x1000;
    req.len = 0;
    req.perm = Perm::Read;
    req.md_bitmap = 0x1;
    const CheckResult fast = checker->check(req);
    const CheckResult slow = checker->checkUncached(req);
    EXPECT_EQ(fast.entry, slow.entry);
    EXPECT_EQ(fast.allowed, slow.allowed);
    EXPECT_EQ(fast.partial, slow.partial);
    EXPECT_EQ(fast.entry, -1);
    EXPECT_FALSE(fast.allowed);
}

} // namespace
} // namespace iopmp
} // namespace siopmp
