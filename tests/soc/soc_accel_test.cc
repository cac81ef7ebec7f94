/**
 * @file
 * The check accelerator at SoC level: every checker node authorizes
 * through the sIOPMP unit's one checker, so one set of compiled plans
 * (one per distinct MD bitmap) serves every port, no per-node
 * accelerator stats group exists, and a mode switch on the live unit
 * applies to the very next beat without moving a single cycle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "devices/dma_engine.hh"
#include "sim/stats.hh"
#include "soc/soc.hh"

namespace siopmp {
namespace soc {
namespace {

constexpr unsigned kPorts = 3;
constexpr Addr kRegionBase = 0x8000'0000;
constexpr Addr kRegionSize = 0x0100'0000;

/** kPorts DMA engines, one per master port, each device on its own
 * SID and its own MD (so each has a distinct MD bitmap), with the
 * accelerator forced on whatever the process default says. */
struct MultiPortRig {
    MultiPortRig() : soc(cfg())
    {
        auto &unit = soc.iopmp();
        unit.setAccelMode(iopmp::AccelMode::Plans);
        // MD p owns entry p; higher MDs own nothing.
        for (MdIndex md = 0; md < unit.config().num_mds; ++md)
            unit.mdcfg().setTop(md, std::min(kPorts, md + 1));
        for (unsigned p = 0; p < kPorts; ++p) {
            engines.push_back(std::make_unique<dev::DmaEngine>(
                "dma" + std::to_string(p), /*device=*/p + 1,
                soc.masterLink(p)));
            soc.add(engines.back().get());
            unit.cam().set(p, p + 1);
            unit.src2md().associate(p, p);
            unit.entryTable().set(
                p, iopmp::Entry::range(region(p), kRegionSize,
                                       Perm::ReadWrite));
        }
    }

    static SocConfig
    cfg()
    {
        SocConfig c;
        c.num_masters = kPorts;
        c.checker_kind = iopmp::CheckerKind::PipelineTree;
        c.checker_stages = 2;
        return c;
    }

    static Addr region(unsigned p) { return kRegionBase + p * kRegionSize; }

    /** Start a read of @p bytes on every engine. */
    void
    startReads(unsigned bytes)
    {
        for (unsigned p = 0; p < kPorts; ++p) {
            dev::DmaJob job;
            job.kind = dev::DmaKind::Read;
            job.src = region(p);
            job.bytes = bytes;
            job.max_outstanding = 2;
            engines[p]->start(job, 0);
        }
    }

    bool
    allDone() const
    {
        for (const auto &engine : engines) {
            if (!engine->done())
                return false;
        }
        return true;
    }

    double
    checks()
    {
        return soc.iopmp().statsGroup().scalar("checks").value();
    }

    Soc soc;
    std::vector<std::unique_ptr<dev::DmaEngine>> engines;
};

TEST(SocAccel, OnePlanPerBitmapAcrossAllPorts)
{
    MultiPortRig rig;
    Soc &soc = rig.soc;
    rig.startReads(2048);
    soc.sim().runUntil([&] { return rig.allDone(); }, 200'000);
    ASSERT_TRUE(rig.allDone());
    for (const auto &engine : rig.engines) {
        EXPECT_EQ(engine->bytesTransferred(), 2048u);
        EXPECT_EQ(engine->deniedResponses(), 0u);
    }

    // Every port's beats reached the unit's one accelerator: one plan
    // per distinct MD bitmap, not one per bitmap per checker node.
    const iopmp::CheckAccel *accel = soc.iopmp().checker().accel();
    ASSERT_NE(accel, nullptr);
    EXPECT_EQ(accel->planCompiles(), kPorts);
    EXPECT_EQ(accel->planRecompiles(), 0u);

    unsigned accel_groups = 0;
    for (const stats::Group *group :
         stats::Registry::global().liveGroups()) {
        const std::string &name = group->name();
        EXPECT_FALSE(name.size() > 6 &&
                     name.compare(name.size() - 6, 6, ".accel") == 0)
            << "per-node accelerator group " << name;
        accel_groups += name == "check_accel" ? 1 : 0;
    }
    EXPECT_EQ(accel_groups, 1u);
}

TEST(SocAccel, ModeSwitchOnLiveUnitAppliesToNextBeat)
{
    // Reference: the same traffic with plans on throughout.
    MultiPortRig reference;
    reference.startReads(4096);
    reference.soc.sim().runUntil([&] { return reference.allDone(); },
                                 400'000);
    ASSERT_TRUE(reference.allDone());

    MultiPortRig rig;
    Soc &soc = rig.soc;
    rig.startReads(4096);
    soc.sim().runUntil([&] { return rig.checks() >= 16; }, 400'000);
    ASSERT_FALSE(rig.allDone());

    // Off: the accelerator is gone, and the nodes keep checking
    // through the unit's checker (its own walk).
    soc.iopmp().setAccelMode(iopmp::AccelMode::Off);
    EXPECT_EQ(soc.iopmp().checker().accel(), nullptr);
    const double off_checks = rig.checks();
    soc.sim().runUntil([&] { return rig.checks() >= off_checks + 16; },
                       400'000);
    ASSERT_FALSE(rig.allDone());

    // Plans again: a fresh accelerator, whose first plan is compiled
    // by the very next checked beat.
    soc.iopmp().setAccelMode(iopmp::AccelMode::Plans);
    const iopmp::CheckAccel *accel = soc.iopmp().checker().accel();
    ASSERT_NE(accel, nullptr);
    EXPECT_EQ(accel->planCompiles(), 0u);
    const double on_checks = rig.checks();
    soc.sim().runUntil([&] { return rig.checks() > on_checks; }, 400'000);
    EXPECT_EQ(accel->planCompiles(), 1u);

    soc.sim().runUntil([&] { return rig.allDone(); }, 400'000);
    ASSERT_TRUE(rig.allDone());
    EXPECT_EQ(soc.sim().now(), reference.soc.sim().now());
    EXPECT_EQ(accel->planCompiles(), kPorts);
    for (const auto &engine : rig.engines)
        EXPECT_EQ(engine->bytesTransferred(), 4096u);
}

} // namespace
} // namespace soc
} // namespace siopmp
