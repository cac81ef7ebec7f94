/**
 * @file
 * Event-driven stalls: a checker node whose head beat is block-stalled
 * or SID-missing parks it and sleeps until the unit's stall state
 * changes, the CPU sleeps through its interrupt handler, and a DMA
 * engine sleeps behind a full A channel until the channel frees space.
 * Each test checks that the component leaves the active set (so the
 * simulator fast-forwards across the stall) and that results — cycles,
 * stall counters, use bits — equal the naive tick-everything loop's.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "devices/dma_engine.hh"
#include "fw/monitor.hh"
#include "iopmp/mountable.hh"
#include "soc/cpu_node.hh"
#include "soc/soc.hh"

namespace siopmp {
namespace iopmp {
namespace {

constexpr Addr kDram = 0x8000'0000;

/** Every scalar of one Soc's stats groups, keyed "group.stat". */
std::map<std::string, double>
socScalars(soc::Soc &soc)
{
    struct Collector : stats::StatsVisitor {
        std::map<std::string, double> values;
        void
        visitScalar(const stats::Group &group, const std::string &name,
                    const stats::Scalar &s) override
        {
            values[group.name() + "." + name] = s.value();
        }
        void visitAverage(const stats::Group &, const std::string &,
                          const stats::Average &) override {}
        void visitDistribution(const stats::Group &, const std::string &,
                               const stats::Distribution &) override {}
        void visitHistogram(const stats::Group &, const std::string &,
                            const stats::Histogram &) override {}
    } collector;
    soc.accept(collector);
    return collector.values;
}

/** Two-port Soc; device 1 on port 0 is hot at SID 0 with a DRAM rule. */
struct Rig {
    explicit Rig(bool fast_forward, unsigned num_sids = 64)
        : soc(config(num_sids)), engine("dma0", 1, soc.masterLink(0))
    {
        soc.sim().setFastForward(fast_forward);
        soc.add(&engine);
        SIopmp &unit = soc.iopmp();
        unit.cam().set(0, 1);
        unit.src2md().associate(0, 0);
        for (MdIndex md = 0; md < unit.config().num_mds; ++md)
            unit.mdcfg().setTop(md, 16);
        unit.entryTable().set(
            0, Entry::range(kDram, 0x0100'0000, Perm::ReadWrite));
    }

    static soc::SocConfig
    config(unsigned num_sids)
    {
        soc::SocConfig c;
        c.num_masters = 2;
        c.iopmp.num_sids = num_sids;
        c.checker_kind = CheckerKind::PipelineTree;
        c.checker_stages = 2;
        return c;
    }

    static dev::DmaJob
    readJob(std::uint64_t bytes)
    {
        dev::DmaJob job;
        job.kind = dev::DmaKind::Read;
        job.src = kDram;
        job.bytes = bytes;
        return job;
    }

    soc::Soc soc;
    dev::DmaEngine engine;
};

/** What one stall scenario observed, for the FF-vs-naive comparison. */
struct StallRun {
    Cycle end = 0;
    std::size_t active_mid_stall = 0;
    Cycle skipped_across_stall = 0;
    std::size_t active_after_wake = 0;
    std::map<std::string, double> scalars;
};

StallRun
blockStall(bool fast_forward)
{
    Rig rig(fast_forward);
    Simulator &sim = rig.soc.sim();
    rig.soc.iopmp().blockBitmap().block(0);
    rig.engine.start(Rig::readJob(128), 0);
    sim.run(100); // the first beat reaches the checker and stalls

    StallRun out;
    out.active_mid_stall = sim.activeComponents();
    const Cycle skipped = sim.idleCyclesSkipped();
    sim.run(10'000);
    out.skipped_across_stall = sim.idleCyclesSkipped() - skipped;
    EXPECT_EQ(rig.engine.bytesTransferred(), 0u);

    rig.soc.iopmp().blockBitmap().unblock(0); // the wake
    out.active_after_wake = sim.activeComponents();
    sim.runUntil([&] { return rig.engine.done(); }, 100'000);
    EXPECT_EQ(rig.engine.bytesTransferred(), 128u);
    out.end = sim.now();
    out.scalars = socScalars(rig.soc);
    return out;
}

TEST(StallPark, BlockStalledNodeSleepsUntilUnblock)
{
    const StallRun ff = blockStall(true);
    EXPECT_EQ(ff.active_mid_stall, 0u); // node, engine, fabric: asleep
    EXPECT_EQ(ff.skipped_across_stall, 10'000u);
    EXPECT_GT(ff.active_after_wake, 0u);

    // The polls slept through are credited: every counter, and the
    // cycle the burst completes, match the per-cycle polling loop.
    const StallRun naive = blockStall(false);
    EXPECT_EQ(naive.skipped_across_stall, 0u);
    EXPECT_EQ(ff.end, naive.end);
    EXPECT_EQ(ff.scalars, naive.scalars);
    EXPECT_GT(ff.scalars.at("checker0.block_stalls"), 10'000.0);
    EXPECT_EQ(ff.scalars.at("siopmp.blocked_stalls"),
              ff.scalars.at("checker0.block_stalls"));
}

StallRun
missStall(bool fast_forward)
{
    Rig rig(fast_forward);
    Simulator &sim = rig.soc.sim();
    std::vector<Irq> irqs;
    rig.soc.iopmp().setIrqHandler(
        [&](const Irq &irq) { irqs.push_back(irq); });
    dev::DmaEngine ghost("ghost", 999, rig.soc.masterLink(1));
    rig.soc.add(&ghost);
    ghost.start(Rig::readJob(64), 0);
    sim.run(100); // the miss is raised; nobody services it

    StallRun out;
    out.active_mid_stall = sim.activeComponents();
    const Cycle skipped = sim.idleCyclesSkipped();
    sim.run(10'000);
    out.skipped_across_stall = sim.idleCyclesSkipped() - skipped;
    EXPECT_EQ(irqs.size(), 1u); // edge-triggered, not re-raised

    // "Monitor" mounts the device: the eSID write is the wake.
    SIopmp &unit = rig.soc.iopmp();
    unit.setMountedCold(999);
    out.active_after_wake = sim.activeComponents();
    unit.src2md().setBitmap(unit.coldSid(), std::uint64_t{1} << 62);
    unit.mdcfg().setTop(62, 17); // cold MD owns entry 16
    unit.entryTable().set(
        16, Entry::range(kDram, 0x0100'0000, Perm::ReadWrite));
    sim.runUntil([&] { return ghost.done(); }, 100'000);
    EXPECT_EQ(ghost.bytesTransferred(), 64u);
    out.end = sim.now();
    out.scalars = socScalars(rig.soc);
    return out;
}

TEST(StallPark, SidMissNodeSleepsUntilMount)
{
    const StallRun ff = missStall(true);
    EXPECT_EQ(ff.active_mid_stall, 0u);
    EXPECT_EQ(ff.skipped_across_stall, 10'000u);
    EXPECT_GT(ff.active_after_wake, 0u);

    const StallRun naive = missStall(false);
    EXPECT_EQ(ff.end, naive.end);
    EXPECT_EQ(ff.scalars, naive.scalars);
    EXPECT_EQ(ff.scalars.at("checker1.sid_miss_stalls"), 1.0);
}

/**
 * A parked block stall does not re-touch its CAM use bit each cycle.
 * A clock sweep that clears the bit must wake the node, whose next poll
 * sets it again on the same cycle the polling loop would have — the
 * LRU victim choice depends on it.
 */
bool
useBitAfterSweep(bool fast_forward)
{
    Rig rig(fast_forward, /*num_sids=*/3); // two CAM rows
    Simulator &sim = rig.soc.sim();
    DeviceId2SidCam &cam = rig.soc.iopmp().cam();
    // Leave the clock hand on row 0 with both use bits clear and
    // device 1 in row 0.
    cam.set(0, 7);
    cam.set(1, 2);
    cam.insertLru(1, nullptr); // sweeps both rows, evicts 7 from row 0
    cam.insertLru(4, nullptr); // evicts 2 from row 1; hand back at 0
    EXPECT_EQ(cam.peek(1), std::optional<Sid>(0));

    rig.soc.iopmp().blockBitmap().block(0);
    rig.engine.start(Rig::readJob(64), 0);
    sim.run(100);
    EXPECT_TRUE(cam.useBit(0)); // the stalled poll touched row 0

    std::optional<DeviceId> evicted;
    cam.insertLru(5, &evicted); // second chance for row 0, evicts row 1
    EXPECT_EQ(evicted, std::optional<DeviceId>(4));
    EXPECT_FALSE(cam.useBit(0));
    sim.step();
    return cam.useBit(0);
}

TEST(StallPark, SweptUseBitIsRestoredByTheNextPoll)
{
    EXPECT_TRUE(useBitAfterSweep(false));
    EXPECT_TRUE(useBitAfterSweep(true));
}

TEST(StallPark, CpuSleepsThroughLongHandler)
{
    Rig rig(true);
    Simulator &sim = rig.soc.sim();
    ExtendedTable ext(&rig.soc.memory(), {0x7000'0000, 0x1000});
    fw::SecureMonitor monitor(&rig.soc.iopmp(), &rig.soc.mmio(),
                              soc::kIopmpMmioBase, &ext,
                              &rig.soc.monitor());
    soc::CpuNode cpu("cpu0", &monitor, &rig.soc.iopmp(), &sim);
    rig.soc.add(&cpu);

    // Latch a batch of violation interrupts: one service call handles
    // them all, so the handler runs for hundreds of cycles.
    const auto violate = [&] {
        rig.soc.iopmp().authorize(1, 0x9000'0000, 8, Perm::Read,
                                  sim.now());
    };
    for (int i = 0; i < 8; ++i)
        violate();
    sim.step();
    ASSERT_EQ(cpu.interruptsServiced(), 1u);
    const Cycle busy_until = cpu.busyUntil();
    ASSERT_GT(busy_until, sim.now() + 500);

    violate(); // pending while the handler runs
    unsigned steps = 0, cpu_ticks = 0;
    while (cpu.interruptsServiced() < 2 && steps < 10'000) {
        cpu_ticks += cpu.active();
        sim.step();
        ++steps;
    }
    // The naive loop services the second batch on the first cycle the
    // handler is over; the sleeping CPU is woken for exactly that one.
    EXPECT_EQ(cpu.interruptsServiced(), 2u);
    EXPECT_EQ(sim.now(), busy_until + 1);
    EXPECT_LE(cpu_ticks, 3u);
    EXPECT_LE(steps, 4u);
}

/** A-channel consumer that takes nothing until cycle @p open_at, then
 * one beat per cycle; records the cycles it takes beats. */
class GatedSink : public Tickable
{
  public:
    GatedSink(bus::Link *link, Cycle open_at)
        : Tickable("sink"), link_(link), open_at_(open_at)
    {
    }

    void
    evaluate(Cycle now) override
    {
        if (now >= open_at_ && !link_->a.empty()) {
            taken.push_back(now);
            link_->a.pop();
        }
    }

    void advance(Cycle) override { link_->a.clock(); }

    std::vector<Cycle> taken;

  private:
    bus::Link *link_;
    Cycle open_at_;
};

struct BackpressureRun {
    bool engine_active_while_full = true;
    std::vector<Cycle> taken;
};

BackpressureRun
backpressure(bool fast_forward)
{
    Simulator sim;
    sim.setFastForward(fast_forward);
    bus::Link link;
    dev::DmaEngine engine("dma0", 1, &link);
    GatedSink sink(&link, 50);
    sim.add(&engine);
    sim.add(&sink);
    dev::DmaJob job = Rig::readJob(6 * bus::kBurstBeats * bus::kBeatBytes);
    job.max_outstanding = 8;
    engine.start(job, 0);

    BackpressureRun out;
    sim.run(40); // two Gets fill the channel; the third waits
    out.engine_active_while_full = engine.active();
    sim.run(20);
    out.taken = sink.taken;
    return out;
}

TEST(StallPark, DmaEngineSleepsBehindFullAChannel)
{
    const BackpressureRun ff = backpressure(true);
    EXPECT_FALSE(ff.engine_active_while_full);
    // The sink frees a slot at cycle 50; the woken engine refills it on
    // the next cycle, exactly as the polling engine does.
    const BackpressureRun naive = backpressure(false);
    EXPECT_EQ(ff.taken, naive.taken);
    EXPECT_EQ(ff.taken, (std::vector<Cycle>{50, 51, 52, 53, 54, 55}));
}

} // namespace
} // namespace iopmp
} // namespace siopmp
