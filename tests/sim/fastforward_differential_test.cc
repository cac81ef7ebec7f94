/**
 * @file
 * Differential proof that fast-forward scheduling is semantics
 * preserving: the same mixed SoC workload — DMA bursts, NIC TX/RX,
 * accelerator tiles, attack-driven violations, and a mid-run
 * unmount/remount of a device's SID — is run twice, once with the
 * fast-forward scheduler and once with the naive tick-everything loop,
 * and every observable must match bit-for-bit: final cycle counts at
 * each phase boundary, the full statistics dump, the violation record,
 * and all device-side counters. The only allowed difference is
 * idleCyclesSkipped(), which must be zero in naive mode and non-zero
 * under fast-forward (proving the optimization actually engaged).
 *
 * Also covered here: determinism — two identical runs produce
 * byte-identical JSON statistics and trace streams.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "devices/accelerator.hh"
#include "devices/dma_engine.hh"
#include "devices/malicious.hh"
#include "devices/nic.hh"
#include "sim/trace.hh"
#include "soc/soc.hh"

namespace siopmp {
namespace soc {
namespace {

constexpr Addr kNicRegion = 0x8000'0000;
constexpr Addr kAccelRegion = 0x8400'0000;
constexpr Addr kDmaRegion = 0x8800'0000;
constexpr Addr kRegionSize = 0x0100'0000;

struct RunResult {
    Cycle phase1_end = 0;
    Cycle phase2_end = 0;
    Cycle final_now = 0;
    Cycle idle_skipped = 0;
    std::string stats;
    std::string stats_json;
    std::string trace;
    std::uint64_t trace_events = 0;

    std::uint64_t tx_packets = 0;
    std::uint64_t rx_packets = 0;
    std::uint64_t rx_bytes = 0;
    std::uint64_t accel_acc = 0;
    std::uint64_t tiles = 0;
    std::uint64_t dma_bytes = 0;
    Cycle dma_done_at = 0;
    std::uint64_t evil_leaked = 0;
    std::uint64_t evil_denied = 0;
    std::uint64_t evil_unflagged = 0;

    bool has_violation = false;
    Addr viol_addr = 0;
    DeviceId viol_device = 0;
    Cycle viol_when = 0;

    std::uint64_t copied_word = 0;
};

SocConfig
cfg()
{
    SocConfig c;
    c.num_masters = 4;
    c.checker_kind = iopmp::CheckerKind::PipelineTree;
    c.checker_stages = 2;
    return c;
}

dev::NicConfig
nicCfg()
{
    dev::NicConfig c;
    c.tx_ring = kNicRegion;
    c.rx_ring = kNicRegion + 0x1000;
    return c;
}

RunResult
runMixedWorkload(bool fast_forward)
{
    Soc soc(cfg());
    soc.sim().setFastForward(fast_forward);

    dev::Nic nic("nic0", 1, soc.masterLink(0), nicCfg());
    dev::Accelerator accel("nvdla0", 2, soc.masterLink(1));
    dev::DmaEngine dma("dma0", 3, soc.masterLink(2));
    dev::MaliciousDevice evil("evil0", 4, soc.masterLink(3));
    soc.add(&nic);
    soc.add(&accel);
    soc.add(&dma);
    soc.add(&evil);

    // Trace every event of the run (determinism check).
    trace::RingBufferSink ring(1u << 18);
    trace::tracer().setSink(&ring);

    auto &unit = soc.iopmp();
    for (MdIndex md = 0; md < unit.config().num_mds; ++md)
        unit.mdcfg().setTop(md, std::min(16u, (md + 1) * 4));
    const struct {
        Sid sid;
        DeviceId device;
        Addr base;
    } binds[] = {{0, 1, kNicRegion},
                 {1, 2, kAccelRegion},
                 {2, 3, kDmaRegion},
                 {3, 4, 0x8c00'0000}};
    for (const auto &bind : binds) {
        unit.cam().set(bind.sid, bind.device);
        unit.src2md().associate(bind.sid, bind.sid);
        unit.entryTable().set(
            bind.sid * 4,
            iopmp::Entry::range(bind.base, kRegionSize, Perm::ReadWrite));
    }

    // ---- Phase 1: everyone active at once --------------------------------
    // NIC: 2 TX packets.
    for (unsigned i = 0; i < 2; ++i) {
        soc.memory().write64(kNicRegion + i * 16, kNicRegion + 0x10000);
        soc.memory().write64(kNicRegion + i * 16 + 8, 512);
    }
    nic.postTx(2);

    // Accelerator: 2 tiles.
    dev::LayerJob layer;
    layer.weights = kAccelRegion;
    layer.inputs = kAccelRegion + 0x10'0000;
    layer.outputs = kAccelRegion + 0x20'0000;
    layer.tiles = 2;
    layer.tile_bytes = 1024;
    accel.start(layer, 0);

    // DMA engine: 4 KiB copy — its SID gets unmounted mid-flight and
    // remounted later, exercising the SID-miss stall under both modes.
    soc.memory().fill(kDmaRegion, 0x5a, 4096);
    dev::DmaJob copy;
    copy.kind = dev::DmaKind::Copy;
    copy.src = kDmaRegion;
    copy.dst = kDmaRegion + 0x10'0000;
    copy.bytes = 4096;
    copy.max_outstanding = 2;
    dma.start(copy, 0);

    // Attacker: probes spanning other devices' regions -> violations.
    dev::AttackPlan plan;
    plan.kind = dev::AttackKind::ArbitraryScan;
    plan.target_base = kNicRegion;
    plan.target_size = 0x0c00'0000;
    plan.probes = 24;
    evil.startAttack(plan, 0);

    // Mid-run unmount/remount of the DMA device's SID, driven from the
    // event queue so it lands on the same cycle in both modes.
    soc.sim().events().schedule(400, [&] { unit.cam().invalidate(3); });
    soc.sim().events().schedule(2600, [&] {
        unit.cam().set(2, 3);
        unit.src2md().associate(2, 2);
    });

    soc.sim().runUntil(
        [&] {
            return nic.txPackets() == 2 && accel.done() && dma.done() &&
                   evil.done();
        },
        3'000'000);
    RunResult r;
    r.phase1_end = soc.sim().now();

    // ---- Idle gap: nothing happens for a long stretch --------------------
    soc.sim().run(50'000);

    // ---- Phase 2: second wave after the quiet period ---------------------
    // NIC RX: 2 posted descriptors, 2 injected packets.
    for (unsigned i = 0; i < 2; ++i) {
        soc.memory().write64(kNicRegion + 0x1000 + i * 16,
                             kNicRegion + 0x20000 + i * 0x1000);
        soc.memory().write64(kNicRegion + 0x1000 + i * 16 + 8, 0);
    }
    nic.postRx(2);
    nic.injectRxPacket(256, 0x77);
    nic.injectRxPacket(128, 0x33);

    dev::DmaJob readback;
    readback.kind = dev::DmaKind::Read;
    readback.src = kDmaRegion + 0x10'0000;
    readback.bytes = 2048;
    readback.max_outstanding = 4;
    dma.start(readback, soc.sim().now());

    soc.sim().runUntil(
        [&] { return nic.rxPackets() == 2 && dma.done(); }, 3'000'000);
    r.phase2_end = soc.sim().now();

    // ---- Idle tail -------------------------------------------------------
    soc.sim().run(10'000);
    r.final_now = soc.sim().now();
    r.idle_skipped = soc.sim().idleCyclesSkipped();

    // Dump the trace while the components (whose names the events
    // borrow) are still alive, then detach the sink.
    trace::tracer().setSink(nullptr);
    r.trace_events = ring.totalRecorded();
    {
        std::ostringstream os;
        ring.dump(os);
        r.trace = os.str();
    }
    {
        std::ostringstream os;
        stats::TextStatsWriter writer(os);
        soc.accept(writer);
        r.stats = os.str();
    }
    {
        std::ostringstream os;
        stats::JsonStatsWriter writer(os);
        soc.accept(writer);
        writer.finish();
        r.stats_json = os.str();
    }

    r.tx_packets = nic.txPackets();
    r.rx_packets = nic.rxPackets();
    r.rx_bytes = nic.rxBytes();
    r.accel_acc = accel.accumulator();
    r.tiles = accel.tilesCompleted();
    r.dma_bytes = dma.bytesTransferred();
    r.dma_done_at = dma.completedAt();
    r.evil_leaked = evil.leakedWords();
    r.evil_denied = evil.deniedAttacks();
    r.evil_unflagged = evil.unflaggedWrites();

    if (auto v = unit.violationRecord()) {
        r.has_violation = true;
        r.viol_addr = v->addr;
        r.viol_device = v->device;
        r.viol_when = v->when;
    }
    r.copied_word = soc.memory().read64(kDmaRegion + 0x10'0000);
    return r;
}

TEST(FastForwardDifferential, MixedWorkloadBitIdentical)
{
    const RunResult ff = runMixedWorkload(true);
    const RunResult naive = runMixedWorkload(false);

    // Work actually happened.
    EXPECT_EQ(naive.tx_packets, 2u);
    EXPECT_EQ(naive.rx_packets, 2u);
    EXPECT_EQ(naive.tiles, 2u);
    EXPECT_EQ(naive.copied_word, 0x5a5a'5a5a'5a5a'5a5aULL);
    EXPECT_TRUE(naive.has_violation);
    EXPECT_GT(naive.evil_denied, 0u);
    EXPECT_EQ(naive.evil_leaked, 0u);

    // Cycle-exact equivalence at every phase boundary.
    EXPECT_EQ(ff.phase1_end, naive.phase1_end);
    EXPECT_EQ(ff.phase2_end, naive.phase2_end);
    EXPECT_EQ(ff.final_now, naive.final_now);

    // Per-node statistics are byte-identical.
    EXPECT_EQ(ff.stats, naive.stats);

    // The trace event sequence — including its order — is identical.
    EXPECT_EQ(ff.trace_events, naive.trace_events);
    EXPECT_EQ(ff.trace, naive.trace);

    // Device observables.
    EXPECT_EQ(ff.tx_packets, naive.tx_packets);
    EXPECT_EQ(ff.rx_packets, naive.rx_packets);
    EXPECT_EQ(ff.rx_bytes, naive.rx_bytes);
    EXPECT_EQ(ff.accel_acc, naive.accel_acc);
    EXPECT_EQ(ff.tiles, naive.tiles);
    EXPECT_EQ(ff.dma_bytes, naive.dma_bytes);
    EXPECT_EQ(ff.dma_done_at, naive.dma_done_at);
    EXPECT_EQ(ff.evil_leaked, naive.evil_leaked);
    EXPECT_EQ(ff.evil_denied, naive.evil_denied);
    EXPECT_EQ(ff.evil_unflagged, naive.evil_unflagged);

    // Violation record (address, attribution, timestamp).
    EXPECT_EQ(ff.has_violation, naive.has_violation);
    EXPECT_EQ(ff.viol_addr, naive.viol_addr);
    EXPECT_EQ(ff.viol_device, naive.viol_device);
    EXPECT_EQ(ff.viol_when, naive.viol_when);

    // Functional memory contents.
    EXPECT_EQ(ff.copied_word, naive.copied_word);

    // The optimization engaged: the naive loop skipped nothing, the
    // fast-forward run skipped the idle gaps.
    EXPECT_EQ(naive.idle_skipped, 0u);
    EXPECT_GT(ff.idle_skipped, 0u);
}

TEST(FastForwardDifferential, RepeatedRunsAreDeterministic)
{
    const RunResult a = runMixedWorkload(true);
    const RunResult b = runMixedWorkload(true);
    EXPECT_GT(a.trace_events, 0u);
    EXPECT_EQ(a.final_now, b.final_now);
    EXPECT_EQ(a.stats_json, b.stats_json);
    EXPECT_EQ(a.trace_events, b.trace_events);
    EXPECT_EQ(a.trace, b.trace);
}

} // namespace
} // namespace soc
} // namespace siopmp
