/**
 * @file
 * nic_map_unmap: a closed loop with a fixed window of six packets in
 * flight through one NIC, RX and TX interleaved in a seed-shuffled
 * order, under the sIOPMP+IOMMU deployment of Fig 15. Per packet the
 * driver
 *
 *  - maps the buffer page through the IOMMU in deferred mode and makes
 *    one translate call for the device address;
 *  - installs a byte-granular sub-page rule for the packet through the
 *    S-mode driver's delegated entries;
 *
 * and once the NIC completes the packet it tears both down and probes
 * the buffer through checker().check(), which must now deny. Table
 * writes therefore sit beside the DMA: listener invalidation, plan
 * recompiles, the MMIO path and the IOMMU are all on the critical path.
 *
 * 2048 packets of 64 B to 1536 B per pass; RX payloads are read back,
 * TX completions and byte counts checked.
 */

#include <algorithm>
#include <deque>
#include <set>
#include <string>
#include <vector>

#include "bench.hh"
#include "devices/nic.hh"
#include "fw/monitor.hh"
#include "fw/smode_driver.hh"
#include "iommu/iommu.hh"
#include "layers.hh"
#include "report.hh"
#include "sim/random.hh"
#include "soc/cpu_node.hh"
#include "soc/soc.hh"

namespace perfbench {

using namespace siopmp;

namespace {

constexpr DeviceId kNicDevice = 7;
constexpr Addr kDramBase = 0x8000'0000;
constexpr Addr kDramSize = 0x4000'0000;
constexpr Addr kExtBase = 0x7000'0000;
constexpr Addr kExtSize = 0x1'0000;
constexpr Addr kTeeBase = 0x8800'0000;
constexpr Addr kTeeSize = 0x0100'0000;
constexpr unsigned kRingEntries = 256;
constexpr Addr kTxRing = kTeeBase;
constexpr Addr kRxRing = kTeeBase + 0x1000;
constexpr Addr kRingBytes = 0x2000;
constexpr Addr kBufBase = kTeeBase + 0x10'0000;
constexpr unsigned kBufPages = 64;
constexpr unsigned kPackets = 2048;
constexpr unsigned kWindow = 6;
constexpr Cycle kHorizon = 50'000'000;
constexpr unsigned kSizes[] = {64, 128, 256, 512, 1024, 1536};
constexpr std::uint64_t kDoneBit = std::uint64_t{1} << 63;

struct Packet {
    bool rx = true;
    unsigned bytes = 0;
    std::uint8_t fill = 0;
    Addr buf = 0;
    unsigned ring_slot = 0;
    Addr iova = 0;
    fw::SmodeMapping rule;
    Cycle cpu_cycles = 0;
    Cycle posted_at = 0;
};

} // namespace

PassResult
runNicMapUnmap(const Options &opt, LayerSink *sink)
{
    PassResult result;
    result.drives_loop = true;
    const double t_setup = hostNow();

    soc::Soc soc(soc::SocConfig{});
    iopmp::ExtendedTable ext_table(&soc.memory(), {kExtBase, kExtSize});
    fw::SecureMonitor monitor(&soc.iopmp(), &soc.mmio(),
                              soc::kIopmpMmioBase, &ext_table,
                              &soc.monitor());
    monitor.init({kDramBase, kDramSize}, {kExtBase, kExtSize});
    soc::CpuNode cpu("cpu0", &monitor, &soc.iopmp(), &soc.sim());
    soc.add(&cpu);

    // The TEE owns the NIC; the monitor's own rule covers the rings
    // only, and the rest of the NIC's entry window goes to the kernel.
    const fw::CapId cap = monitor.registerDevice(kNicDevice);
    const fw::OwnerId owner = timed(
        result.call_ns["fw.create_tee"],
        [&] { return monitor.createTee("nic", {kTeeBase, kTeeSize}, {cap}); });
    const fw::FwResult rings = timed(
        result.call_ns["fw.device_map"], [&] {
            return monitor.deviceMap(owner, kNicDevice, {kTxRing, kRingBytes},
                                     Perm::ReadWrite);
        });
    const auto sid = monitor.hotSid(kNicDevice);
    if (owner == 0 || !rings.ok || !sid) {
        result.fail("NIC tenant set-up failed");
        return result;
    }
    const unsigned hi = monitor.mdWindow(*sid).second;
    monitor.delegateToSmode(rings.entry_index + 1, hi);
    fw::SmodeDmaDriver driver(&monitor, rings.entry_index + 1, hi);
    const std::uint64_t md_bitmap = soc.iopmp().src2md().bitmap(*sid);

    iommu::IommuConfig icfg;
    icfg.mode = iommu::UnmapMode::Deferred;
    iommu::Iommu mmu(icfg);

    dev::NicConfig ncfg;
    ncfg.tx_ring = kTxRing;
    ncfg.rx_ring = kRxRing;
    ncfg.tx_ring_entries = kRingEntries;
    ncfg.rx_ring_entries = kRingEntries;
    dev::Nic nic("nic0", kNicDevice, soc.masterLink(0), ncfg);
    soc.addDevice(&nic, 0);

    // Inputs: an even RX/TX split with every size about equally often
    // in each direction, in a seed-shuffled order.
    Rng rng(opt.seed);
    std::vector<Packet> packets(kPackets);
    for (unsigned i = 0; i < kPackets; ++i) {
        packets[i].rx = i % 2 == 0;
        packets[i].bytes = kSizes[i / 2 % std::size(kSizes)];
    }
    for (unsigned i = kPackets - 1; i > 0; --i)
        std::swap(packets[i], packets[rng.below(i + 1)]);
    for (Packet &p : packets)
        p.fill = static_cast<std::uint8_t>(rng.below(255) + 1);
    result.attempted = kPackets;

    auto &sim = soc.sim();
    auto &map_ns = result.call_ns["iommu.map"];
    auto &unmap_ns = result.call_ns["iommu.unmap"];
    auto &translate_ns = result.call_ns["iommu.translate"];
    auto &smap_ns = result.call_ns["fw.smode_map"];
    auto &sunmap_ns = result.call_ns["fw.smode_unmap"];
    double smode_map_cycles = 0, smode_unmap_cycles = 0;
    double iommu_map_cycles = 0, iommu_wait_cycles = 0, cpu_cycles = 0;
    unsigned rx_posted = 0, tx_posted = 0;
    std::uint64_t tx_bytes_expected = 0, bad = 0, stale_translations = 0;
    std::deque<Packet *> rx_flight, tx_flight;
    std::set<Addr> stale_iovas; //!< unmapped since the last flush
    std::vector<double> latencies;
    std::vector<std::uint8_t> payload(kSizes[std::size(kSizes) - 1]);
    Fnv fnv;

    const auto post = [&](Packet &p, Cycle now) {
        const Perm perm = p.rx ? Perm::Write : Perm::Read;
        p.buf = kBufBase + (&p - packets.data()) % kBufPages * iommu::kPageSize;
        const iommu::MapResult mapped = timed(map_ns, [&] {
            return mmu.dmaMap(p.buf, 1, perm, 0, 1, now);
        });
        Cycle walk = 0;
        const auto tr = timed(translate_ns, [&] {
            return mmu.translate(mapped.iova, perm, now, &walk);
        });
        // Deferred mode recycles IOVAs before the batched flush, so the
        // translation of a recycled IOVA may hit an earlier packet's
        // stale IOTLB entry (wrong page or permission): the attack
        // window the sIOPMP rule closes. The NIC is handed the physical
        // buffer either way; any other mistranslation is a failure.
        const bool exact = tr && tr->paddr == p.buf;
        if (mapped.iova == kNoAddr) {
            result.fail("IOMMU map of packet buffer failed");
            ++bad;
        } else if (!exact && stale_iovas.count(mapped.iova) == 0) {
            result.fail("IOMMU mistranslated an IOVA with no stale entry");
            ++bad;
        }
        stale_translations += exact ? 0 : 1;
        p.iova = mapped.iova;
        p.rule = timed(smap_ns, [&] {
            return driver.dmaMap(p.buf, p.bytes, perm, now);
        });
        if (!p.rule.ok) {
            result.fail("sub-page rule install failed");
            ++bad;
        }
        iommu_map_cycles += static_cast<double>(mapped.cost);
        smode_map_cycles += static_cast<double>(p.rule.cost);
        p.cpu_cycles = mapped.cost + p.rule.cost;

        const Addr ring = p.rx ? kRxRing : kTxRing;
        p.ring_slot = (p.rx ? rx_posted++ : tx_posted++) % kRingEntries;
        const Addr desc = ring + p.ring_slot * dev::NicDescriptor::kBytes;
        soc.memory().write64(desc, p.buf);
        soc.memory().write64(desc + 8, p.bytes);
        if (p.rx) {
            nic.postRx(1);
            nic.injectRxPacket(p.bytes, p.fill);
            rx_flight.push_back(&p);
        } else {
            soc.memory().fill(p.buf, p.fill, p.bytes);
            tx_bytes_expected += p.bytes;
            nic.postTx(1);
            tx_flight.push_back(&p);
        }
        p.posted_at = now;
    };

    const auto complete = [&](Packet &p, Cycle now) {
        const Addr ring = p.rx ? kRxRing : kTxRing;
        const Addr desc = ring + p.ring_slot * dev::NicDescriptor::kBytes;
        bool intact = soc.memory().read64(desc + 8) == (p.bytes | kDoneBit);
        if (p.rx) {
            soc.memory().readBlock(p.buf, payload.data(), p.bytes);
            intact &= std::all_of(payload.begin(), payload.begin() + p.bytes,
                                  [&](std::uint8_t b) { return b == p.fill; });
        }
        if (!intact) {
            result.fail(std::string(p.rx ? "RX" : "TX") +
                        " packet not delivered intact");
            ++bad;
        }
        const Cycle unmap_rule =
            timed(sunmap_ns, [&] { return driver.dmaUnmap(p.rule, now); });
        Cycle wait = 0;
        const Cycle unmap_page = timed(unmap_ns, [&] {
            return mmu.dmaUnmap(p.iova, 1, 0, now, &wait);
        });
        if (mmu.staleMappings() == 0)
            stale_iovas.clear(); // this unmap flushed the batch
        else
            stale_iovas.insert(p.iova);
        smode_unmap_cycles += static_cast<double>(unmap_rule);
        iommu_wait_cycles += static_cast<double>(wait);
        p.cpu_cycles += unmap_rule + unmap_page;
        cpu_cycles += static_cast<double>(p.cpu_cycles);

        iopmp::CheckRequest probe;
        probe.addr = p.buf;
        probe.len = 8;
        probe.perm = p.rx ? Perm::Write : Perm::Read;
        probe.md_bitmap = md_bitmap;
        if (soc.iopmp().checker().check(probe).allowed) {
            result.fail("buffer still reachable after unmap");
            ++bad;
        }
        latencies.push_back(static_cast<double>(now - p.posted_at));
        fnv.mix(now - p.posted_at);
        fnv.mix(p.cpu_cycles);
    };

    const double t_run = hostNow();
    result.setup_s = t_run - t_setup;
    unsigned next = 0, done = 0;
    std::uint64_t rx_seen = 0, tx_seen = 0;
    while (done < kPackets && sim.now() < kHorizon) {
        while (next < kPackets &&
               rx_flight.size() + tx_flight.size() < kWindow) {
            post(packets[next++], sim.now());
        }
        result.active_sum += static_cast<double>(sim.activeComponents());
        ++result.steps;
        sim.step();
        for (; rx_seen < nic.rxPackets(); ++rx_seen, ++done) {
            complete(*rx_flight.front(), sim.now());
            rx_flight.pop_front();
        }
        for (; tx_seen < nic.txPackets(); ++tx_seen, ++done) {
            complete(*tx_flight.front(), sim.now());
            tx_flight.pop_front();
        }
    }
    result.host_s = hostNow() - t_run;
    result.idle_skipped = sim.idleCyclesSkipped();
    const Cycle cycles = sim.now();

    if (done < kPackets)
        result.fail("packets still in flight at the horizon");
    if (nic.rxDropped() > 0 || nic.deniedResponses() > 0)
        result.fail("NIC saw drops or denied DMA");
    if (nic.txBytes() != tx_bytes_expected)
        result.fail("TX byte count differs from what was posted");
    if (samplesBeyond(latencies.size(), 99.0) < kTailSamplesBeyond)
        result.fail("too few packets for a p99");
    result.failed = std::min<std::uint64_t>(
        kPackets, bad + (kPackets - done) + nic.rxDropped());

    if (sink)
        replayChecks(*sink, soc.iopmp(), result);
    if (!monitor.destroyTee(owner, cycles).ok)
        result.fail("NIC tenant teardown failed");

    fnv.mix(cycles);
    fnv.mix(nic.bytesTransferred());
    result.fingerprint = fnv.h;
    const double n = static_cast<double>(kPackets);
    const double bytes = static_cast<double>(nic.bytesTransferred());
    const auto &tlb = mmu.iotlb();
    result.modelled = {
        {"sim_cycles", static_cast<double>(cycles)},
        {"beats", bytes / bus::kBeatBytes},
        {"bytes_per_cycle", bytes / static_cast<double>(cycles)},
        {"burst_p50_cycles", percentile(latencies, 50.0)},
        {"burst_p99_cycles", percentile(latencies, 99.0)},
        {"bursts_timed", static_cast<double>(latencies.size())},
        {"denied_bursts", static_cast<double>(nic.deniedResponses())},
        {"tee_lifecycles", 1.0},
        {"cpu_cycles_per_packet", cpu_cycles / n},
        {"smode_map_cycles", smode_map_cycles / n},
        {"smode_unmap_cycles", smode_unmap_cycles / n},
        {"iommu_map_cycles", iommu_map_cycles / n},
        {"iommu_unmap_wait_cycles", iommu_wait_cycles / n},
        {"iotlb_hit_ratio",
         static_cast<double>(tlb.hits()) /
             static_cast<double>(tlb.hits() + tlb.misses())},
        {"rx_packets", static_cast<double>(nic.rxPackets())},
        {"tx_packets", static_cast<double>(nic.txPackets())},
        {"rx_dropped", static_cast<double>(nic.rxDropped())},
        {"iommu_stale_translations", static_cast<double>(stale_translations)},
        {"iommu_deferred_flushes",
         mmu.statsGroup().scalar("deferred_flushes").value()},
    };
    return result;
}

} // namespace perfbench
