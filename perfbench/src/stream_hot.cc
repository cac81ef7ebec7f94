/**
 * @file
 * stream_hot: a closed loop of sixteen DMA engines, one per master port
 * with its own checker node, each owned by a TEE the secure monitor
 * creates and maps. All sixteen devices stay CAM-resident, so the
 * monitor, the CAM and the IOMMU do almost no work while the sim loop,
 * the bus, the checker nodes, the check accelerator and the memory
 * node do nearly all of it.
 *
 * Every engine runs twelve 4 KiB jobs back to back — four Read, four
 * Write, four Copy, in a seed-shuffled order — with up to eight bursts
 * outstanding. Reads and copies start at seed-chosen offsets of a
 * 64 KiB source region; writes and copies land in distinct
 * destinations, so every written byte can be read back. Verdicts are
 * cached per (domain, address, length, permission), one per 64 B read
 * burst and per 8 B write beat: a pass checks some 70,000 distinct
 * keys, far beyond the accelerator's 4096-line verdict cache. Passes
 * are kept short (about half a second) so a run holds many of them.
 */

#include <memory>
#include <string>
#include <vector>

#include "bench.hh"
#include "devices/dma_engine.hh"
#include "fw/monitor.hh"
#include "layers.hh"
#include "report.hh"
#include "sim/random.hh"
#include "soc/cpu_node.hh"
#include "soc/soc.hh"

namespace perfbench {

using namespace siopmp;

namespace {

constexpr unsigned kEngines = 16;
constexpr unsigned kOutstanding = 8;
constexpr unsigned kJobsPerKind = 4;
constexpr std::uint64_t kJobBytes = 4 * 1024;
constexpr DeviceId kFirstDevice = 100;
constexpr Addr kDramBase = 0x8000'0000;
constexpr Addr kDramSize = 0x4000'0000;
constexpr Addr kExtBase = 0x7000'0000;
constexpr Addr kExtSize = 0x1'0000;
constexpr Addr kTenantBase = 0x8100'0000;
constexpr Addr kTenantWindow = 0x10'0000; //!< 1 MiB per tenant
constexpr Addr kSrcBytes = 0x1'0000;      //!< source region per tenant
constexpr Cycle kHorizon = 50'000'000;
constexpr std::uint64_t kBurstBytes =
    static_cast<std::uint64_t>(bus::kBurstBeats) * bus::kBeatBytes;

/** Deterministic source-region contents. */
std::uint64_t
sourceWord(std::uint64_t seed, unsigned engine, Addr offset)
{
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + engine * 0x100000001b3ULL +
                      offset;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

struct Tenant {
    fw::OwnerId owner = 0;
    DeviceId device = 0;
    Addr base = 0;
    std::vector<dev::DmaJob> jobs;
    std::size_t next_job = 0;
    std::vector<Cycle> latencies;
    std::uint64_t denied = 0;
};

/** Twelve jobs for @p engine: kinds shuffled, offsets from @p rng. */
std::vector<dev::DmaJob>
makeJobs(Rng &rng, Addr base)
{
    std::vector<dev::DmaKind> kinds;
    for (unsigned i = 0; i < kJobsPerKind; ++i) {
        kinds.push_back(dev::DmaKind::Read);
        kinds.push_back(dev::DmaKind::Write);
        kinds.push_back(dev::DmaKind::Copy);
    }
    for (std::size_t i = kinds.size() - 1; i > 0; --i)
        std::swap(kinds[i], kinds[rng.below(i + 1)]);

    std::vector<dev::DmaJob> jobs;
    Addr next_dst = base + kSrcBytes;
    for (dev::DmaKind kind : kinds) {
        dev::DmaJob job;
        job.kind = kind;
        job.bytes = kJobBytes;
        job.max_outstanding = kOutstanding;
        job.src = base + rng.below((kSrcBytes - kJobBytes) / kBurstBytes + 1) *
                             kBurstBytes;
        if (kind != dev::DmaKind::Read) {
            job.dst = next_dst;
            next_dst += kJobBytes;
        }
        job.fill_pattern = rng.next() | 1;
        jobs.push_back(job);
    }
    return jobs;
}

/** Bursts of @p job's destination that differ from what it wrote. */
std::uint64_t
readbackErrors(const mem::Backing &memory, const dev::DmaJob &job)
{
    std::uint64_t bad_bursts = 0;
    for (std::uint64_t off = 0; off < job.bytes; off += kBurstBytes) {
        bool bad = false;
        for (std::uint64_t w = 0; w < kBurstBytes; w += 8) {
            const std::uint64_t got = memory.read64(job.dst + off + w);
            // Write jobs put fill_pattern + burst index + beat index.
            const std::uint64_t want =
                job.kind == dev::DmaKind::Write
                    ? job.fill_pattern + off / kBurstBytes + w / 8
                    : memory.read64(job.src + off + w);
            bad |= got != want;
        }
        bad_bursts += bad ? 1 : 0;
    }
    return bad_bursts;
}

} // namespace

PassResult
runStreamHot(const Options &opt, LayerSink *sink)
{
    PassResult result;
    result.drives_loop = true;
    const double t_setup = hostNow();

    soc::SocConfig cfg;
    cfg.num_masters = kEngines;
    soc::Soc soc(cfg);
    iopmp::ExtendedTable ext_table(&soc.memory(), {kExtBase, kExtSize});
    fw::SecureMonitor monitor(&soc.iopmp(), &soc.mmio(),
                              soc::kIopmpMmioBase, &ext_table,
                              &soc.monitor());
    monitor.init({kDramBase, kDramSize}, {kExtBase, kExtSize});
    soc::CpuNode cpu("cpu0", &monitor, &soc.iopmp(), &soc.sim());
    soc.add(&cpu);

    Rng rng(opt.seed);
    std::vector<Tenant> tenants(kEngines);
    std::vector<std::unique_ptr<dev::DmaEngine>> engines;
    auto &create_ns = result.call_ns["fw.create_tee"];
    auto &map_ns = result.call_ns["fw.device_map"];
    for (unsigned e = 0; e < kEngines; ++e) {
        Tenant &t = tenants[e];
        t.device = kFirstDevice + e;
        t.base = kTenantBase + e * kTenantWindow;
        const fw::CapId cap = monitor.registerDevice(t.device);
        t.owner = timed(create_ns, [&] {
            return monitor.createTee("stream" + std::to_string(e),
                                     {t.base, kTenantWindow}, {cap});
        });
        const fw::FwResult mapped = timed(map_ns, [&] {
            return monitor.deviceMap(t.owner, t.device,
                                     {t.base, kTenantWindow},
                                     Perm::ReadWrite);
        });
        if (t.owner == 0 || !mapped.ok)
            result.fail("tenant " + std::to_string(e) + " set-up failed");
        for (Addr off = 0; off < kSrcBytes; off += 8)
            soc.memory().write64(t.base + off, sourceWord(opt.seed, e, off));
        t.jobs = makeJobs(rng, t.base);

        engines.push_back(std::make_unique<dev::DmaEngine>(
            "dma" + std::to_string(e), t.device, soc.masterLink(e)));
        soc.addDevice(engines.back().get(), e);
        engines.back()->setBurstObserver([&t](Cycle latency, bool denied) {
            t.latencies.push_back(latency);
            t.denied += denied ? 1 : 0;
        });
        result.attempted += 4 * kJobsPerKind * kJobBytes / kBurstBytes;
    }
    for (unsigned e = 0; e < kEngines; ++e)
        if (!monitor.hotSid(tenants[e].device))
            result.fail("device " + std::to_string(e) + " not CAM-resident");

    auto &sim = soc.sim();
    for (unsigned e = 0; e < kEngines; ++e)
        engines[e]->start(tenants[e].jobs[tenants[e].next_job++], sim.now());
    const double t_run = hostNow();
    result.setup_s = t_run - t_setup;

    unsigned running = kEngines;
    while (running > 0 && sim.now() < kHorizon) {
        result.active_sum += static_cast<double>(sim.activeComponents());
        ++result.steps;
        sim.step();
        for (unsigned e = 0; e < kEngines; ++e) {
            Tenant &t = tenants[e];
            if (t.next_job > t.jobs.size() || !engines[e]->done())
                continue;
            if (t.next_job == t.jobs.size()) {
                ++t.next_job; // finished
                --running;
            } else {
                engines[e]->start(t.jobs[t.next_job++], sim.now());
            }
        }
    }
    result.host_s = hostNow() - t_run;
    result.idle_skipped = sim.idleCyclesSkipped();
    const Cycle cycles = sim.now();
    if (running > 0)
        result.fail("engines still running at the horizon");

    // Output checks: every burst completed, none denied, every written
    // byte reads back.
    if (opt.inject_fault) {
        const Addr victim = tenants[0].base + kSrcBytes;
        soc.memory().write8(victim, ~soc.memory().read8(victim));
    }
    std::vector<double> latencies;
    std::uint64_t beats = 0, denied = 0, bad = 0;
    Fnv fnv;
    for (unsigned e = 0; e < kEngines; ++e) {
        const Tenant &t = tenants[e];
        for (Cycle l : t.latencies) {
            latencies.push_back(static_cast<double>(l));
            fnv.mix(l);
        }
        denied += t.denied;
        auto &stats = engines[e]->statsGroup();
        beats += static_cast<std::uint64_t>(
            stats.scalar("read_beats").value() +
            stats.scalar("put_beats_issued").value());
        for (const dev::DmaJob &job : t.jobs)
            if (job.kind != dev::DmaKind::Read)
                bad += readbackErrors(soc.memory(), job);
    }
    const std::uint64_t timed_bursts = latencies.size();
    if (denied > 0)
        result.fail(std::to_string(denied) + " bursts denied");
    if (bad > 0)
        result.fail(std::to_string(bad) + " bursts read back wrong");
    if (timed_bursts != result.attempted)
        result.fail("bursts timed " + std::to_string(timed_bursts) +
                    " != issued " + std::to_string(result.attempted));
    if (beats != result.attempted * bus::kBurstBeats)
        result.fail("data beats " + std::to_string(beats) + " != expected");
    if (samplesBeyond(latencies.size(), 99.0) < kTailSamplesBeyond)
        result.fail("too few bursts for a p99");
    result.failed = std::min<std::uint64_t>(
        result.attempted,
        denied + bad +
            (result.attempted > timed_bursts ? result.attempted - timed_bursts
                                             : 0));

    if (sink)
        replayChecks(*sink, soc.iopmp(), result);

    std::uint64_t destroyed = 0;
    for (const Tenant &t : tenants)
        destroyed += monitor.destroyTee(t.owner, cycles).ok ? 1 : 0;
    if (destroyed != kEngines)
        result.fail("tenant teardown failed");

    fnv.mix(cycles);
    fnv.mix(beats);
    result.fingerprint = fnv.h;
    result.modelled = {
        {"sim_cycles", static_cast<double>(cycles)},
        {"beats", static_cast<double>(beats)},
        {"bytes_per_cycle", static_cast<double>(beats * bus::kBeatBytes) /
                                static_cast<double>(cycles)},
        {"burst_p50_cycles", percentile(latencies, 50.0)},
        {"burst_p99_cycles", percentile(latencies, 99.0)},
        {"bursts_timed", static_cast<double>(timed_bursts)},
        {"denied_bursts", static_cast<double>(denied)},
        {"tee_lifecycles", static_cast<double>(destroyed)},
    };
    return result;
}

} // namespace perfbench
