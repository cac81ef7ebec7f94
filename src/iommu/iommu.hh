/**
 * @file
 * Baseline IOMMU model (Table 1's IOMMU-strict / IOMMU-defer rows).
 * Composes the IOVA allocator, IO page table, IOTLB and the
 * asynchronous invalidation command queue into the dma_map/dma_unmap
 * interface a kernel network stack uses per packet.
 *
 * Unmap modes:
 *  - Strict: every unmap posts a page invalidation and synchronously
 *    waits for it to retire before the IOVA may be reused. Safe but
 *    expensive; this is the 20-38% throughput loss of Fig 15.
 *  - Deferred: unmaps batch; the IOVA is recycled immediately and the
 *    flush happens every N unmaps (or on timeout). Fast but leaves an
 *    attack window during which the device can still touch the stale
 *    mapping — which the model exposes via attackWindowOpen().
 */

#ifndef IOMMU_IOMMU_HH
#define IOMMU_IOMMU_HH

#include <cstdint>

#include "iommu/cmd_queue.hh"
#include "iommu/iotlb.hh"
#include "iommu/iova.hh"
#include "iommu/page_table.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace siopmp {
namespace iommu {

enum class UnmapMode { Strict, Deferred };

struct IommuConfig {
    Addr iova_base = 0x0010'0000;
    Addr iova_size = Addr{1} << 36;
    unsigned iotlb_sets = 64;
    unsigned iotlb_ways = 4;
    UnmapMode mode = UnmapMode::Strict;
    unsigned deferred_batch = 256; //!< unmaps per deferred flush
    Cycle walk_cycles_per_level = 90; //!< memory access per PT level
    Cycle map_setup = 70;          //!< PTE install + bookkeeping
    //! Driver-side CPU work per strict unmap: invalidation descriptor
    //! setup, per-page IOTLB flush bookkeeping, completion handling.
    Cycle strict_unmap_cpu = 220;
    Cycle deferred_unmap_cpu = 30; //!< queue entry + lazy bookkeeping
    IovaCosts iova;
    CmdQueueCosts cmdq;
};

/** Result of a dma_map call. */
struct MapResult {
    Addr iova = kNoAddr;
    Cycle cost = 0;
};

class Iommu
{
  public:
    explicit Iommu(IommuConfig cfg);

    /**
     * Kernel-side: map @p pages contiguous physical pages starting at
     * @p paddr for device DMA. @p cpu / @p contending_cores model
     * multi-core IOVA contention.
     */
    MapResult dmaMap(Addr paddr, unsigned pages, Perm perm, unsigned cpu,
                     unsigned contending_cores, Cycle now);

    /**
     * Kernel-side: unmap. Returns CPU cycle cost, which in strict mode
     * includes the synchronous invalidation wait. @p wait_out, when
     * non-null, receives the portion spent stalled on the command
     * queue (other cores can overlap useful work with it).
     */
    Cycle dmaUnmap(Addr iova, unsigned pages, unsigned cpu, Cycle now,
                   Cycle *wait_out = nullptr);

    /**
     * Device-side: translate an access. Walks the IOTLB then the page
     * table; returns nullopt on fault. @p cost_out gets device-visible
     * added latency (0 on IOTLB hit).
     */
    std::optional<Translation> translate(Addr iova, Perm perm, Cycle now,
                                         Cycle *cost_out = nullptr);

    /** True while deferred mode has unflushed stale mappings. */
    bool attackWindowOpen() const { return stale_mappings_ > 0; }
    std::uint64_t staleMappings() const { return stale_mappings_; }

    const Iotlb &iotlb() const { return iotlb_; }
    Iotlb &iotlb() { return iotlb_; }
    const CommandQueue &cmdQueue() const { return cmdq_; }
    const IovaAllocator &iova() const { return iova_; }
    const IoPageTable &pageTable() const { return table_; }
    const IommuConfig &config() const { return cfg_; }
    stats::Group &statsGroup() { return stats_; }

  private:
    IommuConfig cfg_;
    IovaAllocator iova_;
    IoPageTable table_;
    Iotlb iotlb_;
    CommandQueue cmdq_;
    unsigned deferred_pending_ = 0;
    std::uint64_t stale_mappings_ = 0;
    stats::Group stats_;
    //! Hot-path stats, resolved on first use (stats::Group::scalar).
    stats::Scalar *st_maps_ = nullptr;
    stats::Average *st_map_cost_ = nullptr;
    stats::Scalar *st_deferred_flushes_ = nullptr;
    stats::Scalar *st_unmaps_ = nullptr;
    stats::Average *st_unmap_cost_ = nullptr;
    stats::Scalar *st_faults_ = nullptr;
};

} // namespace iommu
} // namespace siopmp

#endif // IOMMU_IOMMU_HH
