/**
 * @file
 * Iommu implementation.
 */

#include "iommu/iommu.hh"

#include "sim/logging.hh"

namespace siopmp {
namespace iommu {

Iommu::Iommu(IommuConfig cfg)
    : cfg_(cfg),
      iova_(cfg.iova_base, cfg.iova_size, cfg.iova),
      iotlb_(cfg.iotlb_sets, cfg.iotlb_ways),
      cmdq_(cfg.cmdq),
      stats_("iommu")
{
}

MapResult
Iommu::dmaMap(Addr paddr, unsigned pages, Perm perm, unsigned cpu,
              unsigned contending_cores, Cycle now)
{
    (void)now;
    MapResult result;
    Cycle iova_cost = 0;
    const Addr iova = iova_.alloc(pages, cpu, contending_cores, &iova_cost);
    if (iova == kNoAddr)
        return result;
    for (unsigned p = 0; p < pages; ++p) {
        const bool ok = table_.map(
            iova + static_cast<Addr>(p) * kPageSize,
            alignDown(paddr, kPageSize) + static_cast<Addr>(p) * kPageSize,
            perm);
        SIOPMP_ASSERT(ok, "page table map failed");
    }
    result.iova = iova;
    result.cost = iova_cost + cfg_.map_setup +
                  pages * cfg_.walk_cycles_per_level / 4;
    ++stats_.scalar(st_maps_, "maps");
    stats_.average(st_map_cost_, "map_cost")
        .sample(static_cast<double>(result.cost));
    return result;
}

Cycle
Iommu::dmaUnmap(Addr iova, unsigned pages, unsigned cpu, Cycle now,
                Cycle *wait_out)
{
    Cycle cost = 0;
    Cycle wait = 0;
    for (unsigned p = 0; p < pages; ++p) {
        const Addr page = iova + static_cast<Addr>(p) * kPageSize;
        if (!table_.unmap(page))
            continue;
        if (cfg_.mode == UnmapMode::Strict) {
            // Post invalidation and wait for retirement before reuse.
            cost += cfg_.strict_unmap_cpu;
            cost += cmdq_.post(InvCommand::Page, page, now + cost);
            iotlb_.invalidatePage(page);
        } else {
            // Deferred: mapping is gone from the table but may linger
            // in the IOTLB until the batched flush.
            cost += cfg_.deferred_unmap_cpu;
            ++deferred_pending_;
            ++stale_mappings_;
        }
    }

    if (cfg_.mode == UnmapMode::Strict) {
        wait = cmdq_.sync(now + cost);
        cost += wait;
    } else if (deferred_pending_ >= cfg_.deferred_batch) {
        // Batched global invalidation: one command for the whole batch.
        cost += cmdq_.post(InvCommand::All, 0, now + cost);
        wait = cmdq_.sync(now + cost);
        cost += wait;
        iotlb_.invalidateAll();
        deferred_pending_ = 0;
        stale_mappings_ = 0;
        ++stats_.scalar(st_deferred_flushes_, "deferred_flushes");
    }

    iova_.free(iova, cpu);
    ++stats_.scalar(st_unmaps_, "unmaps");
    stats_.average(st_unmap_cost_, "unmap_cost")
        .sample(static_cast<double>(cost));
    if (wait_out)
        *wait_out = wait;
    return cost;
}

std::optional<Translation>
Iommu::translate(Addr iova, Perm perm, Cycle now, Cycle *cost_out)
{
    (void)now;
    Cycle cost = 0;
    std::optional<Translation> translation = iotlb_.lookup(iova);
    if (!translation) {
        unsigned levels = 0;
        translation = table_.walk(iova, &levels);
        cost += levels * cfg_.walk_cycles_per_level;
        if (translation)
            iotlb_.insert(iova, *translation);
    }
    if (cost_out)
        *cost_out = cost;
    if (!translation || !permits(translation->perm, perm)) {
        ++stats_.scalar(st_faults_, "faults");
        return std::nullopt;
    }
    return translation;
}

} // namespace iommu
} // namespace siopmp
