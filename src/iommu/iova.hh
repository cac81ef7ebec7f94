/**
 * @file
 * IOVA (I/O virtual address) range allocator. Models the Linux
 * iova_domain: a lock-protected range tree plus per-CPU caches. The
 * scalability cost the paper cites — IOVA allocation contention with
 * multiple cores and devices — is modelled by a per-allocation cycle
 * cost that grows with the number of contending cores when the
 * per-CPU cache misses.
 */

#ifndef IOMMU_IOVA_HH
#define IOMMU_IOVA_HH

#include <cstdint>
#include <map>
#include <vector>

#include "iommu/page_table.hh"
#include "sim/types.hh"

namespace siopmp {
namespace iommu {

struct IovaCosts {
    Cycle cached_alloc = 30;    //!< per-CPU magazine hit
    Cycle tree_alloc = 180;     //!< global tree under the lock
    Cycle contention_per_core = 90; //!< extra serialization per core
};

class IovaAllocator
{
  public:
    /**
     * @param base  first allocatable address (page aligned)
     * @param size  size of the IOVA space
     */
    IovaAllocator(Addr base, Addr size, IovaCosts costs = {});

    /**
     * Allocate @p pages contiguous pages for @p cpu.
     * @param cost_out receives the modeled cycle cost
     * @return base IOVA, or kNoAddr on exhaustion
     */
    Addr alloc(unsigned pages, unsigned cpu, unsigned contending_cores,
               Cycle *cost_out = nullptr);

    /** Free a previous allocation (returns false if unknown). */
    bool free(Addr iova, unsigned cpu);

    std::uint64_t allocated() const { return allocated_; }
    std::uint64_t magazineHits() const { return cache_hits_; }
    std::uint64_t treeAllocs() const { return tree_allocs_; }

  private:
    static constexpr unsigned kMaxCpus = 64;
    static constexpr unsigned kMagazineSize = 32;

    struct Magazine {
        std::vector<Addr> free_iovas; //!< single-page entries only
    };

    IovaCosts costs_;
    Addr base_;
    Addr limit_;
    Addr bump_; //!< simple bump pointer over virgin space
    std::map<Addr, unsigned> live_; //!< iova -> pages
    std::map<Addr, unsigned> tree_free_; //!< recycled ranges
    std::vector<Magazine> magazines_;
    std::uint64_t allocated_ = 0;
    std::uint64_t cache_hits_ = 0;
    std::uint64_t tree_allocs_ = 0;
};

} // namespace iommu
} // namespace siopmp

#endif // IOMMU_IOVA_HH
