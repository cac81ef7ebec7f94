/**
 * @file
 * Bus-facing IOMMU translation stage. Sits between a DMA master and
 * the rest of the fabric: every request beat's address is an I/O
 * virtual address, translated through the IOTLB/page table before the
 * beat continues downstream (typically into the sIOPMP checker, which
 * then checks the *physical* address — the paper's hybrid deployment
 * where the IOMMU translates and sIOPMP carries the security check).
 *
 * Timing: IOTLB hits add no cycles; misses stall the beat for the
 * table-walk latency. Faults (unmapped IOVA or insufficient page
 * permission) terminate the burst with a denied response, like a real
 * IOMMU raising an unrecoverable fault.
 */

#ifndef IOMMU_IOMMU_NODE_HH
#define IOMMU_IOMMU_NODE_HH

#include <deque>
#include <optional>

#include "bus/link.hh"
#include "iommu/iommu.hh"
#include "sim/stats.hh"
#include "sim/tickable.hh"

namespace siopmp {
namespace iommu {

class IommuNode : public Tickable
{
  public:
    IommuNode(std::string name, bus::Link *up, bus::Link *down,
              Iommu *mmu);

    void evaluate(Cycle now) override;
    void advance(Cycle now) override;
    bool quiescent(Cycle now) const override;

    stats::Group &statsGroup() { return stats_; }

  private:
    struct Pending {
        bus::Beat beat;
        Cycle ready_at;
        bool fault;
    };

    void acceptRequests(Cycle now);
    void dispatch(Cycle now);
    void forwardResponses();

    bus::Link *up_;
    bus::Link *down_;
    Iommu *mmu_;
    std::deque<Pending> pipe_;
    //! Divert latch: remaining beats of a faulted write burst.
    std::optional<std::uint64_t> faulting_txn_;
    stats::Group stats_;
    //! Hot-path stats, resolved on first use (stats::Group::scalar).
    stats::Scalar *st_iotlb_hits_ = nullptr;
    stats::Scalar *st_table_walks_ = nullptr;
    stats::Scalar *st_faults_ = nullptr;
    stats::Scalar *st_beats_translated_ = nullptr;
};

} // namespace iommu
} // namespace siopmp

#endif // IOMMU_IOMMU_NODE_HH
