/**
 * @file
 * DeviceID2SID content-addressable memory (§4.3, Fig 5). The SID is
 * the CAM address and the device ID is the stored content, so a DMA
 * request's device ID resolves to a hot SID in a single cycle. Each
 * row carries a use bit driving a clock-algorithm (second-chance) LRU
 * used by the implicit hot/cold switching policy; explicit switching
 * simply overwrites a chosen row.
 */

#ifndef IOPMP_REMAP_CAM_HH
#define IOPMP_REMAP_CAM_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace siopmp {
namespace iopmp {

class DeviceId2SidCam
{
  public:
    /** @param num_sids number of hot SIDs (rows); 63 in the paper. */
    explicit DeviceId2SidCam(unsigned num_sids = 63);

    unsigned numRows() const
    {
        return static_cast<unsigned>(rows_.size());
    }

    /**
     * Single-cycle content lookup. On a hit the row's use bit is set
     * (LRU touch) and the SID (row address) is returned.
     */
    std::optional<Sid> lookup(DeviceId device);

    /** Lookup without touching the use bit (diagnostics/tests). */
    std::optional<Sid> peek(DeviceId device) const;

    /** Explicit switching: bind @p device to row @p sid. Returns the
     * device previously mapped there, if any. */
    std::optional<DeviceId> set(Sid sid, DeviceId device);

    /** Remove the mapping for @p device if present. */
    bool invalidate(DeviceId device);

    /** Remove the mapping in row @p sid if valid. */
    bool invalidateSid(Sid sid);

    /**
     * Implicit switching: find a victim row with the clock algorithm
     * (sweep the hand clearing use bits until a clear one is found)
     * and bind @p device there. Prefers free rows. Returns the chosen
     * SID and reports any evicted device via @p evicted.
     */
    Sid insertLru(DeviceId device, std::optional<DeviceId> *evicted);

    /** Device currently bound to @p sid, if any. */
    std::optional<DeviceId> deviceAt(Sid sid) const;

    /** Use bit of row @p sid (tests, missed-wake checks). */
    bool useBit(Sid sid) const;

    void reset();

    /**
     * Call @p hook after every row write and every clock sweep
     * (set/invalidate/insertLru/reset); a use-bit touch (lookup(), an
     * insertLru() of a present device) does not fire it. SIopmp wakes
     * the checker nodes parked on a stalled beat from here.
     */
    void
    setChangeHook(std::function<void()> hook)
    {
        on_change_ = std::move(hook);
    }

  private:
    void
    changed()
    {
        if (on_change_)
            on_change_();
    }

    struct Row {
        bool valid = false;
        bool use = false; //!< clock-algorithm reference bit
        DeviceId device = 0;
    };

    std::vector<Row> rows_;
    unsigned hand_ = 0; //!< clock hand for the LRU sweep
    std::function<void()> on_change_;
};

} // namespace iopmp
} // namespace siopmp

#endif // IOPMP_REMAP_CAM_HH
