/**
 * @file
 * Base class for bus-master devices (DMA capable). Owns the device's
 * link toward its checker, allocates transaction ids and offers burst
 * issue/collect helpers shared by the concrete devices (DMA engine,
 * NIC, accelerator, malicious device).
 */

#ifndef DEVICES_DEVICE_HH
#define DEVICES_DEVICE_HH

#include <cstdint>

#include "bus/link.hh"
#include "sim/stats.hh"
#include "sim/tickable.hh"
#include "sim/types.hh"

namespace siopmp {
namespace dev {

class DmaMaster : public Tickable
{
  public:
    DmaMaster(std::string name, DeviceId device, bus::Link *link);

    DeviceId deviceId() const { return device_; }
    stats::Group &statsGroup() { return stats_; }

    /** Total payload bytes successfully moved (reads + writes). */
    std::uint64_t bytesTransferred() const { return bytes_; }

    /** Denied (bus-error) responses observed. */
    std::uint64_t deniedResponses() const { return denied_; }

  protected:
    /** Allocate a fresh transaction id. */
    std::uint64_t allocTxn() { return next_txn_++; }

    /** Issue the request beat(s) helpers; return false on backpressure. */
    bool tryIssueGet(Addr addr, unsigned beats);
    bool tryIssuePutBeat(Addr addr, unsigned idx, unsigned beats,
                         std::uint64_t data, std::uint64_t txn,
                         std::uint8_t strobe = 0xff);

    /** Link accessors for subclasses. */
    bus::Link *link() { return link_; }

    /** Called by subclasses when a data/ack beat arrives. */
    void accountResponse(const bus::Beat &beat);

    void advance(Cycle now) override;

    DeviceId device_;
    bus::Link *link_;
    std::uint64_t next_txn_ = 1;
    std::uint64_t last_get_txn_ = 0; //!< txn id of the last tryIssueGet
    std::uint64_t bytes_ = 0;
    std::uint64_t denied_ = 0;
    stats::Group stats_;
    //! Hot-path stats, resolved on first use (stats::Group::scalar).
    stats::Scalar *st_gets_issued_ = nullptr;
    stats::Scalar *st_put_beats_issued_ = nullptr;
    stats::Scalar *st_denied_ = nullptr;
    stats::Scalar *st_read_beats_ = nullptr;
    stats::Scalar *st_write_acks_ = nullptr;
};

} // namespace dev
} // namespace siopmp

#endif // DEVICES_DEVICE_HH
