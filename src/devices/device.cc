/**
 * @file
 * DmaMaster implementation.
 */

#include "devices/device.hh"

#include <utility>

#include "sim/logging.hh"

namespace siopmp {
namespace dev {

DmaMaster::DmaMaster(std::string name, DeviceId device, bus::Link *link)
    : Tickable(std::move(name)),
      device_(device),
      link_(link),
      stats_(this->name())
{
    SIOPMP_ASSERT(link_ != nullptr, "device needs a link");
    link_->d.bindWake(this);
    link_->a.bindProducerWake(this); // may sleep through backpressure
}

bool
DmaMaster::tryIssueGet(Addr addr, unsigned beats)
{
    if (!link_->a.canPush())
        return false;
    last_get_txn_ = allocTxn();
    link_->a.push(bus::makeGet(addr, beats, device_, last_get_txn_));
    ++stats_.scalar(st_gets_issued_, "gets_issued");
    return true;
}

bool
DmaMaster::tryIssuePutBeat(Addr addr, unsigned idx, unsigned beats,
                           std::uint64_t data, std::uint64_t txn,
                           std::uint8_t strobe)
{
    if (!link_->a.canPush())
        return false;
    link_->a.push(
        bus::makePut(addr, idx, beats, data, device_, txn, strobe));
    ++stats_.scalar(st_put_beats_issued_, "put_beats_issued");
    return true;
}

void
DmaMaster::accountResponse(const bus::Beat &beat)
{
    if (beat.denied) {
        ++denied_;
        ++stats_.scalar(st_denied_, "denied");
        return;
    }
    if (beat.opcode == bus::Opcode::AccessAckData) {
        bytes_ += bus::kBeatBytes;
        ++stats_.scalar(st_read_beats_, "read_beats");
    } else if (beat.opcode == bus::Opcode::AccessAck) {
        ++stats_.scalar(st_write_acks_, "write_acks");
    }
}

void
DmaMaster::advance(Cycle)
{
    link_->d.clock();
}

} // namespace dev
} // namespace siopmp
