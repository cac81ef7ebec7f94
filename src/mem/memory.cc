/**
 * @file
 * Backing store and MemoryNode implementation.
 */

#include "mem/memory.hh"

#include <algorithm>
#include <cstring>
#include <utility>

#include "sim/logging.hh"
#include "sim/simulator.hh"
#include "sim/trace.hh"

namespace siopmp {
namespace mem {

namespace {

/** Service-span correlation id: route tags are stamped by the xbar
 * before beats reach the memory controller, so (route, txn) is unique
 * fabric-wide. */
std::uint64_t
serviceSpanId(const bus::Beat &beat)
{
    return (static_cast<std::uint64_t>(beat.route + 1) << 48) ^ beat.txn;
}

void
traceService(Cycle now, const char *track, trace::Phase phase,
             const char *name, const bus::Beat &beat, std::uint64_t arg0)
{
    trace::Event ev;
    ev.when = now;
    ev.phase = phase;
    ev.track = track;
    ev.category = "mem";
    ev.name = name;
    ev.id = serviceSpanId(beat);
    ev.device = beat.device;
    ev.addr = beat.addr;
    ev.arg0 = arg0;
    ev.arg1 = beat.num_beats;
    trace::emit(ev);
}

} // namespace

const Backing::Page *
Backing::findPage(Addr addr) const
{
    auto it = pages_.find(addr >> kPageShift);
    return it == pages_.end() ? nullptr : &it->second;
}

Backing::Page &
Backing::touchPage(Addr addr)
{
    auto [it, inserted] = pages_.try_emplace(addr >> kPageShift);
    if (inserted)
        it->second.assign(kPageSize, 0);
    return it->second;
}

std::uint8_t
Backing::read8(Addr addr) const
{
    const Page *page = findPage(addr);
    return page ? (*page)[addr & (kPageSize - 1)] : 0;
}

void
Backing::write8(Addr addr, std::uint8_t value)
{
    touchPage(addr)[addr & (kPageSize - 1)] = value;
}

std::uint64_t
Backing::read64(Addr addr) const
{
    std::uint64_t value = 0;
    for (unsigned i = 0; i < 8; ++i)
        value |= static_cast<std::uint64_t>(read8(addr + i)) << (8 * i);
    return value;
}

void
Backing::write64(Addr addr, std::uint64_t value, std::uint8_t strobe)
{
    for (unsigned i = 0; i < 8; ++i) {
        if (strobe & (1u << i))
            write8(addr + i, static_cast<std::uint8_t>(value >> (8 * i)));
    }
}

void
Backing::readBlock(Addr addr, std::uint8_t *out, std::size_t len) const
{
    for (std::size_t i = 0; i < len; ++i)
        out[i] = read8(addr + i);
}

void
Backing::writeBlock(Addr addr, const std::uint8_t *in, std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i)
        write8(addr + i, in[i]);
}

void
Backing::fill(Addr addr, std::uint8_t value, std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i)
        write8(addr + i, value);
}

MemoryNode::MemoryNode(std::string name, bus::Link *up, Backing *backing,
                       MemoryTiming timing)
    : Tickable(std::move(name)),
      up_(up),
      backing_(backing),
      timing_(timing),
      stats_(this->name())
{
    SIOPMP_ASSERT(up_ && backing_, "memory node needs link and backing");
    up_->a.bindWake(this);
}

bool
MemoryNode::quiescent(Cycle now) const
{
    // Quiescent only if no request is waiting and nothing is ready to
    // issue this cycle. Future-dated work (read latency, write-ack
    // latency) is covered by the wake armed in evaluate(); a response
    // blocked on D-channel backpressure has ready_at <= now and keeps
    // the node hot until it drains.
    if (!up_->a.settled())
        return false;
    if (!acks_.empty() && acks_.front().ready_at <= now)
        return false;
    if (!reads_.empty() && reads_.front().first_beat_at <= now)
        return false;
    return true;
}

void
MemoryNode::armWake(Cycle now)
{
    if (simulator() == nullptr)
        return;
    Cycle at = kNever;
    if (!acks_.empty())
        at = std::min(at, acks_.front().ready_at);
    if (!reads_.empty())
        at = std::min(at, reads_.front().first_beat_at);
    if (at == kNever || at <= now)
        return; // nothing pending, or work already actionable now
    simulator()->events().scheduleWake(at, this);
}

void
MemoryNode::acceptRequest(Cycle now)
{
    if (up_->a.empty())
        return;
    const bus::Beat &req = up_->a.front();

    if (req.opcode == bus::Opcode::Get) {
        // Enforce the read initiation interval.
        if (now < next_read_start_)
            return;
        PendingRead pr;
        pr.req = req;
        pr.first_beat_at = now + timing_.read_latency;
        reads_.push_back(pr);
        next_read_start_ = now + timing_.read_interval;
        ++stats_.scalar(st_read_bursts_, "read_bursts");
        if (trace::on()) {
            traceService(now, name().c_str(), trace::Phase::SpanBegin,
                         "read", req, timing_.read_latency);
        }
        up_->a.pop();
        return;
    }

    // Write data beat: apply functionally, ack after the last beat.
    // Consumes the shared data port.
    if (bus::isWrite(req.opcode)) {
        if (data_port_used_)
            return;
        data_port_used_ = true;
        backing_->write64(req.addr, req.data, req.strobe);
        ++stats_.scalar(st_write_beats_, "write_beats");
        if (req.beat_idx == 0 && trace::on()) {
            traceService(now, name().c_str(), trace::Phase::SpanBegin,
                         "write", req, timing_.write_latency);
        }
        if (req.last) {
            acks_.push_back(
                PendingAck{req, now + timing_.write_latency});
            ++stats_.scalar(st_write_bursts_, "write_bursts");
        }
        up_->a.pop();
        return;
    }

    panic("memory node received non-request beat: %s",
          req.toString().c_str());
}

void
MemoryNode::issueResponse(Cycle now)
{
    if (!up_->d.canPush())
        return;

    // Write acks take priority (single beat, cheap).
    if (!acks_.empty() && acks_.front().ready_at <= now) {
        if (trace::on()) {
            traceService(now, name().c_str(), trace::Phase::SpanEnd,
                         "write", acks_.front().last_req, 0);
        }
        up_->d.push(bus::makeAck(acks_.front().last_req));
        acks_.pop_front();
        return;
    }

    // Stream read data in order, one beat per cycle, sharing the data
    // port with write-data acceptance.
    if (!reads_.empty()) {
        PendingRead &pr = reads_.front();
        if (pr.first_beat_at > now || data_port_used_)
            return;
        data_port_used_ = true;
        const Addr beat_addr =
            pr.req.addr +
            static_cast<Addr>(pr.next_beat) * bus::kBeatBytes;
        up_->d.push(bus::makeAckData(pr.req, pr.next_beat,
                                     backing_->read64(beat_addr)));
        ++stats_.scalar(st_read_beats_, "read_beats");
        if (++pr.next_beat == pr.req.num_beats) {
            if (trace::on()) {
                traceService(now, name().c_str(), trace::Phase::SpanEnd,
                             "read", pr.req, 0);
            }
            reads_.pop_front();
        }
    }
}

void
MemoryNode::evaluate(Cycle now)
{
    data_port_used_ = false;
    // Alternate data-port priority between the write (accept) and read
    // (issue) sides so neither starves under mixed traffic.
    if (now & 1) {
        issueResponse(now);
        acceptRequest(now);
    } else {
        acceptRequest(now);
        issueResponse(now);
    }
    armWake(now);
}

void
MemoryNode::advance(Cycle)
{
    up_->a.clock();
}

} // namespace mem
} // namespace siopmp
