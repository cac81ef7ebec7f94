/**
 * @file
 * Crossbar implementation.
 */

#include "bus/xbar.hh"

#include <utility>

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace siopmp {
namespace bus {

namespace {

/** Span correlation id for a transaction crossing the xbar: the port
 * that issued it disambiguates txn ids across masters. */
std::uint64_t
txnSpanId(std::uint32_t port, std::uint64_t txn)
{
    return (static_cast<std::uint64_t>(port + 1) << 48) ^ txn;
}

} // namespace

Xbar::Xbar(std::string name, std::vector<Link *> uplinks, Link *downlink)
    : Tickable(std::move(name)),
      up_(std::move(uplinks)),
      down_(downlink),
      stats_(this->name())
{
    SIOPMP_ASSERT(!up_.empty() && down_ != nullptr, "xbar needs ports");
    for (auto *link : up_)
        link->a.bindWake(this);
    down_->d.bindWake(this);
}

bool
Xbar::quiescent(Cycle) const
{
    // No beats to forward in either direction. A mid-flight burst lock
    // with empty channels is still a no-op: the lock only matters once
    // the granted master pushes its next beat, which wakes us.
    if (!down_->d.settled())
        return false;
    for (const auto *link : up_) {
        if (!link->a.settled())
            return false;
    }
    return true;
}

void
Xbar::forwardRequest()
{
    if (!down_->a.canPush())
        return;

    if (burst_locked_) {
        // Continue the granted burst; do not interleave other masters.
        Link *link = up_[grant_];
        if (link->a.empty())
            return;
        Beat beat = link->a.front();
        link->a.pop();
        beat.route = static_cast<std::uint32_t>(grant_);
        down_->a.push(beat);
        ++stats_.scalar(st_a_beats_, "a_beats");
        if (beat.last)
            burst_locked_ = false;
        return;
    }

    // Round-robin starting after the last granted port.
    for (std::size_t i = 0; i < up_.size(); ++i) {
        std::size_t port = (grant_ + 1 + i) % up_.size();
        Link *link = up_[port];
        if (link->a.empty())
            continue;
        Beat beat = link->a.front();
        link->a.pop();
        beat.route = static_cast<std::uint32_t>(port);
        down_->a.push(beat);
        ++stats_.scalar(st_a_beats_, "a_beats");
        if (beat.beat_idx == 0 && trace::on())
            traceTxnBegin(beat);
        grant_ = port;
        burst_locked_ = !beat.last;
        return;
    }
}

void
Xbar::traceTxnBegin(const Beat &beat)
{
    trace::Event ev;
    ev.when = now_;
    ev.phase = trace::Phase::SpanBegin;
    ev.track = name().c_str();
    ev.category = "bus";
    ev.name = "txn";
    ev.id = txnSpanId(beat.route, beat.txn);
    ev.device = beat.device;
    ev.addr = beat.addr;
    ev.arg0 = static_cast<std::uint64_t>(beat.opcode);
    ev.arg1 = beat.num_beats;
    ev.label = opcodeName(beat.opcode);
    trace::emit(ev);
}

void
Xbar::traceTxnEnd(const Beat &beat)
{
    trace::Event ev;
    ev.when = now_;
    ev.phase = trace::Phase::SpanEnd;
    ev.track = name().c_str();
    ev.category = "bus";
    ev.name = "txn";
    ev.id = txnSpanId(beat.route, beat.txn);
    ev.device = beat.device;
    ev.addr = beat.addr;
    ev.arg0 = beat.denied ? 1 : 0;
    ev.arg1 = beat.masked ? 1 : 0;
    ev.label = opcodeName(beat.opcode);
    trace::emit(ev);
}

void
Xbar::forwardResponse()
{
    if (down_->d.empty())
        return;
    const Beat &beat = down_->d.front();
    SIOPMP_ASSERT(beat.route < up_.size(), "bad response route tag");
    Link *link = up_[beat.route];
    if (!link->d.canPush())
        return;
    link->d.push(beat);
    ++stats_.scalar(st_d_beats_, "d_beats");
    if (beat.last && trace::on())
        traceTxnEnd(beat);
    down_->d.pop();
}

void
Xbar::evaluate(Cycle now)
{
    now_ = now;
    forwardRequest();
    forwardResponse();
}

void
Xbar::advance(Cycle)
{
    // Consumer-clocks convention: the xbar consumes every uplink's A
    // channel and the downlink's D channel.
    for (auto *link : up_)
        link->a.clock();
    down_->d.clock();
}

} // namespace bus
} // namespace siopmp
