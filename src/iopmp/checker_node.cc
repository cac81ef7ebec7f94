/**
 * @file
 * CheckerNode implementation.
 */

#include "iopmp/checker_node.hh"

#include <utility>

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace siopmp {
namespace iopmp {

namespace {

/** Span correlation id for a transaction seen at the checker. The
 * route tag is not stamped yet (the xbar sits downstream in the
 * per-device topology), so key by originating device instead. */
std::uint64_t
checkSpanId(const bus::Beat &beat)
{
    return ((static_cast<std::uint64_t>(beat.device) + 1) << 32) ^
           beat.txn;
}

} // namespace

CheckerNode::CheckerNode(std::string name, bus::Link *up, bus::Link *down,
                         bus::Link *err, SIopmp *unit,
                         bus::BusMonitor *monitor, ViolationPolicy policy)
    : Tickable(std::move(name)),
      up_(up),
      down_(down),
      err_(err),
      unit_(unit),
      monitor_(monitor),
      policy_(policy),
      stats_(this->name())
{
    SIOPMP_ASSERT(up_ && down_ && unit_, "checker node wiring incomplete");
    if (policy_ == ViolationPolicy::BusError)
        SIOPMP_ASSERT(err_ != nullptr, "bus-error policy needs error link");
    req_pipe_.configure(requestDelay());
    resp_pipe_.configure(responseDelay());
    up_->a.bindWake(this);
    down_->d.bindWake(this);
    if (err_ != nullptr)
        err_->d.bindWake(this);
}

CheckerNode::~CheckerNode()
{
    // Unconditional: a park that raced a wake inside authorize() left
    // an entry the unit has not fired yet.
    unit_->unpark(this);
}

bool
CheckerNode::quiescent(Cycle) const
{
    if (!down_->d.settled() || (err_ != nullptr && !err_->d.settled()) ||
        !resp_pipe_.empty()) {
        return false;
    }
    if (req_pipe_.empty())
        return up_->a.settled();
    // A parked head beat sleeps until the unit's wake list fires. The
    // node must also have nothing to accept: no push staged on the up
    // link, and any readable beat held back by a full request pipe
    // (only dispatch, which is parked, frees a slot).
    return park_ != Park::None && parked_gen_ == unit_->stallGeneration() &&
           !up_->a.hasStaged() && (up_->a.empty() || !req_pipe_.canPush());
}

Cycle
CheckerNode::requestDelay() const
{
    // Pipeline registers only; the SID2Addr record under packet
    // masking happens in parallel with the forwarded request.
    return unit_->checker().extraLatency();
}

Cycle
CheckerNode::responseDelay() const
{
    // Packet masking interposes the response path for the read-clear
    // table lookup; bus-error handling leaves responses untouched.
    return policy_ == ViolationPolicy::PacketMasking ? 1 : 0;
}

void
CheckerNode::acceptRequests(Cycle now)
{
    // Reconfigure lazily in case the checker or policy was swapped
    // between experiments.
    req_pipe_.configure(requestDelay());
    resp_pipe_.configure(responseDelay());

    if (up_->a.empty() || !req_pipe_.canPush())
        return;
    const bus::Beat &beat = up_->a.front();
    if (beat.beat_idx == 0) {
        if (monitor_)
            monitor_->onRequestStart(beat.device);
        if (trace::on()) {
            trace::Event ev;
            ev.when = now;
            ev.phase = trace::Phase::SpanBegin;
            ev.track = name().c_str();
            ev.category = "checker";
            ev.name = "check";
            ev.id = checkSpanId(beat);
            ev.device = beat.device;
            ev.addr = beat.addr;
            ev.arg0 = unit_->checker().stages();
            ev.arg1 = beat.num_beats;
            ev.label = bus::opcodeName(beat.opcode);
            trace::emit(ev);
        }
    }
    req_pipe_.push(beat, now);
    up_->a.pop();
}

unsigned
CheckerNode::decidingStage(int entry) const
{
    const unsigned stages = unit_->checker().stages();
    if (entry < 0 || stages <= 1)
        return 0;
    const unsigned total = unit_->checker().entries().size();
    const unsigned per_stage = (total + stages - 1) / stages;
    return per_stage == 0 ? 0 : static_cast<unsigned>(entry) / per_stage;
}

void
CheckerNode::traceResolved(const bus::Beat &beat, Cycle now,
                           const char *verdict, int entry)
{
    // Close an open blocking window: the stalled head beat finally
    // resolved, so the §4.1 drain wait is over. This is stats-level
    // bookkeeping and runs whether or not a trace sink is installed.
    if (block_window_start_) {
        const Cycle duration = now - *block_window_start_;
        if (monitor_)
            monitor_->recordBlockWindow(beat.device, duration);
        if (trace::on()) {
            trace::Event ev;
            ev.when = now;
            ev.phase = trace::Phase::SpanEnd;
            ev.track = name().c_str();
            ev.category = "checker";
            ev.name = "block_window";
            ev.id = beat.device + 1;
            ev.device = beat.device;
            ev.arg1 = duration;
            trace::emit(ev);
        }
        block_window_start_.reset();
    }

    if (!trace::on())
        return;

    trace::Event ev;
    ev.when = now;
    ev.phase = trace::Phase::Instant;
    ev.track = name().c_str();
    ev.category = "checker";
    ev.name = "verdict";
    ev.device = beat.device;
    ev.addr = beat.addr;
    ev.arg0 = decidingStage(entry);
    ev.arg1 = static_cast<std::uint64_t>(entry < 0 ? ~0ull : entry);
    ev.label = verdict;
    trace::emit(ev);

    if (verdict[0] == 'd') { // deny / deny-drain
        ev.name = "violation";
        ev.label = permName(beat.requiredPerm());
        trace::emit(ev);
    }

    if (beat.last) {
        ev.phase = trace::Phase::SpanEnd;
        ev.name = "check";
        ev.id = checkSpanId(beat);
        ev.label = verdict;
        trace::emit(ev);
    }
}

void
CheckerNode::park(Park kind, Sid sid, Cycle now, std::uint64_t gen)
{
    park_ = kind;
    parked_sid_ = sid;
    parked_at_ = now;
    parked_gen_ = gen;
    unit_->parkUntilStallChange(this);
}

void
CheckerNode::creditBlockStalls(std::uint64_t polls)
{
    stats_.scalar(st_block_stalls_, "block_stalls") +=
        static_cast<double>(polls);
    unit_->creditBlockedPolls(polls);
}

bool
CheckerNode::stayParked(const bus::Beat &head, Cycle now)
{
    // Every cycle slept through would have polled the same stall. A
    // SID-miss stall counts nothing per poll; a block stall counts one
    // check, one blocked stall and one block_stalls each (its CAM use
    // bit needs no replay: only a reported sweep clears it).
    if (park_ == Park::Block && now > parked_at_ + 1)
        creditBlockStalls(now - parked_at_ - 1);
    if (unit_->stallGeneration() != parked_gen_) {
        park_ = Park::None; // the wake list already dropped us
        return false;
    }
    // Evaluated while nothing the stall reads changed (another wake
    // source, or the naive loop): this cycle's poll is one more stall.
    checkStillStalled(head);
    if (park_ == Park::Block)
        creditBlockStalls(1);
    parked_at_ = now;
    return true;
}

void
CheckerNode::checkStillStalled(const bus::Beat &head) const
{
    const std::optional<Sid> sid = unit_->resolveSid(head.device);
    if (park_ == Park::Miss) {
        SIOPMP_ASSERT(!sid && unit_->configEpoch() == pending_miss_epoch_,
                      "missed wake: parked SID-missing beat resolved");
        return;
    }
    const bool hot = sid && *sid < unit_->cam().numRows();
    SIOPMP_ASSERT(sid && *sid == parked_sid_ &&
                      unit_->blockBitmap().blocked(*sid) &&
                      (!hot || unit_->cam().useBit(*sid)),
                  "missed wake: parked block stall no longer holds");
}

void
CheckerNode::dispatchRequests(Cycle now)
{
    if (!req_pipe_.ready(now))
        return;
    bus::Beat beat = req_pipe_.front();
    if (park_ != Park::None && stayParked(beat, now))
        return;

    // Finish draining a diverted write burst to the error node.
    if (diverting_txn_ && *diverting_txn_ == beat.txn &&
        bus::isWrite(beat.opcode)) {
        if (!err_->a.canPush())
            return;
        err_->a.push(beat);
        req_pipe_.pop();
        if (beat.last)
            diverting_txn_.reset();
        if (block_window_start_ || trace::on())
            traceResolved(beat, now, "deny-drain", -1);
        return;
    }

    const Addr len = beat.opcode == bus::Opcode::Get
                         ? static_cast<Addr>(beat.num_beats) *
                               bus::kBeatBytes
                         : bus::kBeatBytes;
    const Perm perm = beat.requiredPerm();
    // The stall state this poll reads. A park records it from before
    // authorize(): an interrupt handler that mounts the device inside
    // the raise must leave the node awake to see the mount.
    const std::uint64_t gen = unit_->stallGeneration();

    // SID-missing handling: while the monitor mounts the device, poll
    // without re-raising the interrupt.
    if (pending_miss_ && *pending_miss_ == beat.device) {
        if (unit_->resolveSid(beat.device)) {
            pending_miss_.reset();
        } else if (unit_->configEpoch() != pending_miss_epoch_) {
            // The monitor did reconfigure since our raise, yet our SID
            // is still unresolved: a concurrent miss's mount took the
            // eSID slot (its interrupt drained in the same batch as
            // ours). Clear the edge trigger and fall through to
            // authorize again, re-raising SidMiss — otherwise two cold
            // devices trading the slot stall each other forever.
            pending_miss_.reset();
            ++stats_.scalar(st_sid_miss_rearms_, "sid_miss_rearms");
        } else {
            park(Park::Miss, kNoSid, now, gen);
            return; // still cold and unmounted; stall
        }
    }

    const AuthResult auth =
        unit_->authorize(beat.device, beat.addr, len, perm, now);

    switch (auth.status) {
      case AuthStatus::SidMiss:
        pending_miss_ = beat.device;
        pending_miss_epoch_ = unit_->configEpoch();
        ++stats_.scalar(st_sid_miss_stalls_, "sid_miss_stalls");
        if (trace::on()) {
            trace::Event ev;
            ev.when = now;
            ev.track = name().c_str();
            ev.category = "checker";
            ev.name = "sid_miss";
            ev.device = beat.device;
            ev.addr = beat.addr;
            trace::emit(ev);
        }
        park(Park::Miss, kNoSid, now, gen);
        return; // stall until mounted

      case AuthStatus::Blocked:
        ++stats_.scalar(st_block_stalls_, "block_stalls");
        // Edge: open the §4.1 blocking window on the first stalled
        // cycle; traceResolved() closes it when the head resolves.
        if (!block_window_start_) {
            block_window_start_ = now;
            if (trace::on()) {
                trace::Event ev;
                ev.when = now;
                ev.phase = trace::Phase::SpanBegin;
                ev.track = name().c_str();
                ev.category = "checker";
                ev.name = "block_window";
                ev.id = beat.device + 1;
                ev.device = beat.device;
                ev.addr = beat.addr;
                trace::emit(ev);
            }
        }
        park(Park::Block, auth.sid, now, gen);
        return; // per-SID block: stall (head of this device's stream)

      case AuthStatus::Deny:
        ++stats_.scalar(st_violations_, "violations");
        if (policy_ == ViolationPolicy::BusError) {
            if (!err_->a.canPush())
                return;
            err_->a.push(beat);
            req_pipe_.pop();
            if (bus::isWrite(beat.opcode) && !beat.last)
                diverting_txn_ = beat.txn;
            if (block_window_start_ || trace::on())
                traceResolved(beat, now, "deny", auth.entry);
            return;
        }
        // Packet masking: writes lose their strobe; reads are recorded
        // as violating so the response data gets cleared.
        if (bus::isWrite(beat.opcode)) {
            if (!down_->a.canPush())
                return;
            beat.strobe = 0;
            beat.masked = true;
            down_->a.push(beat);
            req_pipe_.pop();
            if (block_window_start_ || trace::on())
                traceResolved(beat, now, "deny", auth.entry);
            return;
        }
        if (!down_->a.canPush())
            return;
        sid2addr_.record(beat.route, beat.txn,
                         {beat.device, beat.addr, /*violated=*/true});
        down_->a.push(beat);
        req_pipe_.pop();
        if (block_window_start_ || trace::on())
            traceResolved(beat, now, "deny", auth.entry);
        return;

      case AuthStatus::Allow:
        if (!down_->a.canPush())
            return;
        if (policy_ == ViolationPolicy::PacketMasking &&
            beat.opcode == bus::Opcode::Get) {
            sid2addr_.record(beat.route, beat.txn,
                             {beat.device, beat.addr, /*violated=*/false});
        }
        down_->a.push(beat);
        ++stats_.scalar(st_forwarded_, "beats_forwarded");
        req_pipe_.pop();
        if (block_window_start_ || trace::on())
            traceResolved(beat, now, "allow", auth.entry);
        return;
    }
}

void
CheckerNode::forwardResponses(Cycle now)
{
    // Error-node responses take priority (rare, single beat).
    if (err_ && !err_->d.empty() && up_->d.canPush()) {
        const bus::Beat &beat = err_->d.front();
        if (beat.last && monitor_)
            monitor_->onResponseEnd(beat.device);
        up_->d.push(beat);
        err_->d.pop();
        return;
    }

    // Move fabric responses into the response pipe (masking delay).
    if (!down_->d.empty() && resp_pipe_.canPush()) {
        resp_pipe_.push(down_->d.front(), now);
        down_->d.pop();
    }

    if (!resp_pipe_.ready(now) || !up_->d.canPush())
        return;
    bus::Beat beat = resp_pipe_.front();
    resp_pipe_.pop();

    if (policy_ == ViolationPolicy::PacketMasking &&
        beat.opcode == bus::Opcode::AccessAckData) {
        if (auto info = sid2addr_.lookup(beat.route, beat.txn)) {
            if (info->violated) {
                beat.data = 0; // read clear
                beat.masked = true;
                ++stats_.scalar(st_read_clears_, "read_clears");
            }
            if (beat.last)
                sid2addr_.release(beat.route, beat.txn);
        }
    }

    if (beat.last && monitor_)
        monitor_->onResponseEnd(beat.device);
    up_->d.push(beat);
}

void
CheckerNode::evaluate(Cycle now)
{
    acceptRequests(now);
    dispatchRequests(now);
    forwardResponses(now);
}

void
CheckerNode::advance(Cycle)
{
    up_->a.clock();
    down_->d.clock();
    if (err_)
        err_->d.clock();
}

} // namespace iopmp
} // namespace siopmp
