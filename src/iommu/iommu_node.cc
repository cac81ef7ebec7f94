/**
 * @file
 * IommuNode implementation.
 */

#include "iommu/iommu_node.hh"

#include <utility>

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace siopmp {
namespace iommu {

IommuNode::IommuNode(std::string name, bus::Link *up, bus::Link *down,
                     Iommu *mmu)
    : Tickable(std::move(name)), up_(up), down_(down), mmu_(mmu),
      stats_(this->name())
{
    SIOPMP_ASSERT(up_ && down_ && mmu_, "iommu node wiring incomplete");
    up_->a.bindWake(this);
    down_->d.bindWake(this);
}

bool
IommuNode::quiescent(Cycle) const
{
    // Table-walk stalls keep pipe_ non-empty, so the node stays hot
    // (polling) until every in-flight beat has drained downstream.
    return up_->a.settled() && pipe_.empty() && down_->d.settled();
}

void
IommuNode::acceptRequests(Cycle now)
{
    if (up_->a.empty() || pipe_.size() >= 4)
        return;
    bus::Beat beat = up_->a.front();
    up_->a.pop();

    // Burst-wide fault propagation for writes.
    if (faulting_txn_ && *faulting_txn_ == beat.txn &&
        bus::isWrite(beat.opcode)) {
        pipe_.push_back(Pending{beat, now, /*fault=*/true});
        if (beat.last)
            faulting_txn_.reset();
        return;
    }

    Cycle walk_cost = 0;
    const Addr iova = beat.addr;
    auto translation =
        mmu_->translate(beat.addr, beat.requiredPerm(), now, &walk_cost);
    if (walk_cost == 0)
        ++stats_.scalar(st_iotlb_hits_, "iotlb_hits");
    else
        ++stats_.scalar(st_table_walks_, "table_walks");

    if (trace::on()) {
        trace::Event ev;
        ev.when = now;
        ev.track = name().c_str();
        ev.category = "iommu";
        ev.name = "translate";
        ev.device = beat.device;
        ev.addr = iova;
        ev.arg0 = walk_cost;
        ev.arg1 = translation ? translation->paddr : 0;
        ev.label = !translation.has_value() ? "fault"
                   : walk_cost > 0          ? "walk"
                                            : "hit";
        trace::emit(ev);
    }

    Pending pending;
    pending.ready_at = now + walk_cost;
    pending.fault = !translation.has_value();
    if (translation) {
        beat.addr = translation->paddr | (beat.addr & (kPageSize - 1));
    } else {
        ++stats_.scalar(st_faults_, "faults");
        if (bus::isWrite(beat.opcode) && !beat.last)
            faulting_txn_ = beat.txn;
    }
    pending.beat = beat;
    pipe_.push_back(pending);
}

void
IommuNode::dispatch(Cycle now)
{
    if (pipe_.empty() || pipe_.front().ready_at > now)
        return;
    const Pending &pending = pipe_.front();

    if (pending.fault) {
        // Respond with a bus error once per burst (on the last beat of
        // writes, immediately for reads).
        if (pending.beat.last) {
            if (!up_->d.canPush())
                return;
            up_->d.push(bus::makeDenied(pending.beat));
        }
        pipe_.pop_front();
        return;
    }

    if (!down_->a.canPush())
        return;
    down_->a.push(pending.beat);
    ++stats_.scalar(st_beats_translated_, "beats_translated");
    pipe_.pop_front();
}

void
IommuNode::forwardResponses()
{
    if (down_->d.empty() || !up_->d.canPush())
        return;
    up_->d.push(down_->d.front());
    down_->d.pop();
}

void
IommuNode::evaluate(Cycle now)
{
    acceptRequests(now);
    dispatch(now);
    forwardResponses();
}

void
IommuNode::advance(Cycle)
{
    up_->a.clock();
    down_->d.clock();
}

} // namespace iommu
} // namespace siopmp
