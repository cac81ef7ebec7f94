/**
 * @file
 * CpuNode implementation.
 */

#include "soc/cpu_node.hh"

#include <utility>

#include "sim/logging.hh"

namespace siopmp {
namespace soc {

CpuNode::CpuNode(std::string name, fw::SecureMonitor *monitor,
                 iopmp::SIopmp *unit, Simulator *sim)
    : Tickable(std::move(name)), monitor_(monitor), unit_(unit), sim_(sim)
{
    SIOPMP_ASSERT(monitor_ && unit_ && sim_, "cpu node wiring incomplete");
    monitor_->irqController().bindWake(this);
}

bool
CpuNode::quiescent(Cycle now) const
{
    // Inside a handler the CPU sleeps even with an interrupt pending:
    // evaluate() armed a timed wake for the cycle the handler retires
    // when it began the handler.
    return now + 1 < busy_until_ || !monitor_->irqController().pending();
}

void
CpuNode::evaluate(Cycle now)
{
    if (now < busy_until_)
        return; // still inside the previous handler
    if (!monitor_->irqController().pending())
        return;

    const Cycle cost = monitor_->serviceInterrupts(now);
    ++serviced_;
    busy_until_ = now + cost;
    if (busy_until_ > now + 1)
        sim_->events().scheduleWake(busy_until_, this); // see quiescent()

    // Model handler latency: the cold path stays blocked until the
    // handler retires. Hot SIDs are untouched (per-SID blocking).
    const Sid cold = unit_->coldSid();
    if (!unit_->blockBitmap().blocked(cold)) {
        unit_->blockBitmap().block(cold);
        sim_->events().schedule(busy_until_, [this, cold] {
            unit_->blockBitmap().unblock(cold);
        });
    }
}

void
CpuNode::advance(Cycle)
{
}

} // namespace soc
} // namespace siopmp
