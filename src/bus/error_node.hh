/**
 * @file
 * Dummy error node for the bus-error violation mechanism (§5.2). When
 * the checker detects an IOPMP violation it diverts the offending burst
 * here; the node consumes remaining request beats and emits a single
 * denied response one cycle later, terminating the burst early.
 */

#ifndef BUS_ERROR_NODE_HH
#define BUS_ERROR_NODE_HH

#include <deque>

#include "bus/link.hh"
#include "sim/stats.hh"
#include "sim/tickable.hh"

namespace siopmp {
namespace bus {

class ErrorNode : public Tickable
{
  public:
    /** @param up link whose A side feeds violating beats to this node */
    ErrorNode(std::string name, Link *up);

    void evaluate(Cycle now) override;
    void advance(Cycle now) override;
    bool quiescent(Cycle now) const override;

    std::uint64_t errorsGenerated() const { return errors_; }

  private:
    Link *up_;
    // Writes stream multiple A beats; only the last triggers the ack.
    std::uint64_t errors_ = 0;
    stats::Group stats_;
    //! Hot-path stats, resolved on first use (stats::Group::scalar).
    stats::Scalar *st_bus_errors_ = nullptr;
};

} // namespace bus
} // namespace siopmp

#endif // BUS_ERROR_NODE_HH
