/**
 * @file
 * Registered FIFO used to connect clocked components. Items pushed
 * during a cycle become visible to the consumer only after clock(),
 * which models a register stage and keeps the simulation deterministic
 * regardless of component tick order: an item pushed at cycle T is
 * poppable from cycle T + 1 on (a one-stage skid buffer). canPush()
 * reads the occupancy registered at the last clock(), so a pop does
 * not free a slot for the producer until the next cycle either.
 *
 * Wake-on-push: the consumer component may bind itself with bindWake();
 * every push() then re-arms it on the simulator's active set, which is
 * what lets a quiescent consumer sleep between transfers without ever
 * missing an incoming beat (see sim/tickable.hh).
 *
 * Wake-on-space: the producer may bind itself with bindProducerWake();
 * a clock() that frees space the producer saw as full (canPush() false
 * before it, true after it) then re-arms the producer, so it can sleep
 * through backpressure instead of polling a full channel.
 */

#ifndef BUS_FIFO_HH
#define BUS_FIFO_HH

#include <cstddef>
#include <deque>

#include "sim/logging.hh"
#include "sim/tickable.hh"

namespace siopmp {
namespace bus {

template <typename T>
class Fifo
{
  public:
    explicit Fifo(std::size_t capacity = 2) : capacity_(capacity)
    {
        SIOPMP_ASSERT(capacity >= 1, "fifo capacity must be >= 1");
    }

    Fifo(const Fifo &) = delete;
    Fifo &operator=(const Fifo &) = delete;

    std::size_t capacity() const { return capacity_; }

    /** Bind the consumer component woken by every push (may be null to
     * unbind). Survives reset(): it is wiring, not state. */
    void bindWake(Tickable *consumer) { wake_ = consumer; }

    /** Bind the producer component woken when a clock() frees space it
     * saw as full (may be null to unbind). Wiring, like bindWake(): the
     * producer must outlive every clock() of this fifo. */
    void bindProducerWake(Tickable *producer) { producer_wake_ = producer; }

    /** True iff a producer may push this cycle. */
    bool
    canPush() const
    {
        return snapshot_ + staged_.size() < capacity_;
    }

    /** Enqueue an item; visible to the consumer after the next clock(). */
    void
    push(const T &item)
    {
        SIOPMP_ASSERT(canPush(), "push on full fifo");
        staged_.push_back(item);
        if (wake_ != nullptr)
            wake_->wake();
    }

    /** True iff the consumer can pop this cycle. */
    bool empty() const { return ready_.empty(); }

    /**
     * True iff nothing is readable now or staged for the next clock().
     * Consumers use this in quiescent(): a staged item is work owed to
     * them even though empty() does not see it yet.
     */
    bool settled() const { return ready_.empty() && staged_.empty(); }

    /** True iff a push is staged for the next clock(): a consumer that
     * sleeps with readable items still owes that clock. */
    bool hasStaged() const { return !staged_.empty(); }

    /** Item at the head (consumer-visible). */
    const T &
    front() const
    {
        SIOPMP_ASSERT(!ready_.empty(), "front on empty fifo");
        return ready_.front();
    }

    /** Remove the head item. */
    void
    pop()
    {
        SIOPMP_ASSERT(!ready_.empty(), "pop on empty fifo");
        ready_.pop_front();
    }

    /** Advance the register stage; call once per cycle (by consumer). */
    void
    clock()
    {
        const bool was_full = !canPush();
        while (!staged_.empty()) {
            ready_.push_back(staged_.front());
            staged_.pop_front();
        }
        snapshot_ = ready_.size();
        if (was_full && producer_wake_ != nullptr && canPush())
            producer_wake_->wake();
    }

    /** Total items in flight (readable + staged). */
    std::size_t occupancy() const { return ready_.size() + staged_.size(); }

    /** Drop everything (used on reset between experiments). */
    void
    reset()
    {
        ready_.clear();
        staged_.clear();
        snapshot_ = 0;
    }

  private:
    std::size_t capacity_;
    Tickable *wake_ = nullptr;
    Tickable *producer_wake_ = nullptr;
    std::deque<T> ready_;      //!< consumer-readable
    std::deque<T> staged_;     //!< producer-side register stage
    std::size_t snapshot_ = 0; //!< occupancy registered at last clock()
};

} // namespace bus
} // namespace siopmp

#endif // BUS_FIFO_HH
