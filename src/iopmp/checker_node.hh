/**
 * @file
 * CheckerNode: the bus-facing cycle model of the sIOPMP checker. Sits
 * between a DMA master (uplink) and the system fabric (downlink),
 * intercepting every A beat, authorizing it against the SIopmp state
 * and applying the configured violation policy:
 *
 *  - BusError: the offending burst is diverted to the error link where
 *    a bus::ErrorNode terminates it with an immediate denied response.
 *  - PacketMasking: illegal writes are strobe-masked and forwarded;
 *    read responses pass back through the node, which clears data for
 *    transactions the SID2Addr table marked as violating (costing one
 *    extra cycle on each path for the table access).
 *
 * Pipeline timing: a checker with S stages delays each request beat by
 * S-1 cycles (the intermediate-result registers of Fig 3a) without
 * limiting throughput — one beat still enters per cycle. The block-
 * state monitor (bus::BusMonitor) is updated at burst start/end so the
 * firmware's per-SID blocking can wait for pipeline drain.
 *
 * Stall parking (host-side only): a head beat that is SID-missing or
 * block-stalled does not re-poll every cycle. The node parks it on the
 * unit's stall wake list and sleeps until the unit's stall state
 * changes, then polls for real on the cycle a per-cycle poll would
 * first have seen the change. The polls it slept through are credited
 * in bulk to the stall counters, so every stat, trace and cycle equals
 * the polling model's.
 */

#ifndef IOPMP_CHECKER_NODE_HH
#define IOPMP_CHECKER_NODE_HH

#include <deque>
#include <optional>

#include "bus/link.hh"
#include "bus/monitor.hh"
#include "iopmp/siopmp.hh"
#include "sim/stats.hh"
#include "sim/tickable.hh"

namespace siopmp {
namespace iopmp {

class CheckerNode : public Tickable
{
  public:
    /**
     * @param up       link from the DMA master
     * @param down     link toward the xbar/memory
     * @param err      link toward the error node (BusError policy);
     *                 may be null under PacketMasking
     * @param unit     the sIOPMP functional state and checker logic;
     *                 every node checks through the unit's one checker
     * @param monitor  block-state consistency monitor (may be null)
     */
    CheckerNode(std::string name, bus::Link *up, bus::Link *down,
                bus::Link *err, SIopmp *unit, bus::BusMonitor *monitor,
                ViolationPolicy policy);
    ~CheckerNode() override;

    void evaluate(Cycle now) override;
    void advance(Cycle now) override;
    bool quiescent(Cycle now) const override;

    ViolationPolicy policy() const { return policy_; }
    void setPolicy(ViolationPolicy policy) { policy_ = policy; }

    stats::Group &statsGroup() { return stats_; }

  private:
    /** Fixed-latency pipeline register chain. */
    class DelayPipe
    {
      public:
        void
        configure(Cycle delay)
        {
            delay_ = delay;
        }

        bool
        canPush() const
        {
            return q_.size() < delay_ + 2;
        }

        void
        push(const bus::Beat &beat, Cycle now)
        {
            q_.push_back(Slot{beat, now + delay_});
        }

        bool
        ready(Cycle now) const
        {
            return !q_.empty() && q_.front().ready_at <= now;
        }

        const bus::Beat &front() const { return q_.front().beat; }
        void pop() { q_.pop_front(); }
        bool empty() const { return q_.empty(); }

      private:
        struct Slot {
            bus::Beat beat;
            Cycle ready_at;
        };
        std::deque<Slot> q_;
        Cycle delay_ = 0;
    };

    void acceptRequests(Cycle now);
    void dispatchRequests(Cycle now);
    void forwardResponses(Cycle now);

    /** What the parked head beat waits for. */
    enum class Park : std::uint8_t {
        None,
        Miss,  //!< its device to resolve, or the config epoch to move
        Block, //!< its SID's block bit (or its SID binding) to change
    };

    /** Park the head beat on the unit's wake list after a stalled
     * poll at @p now that read stall generation @p gen; @p sid is the
     * blocked SID (Park::Block). */
    void park(Park kind, Sid sid, Cycle now, std::uint64_t gen);

    /**
     * Head-beat step for a parked node at @p now: credit the polls
     * slept through and return true while the stall holds; return false
     * (unparked) once the unit's stall state changed, so the caller
     * polls for real.
     */
    bool stayParked(const bus::Beat &head, Cycle now);

    /** Re-derive the parked stall without side effects and assert it
     * still holds: a failure is a mutation that bypassed the wake list. */
    void checkStillStalled(const bus::Beat &head) const;

    /** Count @p polls block-stalled polls of the head beat. */
    void creditBlockStalls(std::uint64_t polls);

    Cycle requestDelay() const;
    Cycle responseDelay() const;

    /** Pipeline stage whose entry window decided the check (trace
     * attribution); 0 for non-pipelined checkers or no-match denials. */
    unsigned decidingStage(int entry) const;

    /** Emit the verdict instant (and span end on the last beat) for a
     * beat leaving the request pipe; closes an open blocking window
     * (window stats record even with tracing off). Call sites keep the
     * hot path call-free: `if (block_window_start_ || trace::on())`. */
    void traceResolved(const bus::Beat &beat, Cycle now,
                       const char *verdict, int entry);

    bus::Link *up_;
    bus::Link *down_;
    bus::Link *err_;
    SIopmp *unit_;
    bus::BusMonitor *monitor_;
    ViolationPolicy policy_;

    DelayPipe req_pipe_;
    DelayPipe resp_pipe_;
    Sid2AddrTable sid2addr_;

    //! Divert latch: while a denied write burst drains under BusError,
    //! its remaining beats must follow it to the error node.
    std::optional<std::uint64_t> diverting_txn_;
    //! Edge trigger for SID-missing: avoid re-raising the interrupt
    //! every cycle while the monitor services the mount.
    std::optional<DeviceId> pending_miss_;
    //! sIOPMP config epoch captured when the miss was raised. If the
    //! config changes without resolving our SID, a concurrent miss's
    //! mount evicted ours from the eSID slot — the stall must re-arm
    //! (re-authorize and re-raise) or two cold devices livelock.
    std::uint64_t pending_miss_epoch_ = 0;
    //! Open blocking window (§4.1): cycle the head-of-line beat first
    //! stalled on its SID block bit; closed when the head resolves.
    std::optional<Cycle> block_window_start_;

    //! Parked head beat: what it waits for, the SID a block park
    //! stalls on, the last cycle its stall was polled or credited, and
    //! the unit's stall generation when it parked.
    Park park_ = Park::None;
    Sid parked_sid_ = kNoSid;
    Cycle parked_at_ = 0;
    std::uint64_t parked_gen_ = 0;

    stats::Group stats_;
    //! Hot-path counters, resolved on first use (stats::Group::scalar):
    //! block_stalls alone counts every cycle a head beat waits on its
    //! SID's block bit.
    stats::Scalar *st_forwarded_ = nullptr;
    stats::Scalar *st_violations_ = nullptr;
    stats::Scalar *st_sid_miss_stalls_ = nullptr;
    stats::Scalar *st_sid_miss_rearms_ = nullptr;
    stats::Scalar *st_block_stalls_ = nullptr;
    stats::Scalar *st_read_clears_ = nullptr;
};

} // namespace iopmp
} // namespace siopmp

#endif // IOPMP_CHECKER_NODE_HH
