/**
 * @file
 * Sparse physical memory backing store plus the clocked bus-facing
 * memory controller node.
 *
 * The controller models a pipelined memory port: reads have a fixed
 * access latency before the first data beat and a minimum initiation
 * interval between read bursts (row activation); writes are acked a
 * fixed latency after the last data beat lands. These three parameters
 * are what shape the Fig 11 burst latencies and the Fig 12 bytes/cycle
 * ceilings.
 */

#ifndef MEM_MEMORY_HH
#define MEM_MEMORY_HH

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "bus/link.hh"
#include "sim/stats.hh"
#include "sim/tickable.hh"
#include "sim/types.hh"

namespace siopmp {
namespace mem {

/**
 * Sparse byte-addressable backing store. Pages are allocated lazily;
 * unwritten bytes read as zero.
 */
class Backing
{
  public:
    std::uint8_t read8(Addr addr) const;
    void write8(Addr addr, std::uint8_t value);

    std::uint64_t read64(Addr addr) const;
    void write64(Addr addr, std::uint64_t value, std::uint8_t strobe = 0xff);

    /** Bulk helpers used by devices and the firmware. */
    void readBlock(Addr addr, std::uint8_t *out, std::size_t len) const;
    void writeBlock(Addr addr, const std::uint8_t *in, std::size_t len);
    void fill(Addr addr, std::uint8_t value, std::size_t len);

    /** Number of lazily allocated pages (for tests). */
    std::size_t allocatedPages() const { return pages_.size(); }

  private:
    static constexpr Addr kPageShift = 12;
    static constexpr Addr kPageSize = Addr{1} << kPageShift;

    using Page = std::vector<std::uint8_t>;

    const Page *findPage(Addr addr) const;
    Page &touchPage(Addr addr);

    std::unordered_map<Addr, Page> pages_;
};

/** Timing knobs for the controller. */
struct MemoryTiming {
    Cycle read_latency = 10;  //!< request accept -> first data beat
    Cycle read_interval = 12; //!< min cycles between read burst starts
    Cycle write_latency = 3;  //!< last write beat -> ack
};

/**
 * Bus slave: accepts A beats from its uplink, performs functional
 * accesses against the Backing store and returns D beats.
 */
class MemoryNode : public Tickable
{
  public:
    MemoryNode(std::string name, bus::Link *up, Backing *backing,
               MemoryTiming timing = {});

    void evaluate(Cycle now) override;
    void advance(Cycle now) override;
    bool quiescent(Cycle now) const override;

    stats::Group &statsGroup() { return stats_; }

  private:
    /** Arm a timed wake when all pending work is in the future, so the
     * controller can quiesce through its own access latencies. */
    void armWake(Cycle now);

    struct PendingRead {
        bus::Beat req;
        Cycle first_beat_at; //!< cycle the first data beat may issue
        unsigned next_beat = 0;
    };

    struct PendingAck {
        bus::Beat last_req;
        Cycle ready_at;
    };

    void acceptRequest(Cycle now);
    void issueResponse(Cycle now);

    //! Single data port: at most one data beat (write-data accept or
    //! read-data issue) per cycle; control beats (Get, Ack) are free.
    bool data_port_used_ = false;

    bus::Link *up_;
    Backing *backing_;
    MemoryTiming timing_;

    std::deque<PendingRead> reads_;
    std::deque<PendingAck> acks_;
    Cycle next_read_start_ = 0; //!< initiation-interval gate
    stats::Group stats_;
    //! Hot-path stats, resolved on first use (stats::Group::scalar).
    stats::Scalar *st_read_bursts_ = nullptr;
    stats::Scalar *st_write_beats_ = nullptr;
    stats::Scalar *st_write_bursts_ = nullptr;
    stats::Scalar *st_read_beats_ = nullptr;
};

} // namespace mem
} // namespace siopmp

#endif // MEM_MEMORY_HH
