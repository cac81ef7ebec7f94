/**
 * @file
 * Per-layer observation for traced passes: an in-memory trace sink that
 * pairs the program's own span events (bus transactions, checker-node
 * checks and blocking windows, memory service) into cycle durations
 * and keeps the checked request stream for replay, plus a reader that
 * folds the stats::Registry groups of a finished pass into per-layer
 * counters.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/trace.hh"

namespace perfbench {

/** One request that entered a checker node (replayed through check()). */
struct CheckedRequest {
    siopmp::DeviceId device = 0;
    siopmp::Addr addr = 0;
    unsigned beats = 0;
    bool write = false;
};

class LayerSink : public siopmp::trace::Sink
{
  public:
    void record(const siopmp::trace::Event &event) override;

    /** Closed-span durations in simulated cycles. */
    const std::vector<double> &txnCycles() const { return txn_cycles_; }
    const std::vector<double> &checkCycles() const { return check_cycles_; }
    const std::vector<double> &blockWindowCycles() const
    {
        return block_window_cycles_;
    }
    const std::vector<double> &memReadCycles() const { return mem_read_; }
    const std::vector<double> &memWriteCycles() const { return mem_write_; }

    const std::vector<CheckedRequest> &requests() const { return requests_; }

  private:
    using SpanKey = std::pair<const char *, std::uint64_t>;

    void closeSpan(std::map<SpanKey, siopmp::Cycle> &open,
                   const siopmp::trace::Event &event,
                   std::vector<double> &out);

    std::map<SpanKey, siopmp::Cycle> open_txn_, open_check_, open_block_,
        open_read_, open_write_;
    std::vector<double> txn_cycles_, check_cycles_, block_window_cycles_,
        mem_read_, mem_write_;
    std::vector<CheckedRequest> requests_;
};

/**
 * Registry totals of a finished pass, by layer: sums of the scalar
 * stats of every live and retained group, keyed "<layer>.<stat>" with
 * layer one of xbar, checker (checker nodes), accel (all check
 * accelerators), accel_node (the checker nodes' replicas), siopmp,
 * monitor, memory, iommu; plus "monitor.cold_switch_p50" / "_p99".
 */
std::map<std::string, double> registryTotals();

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
