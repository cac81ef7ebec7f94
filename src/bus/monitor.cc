/**
 * @file
 * BusMonitor out-of-line pieces: blocking-window accounting.
 */

#include "bus/monitor.hh"

namespace siopmp {
namespace bus {

void
BusMonitor::recordBlockWindow(DeviceId device, Cycle cycles)
{
    ++block_windows_;
    ++stats_.scalar(st_block_windows_, "block_windows");
    // Shape chosen for pipeline-drain windows: sub-cycle granularity is
    // meaningless, and anything past 128 cycles is pathological.
    stats_.histogram(st_block_window_cycles_, "block_window_cycles", 0.0,
                     8.0, 16)
        .sample(static_cast<double>(cycles));
    stats_.average(st_block_window_mean_, "block_window_mean")
        .sample(static_cast<double>(cycles));
    (void)device;
}

} // namespace bus
} // namespace siopmp
