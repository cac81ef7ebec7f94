/**
 * @file
 * SoC assembly: builds the full simulated system of Fig 6 — DMA
 * master ports, per-device (or centralized) sIOPMP checker nodes with
 * their error nodes, the front-bus crossbar, the memory controller,
 * the periphery MMIO bus with the sIOPMP register window, and the
 * block-state bus monitor.
 *
 * The two supported topologies mirror Table 2's "Location" knob:
 *
 *  per-device:   master -> checker -> xbar -> memory
 *  centralized:  master -> xbar -> checker -> memory
 */

#ifndef SOC_SOC_HH
#define SOC_SOC_HH

#include <memory>
#include <vector>

#include "bus/error_node.hh"
#include "bus/link.hh"
#include "bus/monitor.hh"
#include "bus/xbar.hh"
#include "iopmp/checker_node.hh"
#include "iopmp/siopmp.hh"
#include "mem/memmap.hh"
#include "mem/memory.hh"
#include "mem/mmio.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"

namespace siopmp {
namespace soc {

/** MMIO base of the sIOPMP register window on the periphery bus. */
inline constexpr Addr kIopmpMmioBase = 0x1000'0000;

/**
 * Runtime-swappable checker configuration: microarchitecture, pipeline
 * depth and violation policy as one unit, validated together by
 * Soc::reconfigure (e.g. multi-stage pipelines require a pipelined
 * checker kind).
 */
struct CheckerConfig {
    iopmp::CheckerKind kind = iopmp::CheckerKind::PipelineTree;
    unsigned stages = 1;
    iopmp::ViolationPolicy policy = iopmp::ViolationPolicy::BusError;
};

struct SocConfig {
    unsigned num_masters = 1;
    iopmp::IopmpConfig iopmp;
    iopmp::CheckerKind checker_kind = iopmp::CheckerKind::PipelineTree;
    unsigned checker_stages = 1;
    iopmp::ViolationPolicy policy = iopmp::ViolationPolicy::BusError;
    mem::MemoryTiming mem_timing;
    bool centralized_checker = false;
    Cycle mmio_access_cost = 2;

    /** The checker knobs as a validatable unit. */
    CheckerConfig
    checkerConfig() const
    {
        return {checker_kind, checker_stages, policy};
    }
};

class Soc
{
  public:
    explicit Soc(const SocConfig &cfg);

    Simulator &sim() { return sim_; }
    mem::Backing &memory() { return backing_; }
    iopmp::SIopmp &iopmp() { return *iopmp_; }
    bus::BusMonitor &monitor() { return monitor_; }
    mem::MmioBus &mmio() { return mmio_; }
    mem::MemMap &memmap() { return memmap_; }
    const SocConfig &config() const { return cfg_; }

    /** Link a device plugs into for master port @p i. */
    bus::Link *masterLink(unsigned i);

    /** Register a component with the simulator. */
    void add(Tickable *component) { sim_.add(component); }

    /** Register the device plugged into master port @p port. */
    void
    addDevice(Tickable *device, unsigned port)
    {
        SIOPMP_ASSERT(port < master_links_.size(),
                      "master port out of range");
        sim_.add(device);
    }

    /**
     * Swap the checker configuration between experiments, validating
     * the combination (fatal() on an invalid one, e.g. stages > 1 with
     * a non-pipelined kind).
     */
    void reconfigure(const CheckerConfig &checker);

    /**
     * Visit the statistics groups of every component this Soc owns
     * (sIOPMP unit, checker nodes, xbar, memory controller, bus
     * monitor), in a stable order. Devices register their own groups
     * with stats::Registry::global().
     */
    void accept(stats::StatsVisitor &visitor);

  private:
    SocConfig cfg_;
    Simulator sim_;
    mem::Backing backing_;
    mem::MemMap memmap_;
    mem::MmioBus mmio_;
    bus::BusMonitor monitor_;

    std::unique_ptr<iopmp::SIopmp> iopmp_;

    // Links (stable addresses: unique_ptrs).
    std::vector<std::unique_ptr<bus::Link>> master_links_;
    std::vector<std::unique_ptr<bus::Link>> checked_links_;
    std::vector<std::unique_ptr<bus::Link>> error_links_;
    std::unique_ptr<bus::Link> mem_link_;

    std::vector<std::unique_ptr<iopmp::CheckerNode>> checkers_;
    std::vector<std::unique_ptr<bus::ErrorNode>> error_nodes_;
    std::unique_ptr<bus::Xbar> xbar_;
    std::unique_ptr<mem::MemoryNode> mem_node_;
};

} // namespace soc
} // namespace siopmp

#endif // SOC_SOC_HH
