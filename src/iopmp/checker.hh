/**
 * @file
 * Permission checker interface shared by the baseline linear checker,
 * the tree-arbitration checker and the Multi-stage-Tree (MT) pipelined
 * checker (§4.1). All checkers implement identical *functional*
 * semantics — priority first-match over the entries of the requesting
 * SID's memory domains — and differ in microarchitecture: combinational
 * depth (clock frequency), pipeline stages (added latency) and area.
 */

#ifndef IOPMP_CHECKER_HH
#define IOPMP_CHECKER_HH

#include <cstdint>
#include <memory>

#include "iopmp/accel.hh"
#include "iopmp/tables.hh"
#include "sim/types.hh"

namespace siopmp {
namespace iopmp {

/** One access to authorize. */
struct CheckRequest {
    Addr addr = 0;
    Addr len = 0;
    Perm perm = Perm::Read;
    std::uint64_t md_bitmap = 0; //!< memory domains of the requesting SID
    //! Current cycle, used only to timestamp accelerator trace events
    //! (the verdict is independent of it). 0 when the caller has no
    //! cycle context (unit tests, fuzzing).
    Cycle now = 0;
};

/** Outcome of a permission check. */
struct CheckResult {
    bool allowed = false;
    //! Index of the deciding entry; -1 if no entry overlapped at all.
    int entry = -1;
    //! True iff the deciding entry only partially covered the request
    //! (always a denial: a DMA access must be wholly inside one rule).
    bool partial = false;
};

/** Microarchitectural flavour of a checker. */
enum class CheckerKind {
    Linear,       //!< baseline: serial priority chain, single cycle
    Tree,         //!< tree-based arbitration, single cycle
    PipelineLinear, //!< pipelined stages of linear units
    PipelineTree, //!< MT checker: pipelined stages of tree units
};

const char *checkerKindName(CheckerKind kind);

/**
 * Abstract checker. Holds references to the shared hardware tables; it
 * never copies them, so configuration changes are visible immediately
 * (the atomicity of such changes is the job of the SID block bitmap).
 */
class CheckerLogic
{
  public:
    CheckerLogic(const EntryTable &entries, const MdCfgTable &mdcfg)
        : entries_(entries), mdcfg_(mdcfg)
    {
    }

    virtual ~CheckerLogic() = default;

    CheckerLogic(const CheckerLogic &) = delete;
    CheckerLogic &operator=(const CheckerLogic &) = delete;

    /**
     * Authorize one access. Pure function of tables + request. With
     * the acceleration layer enabled the verdict comes from the
     * compiled match plan (bit-identical by construction); otherwise
     * from this checker's own microarchitectural model.
     */
    CheckResult
    check(const CheckRequest &req) const
    {
        if (accel_)
            return accel_->check(req);
        return checkUncached(req);
    }

    /** The microarchitectural model's own walk (always available;
     * the differential tests compare it against the accelerator). */
    virtual CheckResult checkUncached(const CheckRequest &req) const = 0;

    /**
     * Select the acceleration mode for this checker instance.
     * makeChecker() applies CheckAccel::defaultMode() to every
     * factory-built checker — the one construction path and the one
     * documented default. Directly-constructed checkers (raw
     * LinearChecker/TreeChecker/... ctors, used by microarchitecture
     * unit tests) stay Off until told otherwise, so the per-kind
     * reduction logic keeps getting exercised.
     */
    void
    setAccelMode(AccelMode mode)
    {
        if (mode == AccelMode::Off)
            accel_.reset();
        else if (!accel_)
            accel_ = std::make_unique<CheckAccel>(entries_, mdcfg_);
    }

    AccelMode
    accelMode() const
    {
        return accel_ ? AccelMode::Plans : AccelMode::Off;
    }

    bool accelEnabled() const { return accel_ != nullptr; }

    /** The live accelerator, or nullptr when disabled (stats/tests). */
    CheckAccel *accel() const { return accel_.get(); }

    /** Pipeline stages; 1 means fully combinational (no extra cycles). */
    virtual unsigned stages() const = 0;

    virtual CheckerKind kind() const = 0;

    /** Extra bus cycles this checker adds to a request beat. */
    Cycle extraLatency() const { return stages() - 1; }

    const EntryTable &entries() const { return entries_; }

  protected:
    /**
     * Reference semantics: priority first-match over the entry window
     * [lo, hi). The first (lowest-index) entry that overlaps the
     * request decides: full containment checks the permission, partial
     * overlap denies. No overlap leaves entry == -1 (default deny at
     * the top level).
     */
    CheckResult firstMatch(const CheckRequest &req, unsigned lo,
                           unsigned hi) const;

    /** True iff entry @p idx belongs to an MD selected by the bitmap. */
    bool
    entryEnabledFor(unsigned idx, std::uint64_t md_bitmap) const
    {
        const int md = mdcfg_.mdOfEntry(idx);
        if (md < 0)
            return false;
        return (md_bitmap >> md) & 1;
    }

    const EntryTable &entries_;
    const MdCfgTable &mdcfg_;

    //! Optional acceleration layer (compiled plans). Mutable for the
    //! same reason as TreeChecker's scratch buffers: check() is
    //! logically const but the plans are compiled lazily. Not
    //! thread-safe across concurrent checks of one instance.
    mutable std::unique_ptr<CheckAccel> accel_;
};

/** Factory covering every evaluated configuration. */
std::unique_ptr<CheckerLogic>
makeChecker(CheckerKind kind, unsigned stages, const EntryTable &entries,
            const MdCfgTable &mdcfg);

} // namespace iopmp
} // namespace siopmp

#endif // IOPMP_CHECKER_HH
