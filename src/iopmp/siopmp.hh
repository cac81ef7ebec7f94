/**
 * @file
 * SIopmp: the functional top of the sIOPMP extension. Owns every
 * architectural structure — entry table, SRC2MD, MDCFG, DeviceID2SID
 * CAM, eSID register, SID block bitmap, violation record — plus the
 * configured checker logic, and exposes:
 *
 *  - authorize(): the data-path decision for one DMA access, including
 *    CAM lookup, cold (eSID) matching and SID-missing detection;
 *  - an MMIO register window (mem::MmioDevice) used by the secure
 *    monitor over the periphery bus;
 *  - an interrupt callback through which SID-missing and violation
 *    interrupts reach the CPU.
 *
 * The bus-facing cycle model wrapping this object is CheckerNode.
 */

#ifndef IOPMP_SIOPMP_HH
#define IOPMP_SIOPMP_HH

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "iopmp/block.hh"
#include "iopmp/checker.hh"
#include "iopmp/remap_cam.hh"
#include "iopmp/tables.hh"
#include "iopmp/violation.hh"
#include "mem/mmio.hh"
#include "sim/stats.hh"
#include "sim/tickable.hh"
#include "sim/types.hh"

namespace siopmp {
namespace iopmp {

/** Data-path outcome for one access. */
enum class AuthStatus {
    Allow,   //!< permitted; forward to memory
    Deny,    //!< IOPMP violation; apply the violation policy
    Blocked, //!< SID block bit set; stall the request
    SidMiss, //!< unknown device; raise SID-missing interrupt
};

struct AuthResult {
    AuthStatus status = AuthStatus::Deny;
    Sid sid = kNoSid;   //!< resolved SID (valid unless SidMiss)
    int entry = -1;     //!< deciding entry index, -1 if none
};

/** Interrupts the module can raise. */
enum class IrqKind { Violation, SidMissing };

struct Irq {
    IrqKind kind;
    DeviceId device;
    Addr addr;
    Perm attempted;
};

/** MMIO register map offsets (64-bit registers). */
namespace regmap {
//! Entry CFG mode encodings (bits 3:2).
inline constexpr unsigned kModeOff = 0;
inline constexpr unsigned kModeRange = 1;
inline constexpr unsigned kModeNapot = 2;
//! PMP-heritage top-of-range: region = [previous entry's end, ADDR).
inline constexpr unsigned kModeTor = 3;

inline constexpr Addr kSrc2MdBase = 0x00000; //!< + sid * 8
inline constexpr Addr kMdCfgBase = 0x01000;  //!< + md * 8
//! Windowed block bitmap: word k at kBlockBitmap + 8*k covers SIDs
//! [64k, 64k+63]; ceil(num_sids/64) words are mapped (window reserved
//! up to kEsid, i.e. 2048 SIDs).
inline constexpr Addr kBlockBitmap = 0x02000;
inline constexpr Addr kEsid = 0x02800;       //!< valid<<63 | device id
inline constexpr Addr kErrAddr = 0x02808;
inline constexpr Addr kErrDevice = 0x02810;
inline constexpr Addr kErrInfo = 0x02818;    //!< valid<<63 | perm
//! Count of config writes rejected by lock/validity rules (read-only;
//! writing any value clears it).
inline constexpr Addr kWriteRejects = 0x02820;
inline constexpr Addr kCamBase = 0x03000;    //!< + sid * 8; valid<<63|dev
inline constexpr Addr kEntryBase = 0x10000;  //!< + idx * 32
inline constexpr Addr kEntryStride = 32;     //!< base,size,cfg,pad
inline constexpr Addr kWindowSize = 0x20000;
} // namespace regmap

class SIopmp : public mem::MmioDevice
{
  public:
    using IrqHandler = std::function<void(const Irq &)>;

    SIopmp(IopmpConfig cfg, CheckerKind kind, unsigned stages);

    //! The CAM and block-bitmap change hooks point back at this unit.
    SIopmp(const SIopmp &) = delete;
    SIopmp &operator=(const SIopmp &) = delete;

    // ---- data path -----------------------------------------------------

    /**
     * Authorize one DMA access of @p len bytes at @p addr from
     * @p device. Raises interrupts through the handler as a side
     * effect (SID-missing on unknown device, violation on deny).
     */
    AuthResult authorize(DeviceId device, Addr addr, Addr len, Perm perm,
                         Cycle now = 0);

    /** Resolve a device to a SID without side effects (tests). */
    std::optional<Sid> resolveSid(DeviceId device) const;

    // ---- stall wake list (host-side scheduling only) --------------------

    /**
     * Generation of the state a stalled beat polls: CAM rows (and the
     * use bits a clock sweep clears), block bits, and the config epoch
     * (eSID register, every MMIO config write). Bumped on each change
     * of that state, whichever path made it — the CAM and bitmap
     * report direct mutations through their change hooks.
     */
    std::uint64_t stallGeneration() const { return stall_gen_; }

    /**
     * Park @p node on the wake list: the next stall-generation bump
     * wakes it (and empties the list), so a node whose head beat is
     * SID-missing or block-stalled sleeps instead of re-polling.
     */
    void parkUntilStallChange(Tickable *node) { parked_.push_back(node); }

    /** Drop @p node from the wake list (node destroyed). */
    void unpark(Tickable *node);

    /**
     * Count @p polls block-stalled checks that a parked node slept
     * through, exactly as authorize() would have counted them
     * ("checks" and "blocked_stalls").
     */
    void creditBlockedPolls(std::uint64_t polls);

    // ---- architectural state -------------------------------------------

    EntryTable &entryTable() { return entries_; }
    const EntryTable &entryTable() const { return entries_; }
    Src2MdTable &src2md() { return src2md_; }
    MdCfgTable &mdcfg() { return mdcfg_; }
    DeviceId2SidCam &cam() { return cam_; }
    SidBlockBitmap &blockBitmap() { return blocks_; }
    const IopmpConfig &config() const { return cfg_; }

    /** The cold-device slot: SID used for the mounted cold device. */
    Sid coldSid() const { return cfg_.num_sids - 1; }

    /** Currently mounted cold device (eSID register), if any. */
    std::optional<DeviceId> mountedCold() const { return esid_; }

    /** Load the eSID register (performed by the monitor on mount). */
    void
    setMountedCold(std::optional<DeviceId> device)
    {
        esid_ = device;
        bumpEpoch();
    }

    /** Swap the checker configuration (between experiments). */
    void setChecker(CheckerKind kind, unsigned stages);
    const CheckerLogic &checker() const { return *checker_; }

    /**
     * Select the check-path acceleration mode for this instance,
     * overriding the CheckAccel::defaultMode() the checker was built
     * with. Survives setChecker(). Every CheckerNode checks through
     * this unit's checker, so the change applies from the next beat.
     */
    void setAccelMode(AccelMode mode);
    AccelMode accelMode() const { return checker_->accelMode(); }

    /**
     * Monotone configuration epoch: bumped by every MMIO path that can
     * change an authorization outcome (entry commit, SRC2MD, MDCFG,
     * CAM remap, block-bitmap word, eSID register) and by cold-device
     * mount/unmount. CheckerNode uses it to re-arm a SID-miss stall;
     * the accelerator's own staleness detection rides on the
     * EntryTable/MdCfgTable listener callbacks, which also cover
     * direct (non-MMIO) table mutations.
     */
    std::uint64_t configEpoch() const { return config_epoch_; }

    /** Latched violation record, if an unread one exists. */
    std::optional<ViolationRecord> violationRecord() const;
    void clearViolationRecord() { violation_.reset(); }

    /**
     * MMIO configuration writes rejected since the last clear: entry
     * rewrites blocked by a lock, locked/invalid SRC2MD bitmaps,
     * non-monotone MDCFG tops. Also exposed as the kWriteRejects
     * register and the "mmio_write_rejects" stat, so silently-ignored
     * programming shows up in the CLI and in --stats-json.
     */
    std::uint64_t rejectedWrites() const { return write_rejects_; }

    void setIrqHandler(IrqHandler handler) { irq_ = std::move(handler); }

    stats::Group &statsGroup() { return stats_; }

    // ---- MmioDevice ------------------------------------------------------

    std::uint64_t mmioRead(Addr offset) override;
    void mmioWrite(Addr offset, std::uint64_t value) override;

  private:
    void raise(const Irq &irq);

    /** Note one rejected MMIO config write at @p offset. */
    void rejectWrite(Addr offset);

    /** Advance the configuration epoch after a mutating config path. */
    void
    bumpEpoch()
    {
        ++config_epoch_;
        stallStateChanged();
    }

    /** Bump the stall generation and wake every parked node. */
    void stallStateChanged();

    IopmpConfig cfg_;
    EntryTable entries_;
    Src2MdTable src2md_;
    MdCfgTable mdcfg_;
    DeviceId2SidCam cam_;
    SidBlockBitmap blocks_;
    std::unique_ptr<CheckerLogic> checker_;
    std::optional<DeviceId> esid_;
    std::optional<ViolationRecord> violation_;
    IrqHandler irq_;
    stats::Group stats_;
    //! Hot-path counters, resolved once in the ctor: scalar() does a
    //! map lookup and its first call inserts — neither belongs on the
    //! per-check path.
    stats::Scalar *st_checks_;
    stats::Scalar *st_sid_misses_;
    stats::Scalar *st_blocked_;
    stats::Scalar *st_allows_;
    stats::Scalar *st_denies_;
    stats::Scalar *st_write_rejects_;
    std::uint64_t write_rejects_ = 0;
    std::uint64_t config_epoch_ = 0;
    std::uint64_t stall_gen_ = 0;
    std::vector<Tickable *> parked_; //!< woken by stallStateChanged()

    // MMIO staging for entry writes (base/size latched, cfg commits).
    struct EntryStage {
        std::uint64_t base = 0;
        std::uint64_t size = 0;
    };
    std::unordered_map<unsigned, EntryStage> entry_stage_;
};

} // namespace iopmp
} // namespace siopmp

#endif // IOPMP_SIOPMP_HH
