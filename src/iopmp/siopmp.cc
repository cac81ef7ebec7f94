/**
 * @file
 * SIopmp implementation.
 */

#include "iopmp/siopmp.hh"

#include <algorithm>

#include "iopmp/accel.hh"
#include "sim/logging.hh"

namespace siopmp {
namespace iopmp {

namespace {

/** Reject unusable sizings before any member is constructed (cfg_ is
 * the first member, so this runs ahead of the CAM/table ctors and
 * their opaque internal asserts). */
IopmpConfig
validated(IopmpConfig cfg)
{
    if (const char *error = cfg.validate()) {
        fatal("invalid IopmpConfig{entries=%u, sids=%u, mds=%u}: %s",
              cfg.num_entries, cfg.num_sids, cfg.num_mds, error);
    }
    return cfg;
}

} // namespace

SIopmp::SIopmp(IopmpConfig cfg, CheckerKind kind, unsigned stages)
    : cfg_(validated(cfg)),
      entries_(cfg.num_entries),
      src2md_(cfg.num_sids, cfg.num_mds),
      mdcfg_(cfg.num_mds, cfg.num_entries),
      cam_(cfg.num_sids - 1), // hot SIDs 0 .. num_sids-2; last is cold
      blocks_(cfg.num_sids),
      checker_(makeChecker(kind, stages, entries_, mdcfg_)),
      stats_("siopmp")
{
    // The checker arrives from makeChecker already in the process-wide
    // default acceleration mode (CheckAccel::defaultMode) — the single
    // construction path applies the single documented default.
    st_checks_ = &stats_.scalar("checks");
    st_sid_misses_ = &stats_.scalar("sid_misses");
    st_blocked_ = &stats_.scalar("blocked_stalls");
    st_allows_ = &stats_.scalar("allows");
    st_denies_ = &stats_.scalar("denies");
    st_write_rejects_ = &stats_.scalar("mmio_write_rejects");
    // Monitor, CPU and workload code mutate the CAM and block bits
    // directly (cam(), blockBitmap()), not only over MMIO.
    cam_.setChangeHook([this] { stallStateChanged(); });
    blocks_.setChangeHook([this] { stallStateChanged(); });
}

void
SIopmp::setChecker(CheckerKind kind, unsigned stages)
{
    const AccelMode mode = checker_->accelMode();
    checker_ = makeChecker(kind, stages, entries_, mdcfg_);
    checker_->setAccelMode(mode);
    // A new pipeline depth resizes the nodes' request pipes: a parked
    // node waiting on pipe space must look again.
    stallStateChanged();
}

void
SIopmp::stallStateChanged()
{
    ++stall_gen_;
    for (Tickable *node : parked_)
        node->wake();
    parked_.clear();
}

void
SIopmp::unpark(Tickable *node)
{
    parked_.erase(std::remove(parked_.begin(), parked_.end(), node),
                  parked_.end());
}

void
SIopmp::creditBlockedPolls(std::uint64_t polls)
{
    const double n = static_cast<double>(polls);
    *st_checks_ += n;
    *st_blocked_ += n;
}

void
SIopmp::setAccelMode(AccelMode mode)
{
    checker_->setAccelMode(mode);
}

std::optional<Sid>
SIopmp::resolveSid(DeviceId device) const
{
    if (auto sid = cam_.peek(device))
        return sid;
    if (esid_ && *esid_ == device)
        return coldSid();
    return std::nullopt;
}

void
SIopmp::raise(const Irq &irq)
{
    if (irq_)
        irq_(irq);
}

void
SIopmp::rejectWrite(Addr offset)
{
    ++write_rejects_;
    ++*st_write_rejects_;
    warn("siopmp: MMIO write to offset %#llx rejected (lock/validity)",
         static_cast<unsigned long long>(offset));
}

AuthResult
SIopmp::authorize(DeviceId device, Addr addr, Addr len, Perm perm,
                  Cycle now)
{
    ++*st_checks_;

    // Stage 1: device -> SID via the CAM (touches the use bit), then
    // the eSID register for the mounted cold device.
    Sid sid = kNoSid;
    if (const std::optional<Sid> hot = cam_.lookup(device)) {
        sid = *hot;
    } else if (esid_ && *esid_ == device) {
        sid = coldSid();
    } else {
        ++*st_sid_misses_;
        raise(Irq{IrqKind::SidMissing, device, addr, perm});
        return {AuthStatus::SidMiss, kNoSid, -1};
    }

    // Stage 2: per-SID block bit (atomic-modification primitive).
    if (blocks_.blocked(sid)) {
        ++*st_blocked_;
        return {AuthStatus::Blocked, sid, -1};
    }

    // Stage 3: permission check over the SID's memory domains.
    CheckRequest req;
    req.addr = addr;
    req.len = len;
    req.perm = perm;
    req.md_bitmap = src2md_.bitmap(sid);
    req.now = now;
    const CheckResult result = checker_->check(req);

    if (result.allowed) {
        ++*st_allows_;
        return {AuthStatus::Allow, sid, result.entry};
    }

    ++*st_denies_;
    if (!violation_)
        violation_ = ViolationRecord{addr, device, perm, now};
    raise(Irq{IrqKind::Violation, device, addr, perm});
    return {AuthStatus::Deny, sid, result.entry};
}

std::optional<ViolationRecord>
SIopmp::violationRecord() const
{
    return violation_;
}

std::uint64_t
SIopmp::mmioRead(Addr offset)
{
    using namespace regmap;

    if (offset >= kSrc2MdBase && offset < kSrc2MdBase + cfg_.num_sids * 8) {
        const Sid sid = static_cast<Sid>((offset - kSrc2MdBase) / 8);
        return src2md_.bitmap(sid) |
               (src2md_.locked(sid) ? (std::uint64_t{1} << 63) : 0);
    }
    if (offset >= kMdCfgBase && offset < kMdCfgBase + cfg_.num_mds * 8) {
        const MdIndex md = static_cast<MdIndex>((offset - kMdCfgBase) / 8);
        return mdcfg_.top(md);
    }
    if (offset >= kBlockBitmap &&
        offset < kBlockBitmap + blocks_.numWords() * 8) {
        return blocks_.word(static_cast<unsigned>((offset - kBlockBitmap) /
                                                  8));
    }
    if (offset == kWriteRejects)
        return write_rejects_;
    if (offset == kEsid) {
        return esid_ ? ((std::uint64_t{1} << 63) | *esid_) : 0;
    }
    if (offset == kErrAddr)
        return violation_ ? violation_->addr : 0;
    if (offset == kErrDevice)
        return violation_ ? violation_->device : 0;
    if (offset == kErrInfo) {
        if (!violation_)
            return 0;
        return (std::uint64_t{1} << 63) |
               static_cast<std::uint64_t>(violation_->attempted);
    }
    if (offset >= kCamBase && offset < kCamBase + cam_.numRows() * 8) {
        const Sid sid = static_cast<Sid>((offset - kCamBase) / 8);
        auto device = cam_.deviceAt(sid);
        return device ? ((std::uint64_t{1} << 63) | *device) : 0;
    }
    if (offset >= kEntryBase &&
        offset < kEntryBase + cfg_.num_entries * kEntryStride) {
        const unsigned idx =
            static_cast<unsigned>((offset - kEntryBase) / kEntryStride);
        const unsigned word =
            static_cast<unsigned>((offset - kEntryBase) % kEntryStride) / 8;
        const Entry &entry = entries_.get(idx);
        switch (word) {
          case 0: return entry.base();
          case 1: return entry.size();
          case 2:
            return static_cast<std::uint64_t>(entry.perm()) |
                   (static_cast<std::uint64_t>(entry.mode()) << 2) |
                   (entry.locked() ? (std::uint64_t{1} << 7) : 0);
          default: return 0;
        }
    }
    warn("siopmp: MMIO read of unmapped offset %#llx",
         static_cast<unsigned long long>(offset));
    return 0;
}

void
SIopmp::mmioWrite(Addr offset, std::uint64_t value)
{
    using namespace regmap;

    if (offset >= kSrc2MdBase && offset < kSrc2MdBase + cfg_.num_sids * 8) {
        const Sid sid = static_cast<Sid>((offset - kSrc2MdBase) / 8);
        const bool lock = (value >> 63) & 1;
        if (src2md_.setBitmap(sid, value & ~(std::uint64_t{1} << 63))) {
            // The lock bit takes effect only when the bitmap landed:
            // a rejected write must not freeze state it never set.
            if (lock)
                src2md_.lock(sid);
            bumpEpoch();
        } else {
            rejectWrite(offset);
        }
        return;
    }
    if (offset >= kMdCfgBase && offset < kMdCfgBase + cfg_.num_mds * 8) {
        const MdIndex md = static_cast<MdIndex>((offset - kMdCfgBase) / 8);
        if (mdcfg_.setTop(md, static_cast<unsigned>(value)))
            bumpEpoch();
        else
            rejectWrite(offset);
        return;
    }
    if (offset >= kBlockBitmap &&
        offset < kBlockBitmap + blocks_.numWords() * 8) {
        blocks_.setWord(static_cast<unsigned>((offset - kBlockBitmap) / 8),
                        value);
        bumpEpoch();
        return;
    }
    if (offset == kWriteRejects) {
        write_rejects_ = 0;
        return;
    }
    if (offset == kEsid) {
        if ((value >> 63) & 1)
            esid_ = value & ~(std::uint64_t{1} << 63);
        else
            esid_.reset();
        bumpEpoch();
        return;
    }
    if (offset == kErrInfo) {
        // Writing clears the latched record (interrupt acknowledge).
        violation_.reset();
        return;
    }
    if (offset >= kCamBase && offset < kCamBase + cam_.numRows() * 8) {
        const Sid sid = static_cast<Sid>((offset - kCamBase) / 8);
        if ((value >> 63) & 1)
            cam_.set(sid, value & ~(std::uint64_t{1} << 63));
        else
            cam_.invalidateSid(sid);
        bumpEpoch();
        return;
    }
    if (offset >= kEntryBase &&
        offset < kEntryBase + cfg_.num_entries * kEntryStride) {
        const unsigned idx =
            static_cast<unsigned>((offset - kEntryBase) / kEntryStride);
        const unsigned word =
            static_cast<unsigned>((offset - kEntryBase) % kEntryStride) / 8;
        switch (word) {
          case 0:
            entry_stage_[idx].base = value;
            return;
          case 1:
            entry_stage_[idx].size = value;
            return;
          case 2: {
            // cfg write commits the staged entry atomically.
            const auto perm = static_cast<Perm>(value & 0x3);
            const unsigned mode_bits = (value >> 2) & 0x3;
            const bool lock = (value >> 7) & 1;
            const EntryStage stage = entry_stage_[idx];
            Entry entry = Entry::off();
            if (mode_bits == kModeRange && stage.size > 0) {
                entry = Entry::range(stage.base, stage.size, perm);
            } else if (mode_bits == kModeNapot) {
                // An invalid NAPOT encoding (size not a power of two
                // >= 8, or misaligned base) leaves the entry disabled
                // — hardware ignores malformed encodings rather than
                // trapping.
                if (isPow2(stage.size) && stage.size >= 8 &&
                    (stage.base & (stage.size - 1)) == 0) {
                    entry = Entry::napot(stage.base, stage.size, perm);
                }
            } else if (mode_bits == kModeTor) {
                // PMP-heritage top-of-range encoding: the region runs
                // from the previous entry's end (0 for entry 0) up to
                // this entry's staged ADDR. Resolved to a plain range
                // at commit time, as hardware would.
                const Addr lo =
                    idx == 0 ? 0
                             : entries_.get(idx - 1).base() +
                                   entries_.get(idx - 1).size();
                if (stage.base > lo) {
                    entry = Entry::range(lo, stage.base - lo, perm);
                }
            }
            // The MMIO window is the S-mode-reachable path: it must
            // never override an entry lock, so the privilege flag is
            // explicit and false here (the monitor pins rules by
            // locking them and relies on exactly this).
            if (entries_.set(idx, entry, /*machine_mode=*/false)) {
                if (lock)
                    entries_.lock(idx);
                bumpEpoch();
            } else {
                rejectWrite(offset);
            }
            entry_stage_.erase(idx);
            return;
          }
          default:
            return;
        }
    }
    warn("siopmp: MMIO write to unmapped offset %#llx",
         static_cast<unsigned long long>(offset));
}

} // namespace iopmp
} // namespace siopmp
