/**
 * @file
 * DmaEngine implementation.
 */

#include "devices/dma_engine.hh"

#include <utility>

#include "sim/logging.hh"

namespace siopmp {
namespace dev {

DmaEngine::DmaEngine(std::string name, DeviceId device, bus::Link *link)
    : DmaMaster(std::move(name), device, link)
{
}

void
DmaEngine::start(const DmaJob &job, Cycle now)
{
    SIOPMP_ASSERT(done_, "DMA job started while another is active");
    job_ = job;
    if (!job_.segments.empty()) {
        SIOPMP_ASSERT(job_.kind != DmaKind::Copy,
                      "scatter-gather copy jobs are not supported");
        job_.bytes = 0;
        for (const auto &[addr, len] : job_.segments) {
            SIOPMP_ASSERT(len > 0 &&
                              len % (job.burst_beats * bus::kBeatBytes) ==
                                  0,
                          "segment size must be a burst multiple");
            job_.bytes += len;
        }
    }
    SIOPMP_ASSERT(job_.bytes % (job.burst_beats * bus::kBeatBytes) == 0,
                  "job size must be a multiple of the burst size");
    done_ = job_.bytes == 0;
    aborted_ = false;
    started_at_ = now;
    completed_at_ = now;
    issued_bytes_ = 0;
    completed_bytes_ = 0;
    outstanding_.clear();
    write_queue_.clear();
    writing_ = false;
    write_beat_ = 0;
    wake();
}

void
DmaEngine::setDeviceId(DeviceId device)
{
    SIOPMP_ASSERT(done_ && outstanding_.empty(),
                  "device id rebound with a job in flight");
    device_ = device;
}

void
DmaEngine::abort(Cycle now)
{
    if (done_)
        return;
    aborted_ = true;
    // Truncate the stream at what has already been issued. A pure
    // write burst mid-emission is not yet counted in issued_bytes_,
    // so keep its bytes in the job: issueNext() finishes its beats.
    job_.bytes = issued_bytes_;
    if (writing_ && job_.kind != DmaKind::Copy) {
        job_.bytes += static_cast<std::uint64_t>(job_.burst_beats) *
                      bus::kBeatBytes;
    }
    // Staged copy write-outs are dropped: their reads completed, the
    // writes never start, so credit the bytes now.
    for (const auto &out : write_queue_) {
        completed_bytes_ += static_cast<std::uint64_t>(out.beats) *
                            bus::kBeatBytes;
    }
    write_queue_.clear();
    if (!writing_ && outstanding_.empty()) {
        done_ = true;
        completed_at_ = now;
    }
    wake();
}

bool
DmaEngine::quiescent(Cycle) const
{
    if (!link_->d.settled())
        return false; // responses to collect
    if (done_)
        return true;
    // Stay hot while the next issue would change state. An issue that
    // only waits on a full A channel is a no-op: sleep, and let the
    // channel's producer wake (space freed) or a D-channel push (a
    // response, which also frees outstanding slots) re-arm the engine.
    // Opening a burst allocates its txn before it looks at the channel,
    // so a burst about to open keeps the engine hot.
    const bool a_full = !link_->a.canPush();
    const bool slot = outstanding_.size() < job_.max_outstanding;
    if (issued_bytes_ < job_.bytes) {
        if (job_.kind != DmaKind::Write) {
            if (slot && !a_full)
                return false; // next read burst issues
        } else if (writing_ ? !a_full : slot) {
            return false; // next write beat issues, or a burst opens
        }
    }
    if (job_.kind == DmaKind::Copy) {
        if (writing_ ? !a_full : (slot && !write_queue_.empty()))
            return false; // next write-out beat, or a staged burst opens
    }
    return true;
}

bool
DmaEngine::done() const
{
    return done_;
}

Addr
DmaEngine::streamAddr(Addr base, std::uint64_t offset) const
{
    if (job_.segments.empty())
        return base + offset;
    for (const auto &[addr, len] : job_.segments) {
        if (offset < len)
            return addr + offset;
        offset -= len;
    }
    panic("stream offset beyond the scatter-gather list");
}

void
DmaEngine::issueNext(Cycle now)
{
    if (issued_bytes_ >= job_.bytes)
        return;
    const std::uint64_t burst_bytes =
        static_cast<std::uint64_t>(job_.burst_beats) * bus::kBeatBytes;

    if (job_.kind == DmaKind::Read || job_.kind == DmaKind::Copy) {
        if (outstanding_.size() >= job_.max_outstanding)
            return;
        const Addr addr = streamAddr(job_.src, issued_bytes_);
        if (!tryIssueGet(addr, job_.burst_beats))
            return;
        Outstanding out;
        out.kind = DmaKind::Read;
        out.addr = addr;
        out.beats = job_.burst_beats;
        out.issued_at = now;
        outstanding_.emplace(last_get_txn_, out);
        issued_bytes_ += burst_bytes;
        return;
    }

    // Pure write job: stream one burst's beats contiguously.
    if (!writing_) {
        if (outstanding_.size() >= job_.max_outstanding)
            return;
        writing_ = true;
        write_beat_ = 0;
        write_txn_ = allocTxn();
        write_addr_ = streamAddr(job_.dst, issued_bytes_);
        Outstanding out;
        out.kind = DmaKind::Write;
        out.addr = write_addr_;
        out.beats = job_.burst_beats;
        out.issued_at = now;
        outstanding_.emplace(write_txn_, out);
    }
    const std::uint64_t data =
        job_.fill_pattern + issued_bytes_ / burst_bytes + write_beat_;
    if (!tryIssuePutBeat(write_addr_, write_beat_, job_.burst_beats, data,
                         write_txn_)) {
        return;
    }
    if (++write_beat_ == job_.burst_beats) {
        writing_ = false;
        issued_bytes_ += burst_bytes;
    }
}

void
DmaEngine::issueWrites(Cycle now)
{
    // Copy jobs: write out staged read data, one burst at a time.
    if (job_.kind != DmaKind::Copy)
        return;
    if (!writing_) {
        if (write_queue_.empty())
            return;
        if (outstanding_.size() >= job_.max_outstanding)
            return;
        write_current_ = write_queue_.front();
        write_queue_.pop_front();
        writing_ = true;
        write_beat_ = 0;
        write_txn_ = allocTxn();
        write_addr_ = job_.dst + (write_current_.addr - job_.src);
        Outstanding out;
        out.kind = DmaKind::Write;
        out.addr = write_addr_;
        out.beats = write_current_.beats;
        out.issued_at = now;
        outstanding_.emplace(write_txn_, out);
    }
    const std::uint64_t data = write_beat_ < write_current_.data.size()
                                   ? write_current_.data[write_beat_]
                                   : 0;
    if (!tryIssuePutBeat(write_addr_, write_beat_, write_current_.beats,
                         data, write_txn_)) {
        return;
    }
    if (++write_beat_ == write_current_.beats)
        writing_ = false;
}

void
DmaEngine::collectResponses(Cycle now)
{
    // Consume at most one D beat per cycle (one response port).
    if (link_->d.empty())
        return;
    const bus::Beat beat = link_->d.front();
    link_->d.pop();
    accountResponse(beat);

    auto it = outstanding_.find(beat.txn);
    if (it == outstanding_.end())
        return; // stale response for a reset job
    Outstanding &out = it->second;

    const std::uint64_t burst_bytes =
        static_cast<std::uint64_t>(out.beats) * bus::kBeatBytes;

    if (beat.denied) {
        // Bus-error termination: the burst is over immediately.
        out.terminated = true;
        completed_bytes_ += burst_bytes;
        ++bursts_completed_;
        stats_.average(st_burst_latency_, "burst_latency").sample(
            static_cast<double>(now - out.issued_at));
        if (burst_observer_)
            burst_observer_(now - out.issued_at, true);
        outstanding_.erase(it);
    } else if (beat.opcode == bus::Opcode::AccessAckData) {
        out.data.push_back(beat.data);
        ++out.received;
        if (beat.last) {
            ++bursts_completed_;
            stats_.average(st_burst_latency_, "burst_latency").sample(
                static_cast<double>(now - out.issued_at));
            if (burst_observer_)
                burst_observer_(now - out.issued_at, false);
            if (job_.kind == DmaKind::Copy && !aborted_) {
                write_queue_.push_back(out);
            } else {
                // Aborted copies count the read as the burst's end:
                // the write-out never starts.
                completed_bytes_ += burst_bytes;
            }
            outstanding_.erase(it);
        }
    } else if (beat.opcode == bus::Opcode::AccessAck) {
        completed_bytes_ += burst_bytes;
        ++bursts_completed_;
        stats_.average(st_burst_latency_, "burst_latency").sample(
            static_cast<double>(now - out.issued_at));
        if (burst_observer_)
            burst_observer_(now - out.issued_at, false);
        outstanding_.erase(it);
    }

    if (jobActive() && completed_bytes_ >= job_.bytes) {
        done_ = true;
        completed_at_ = now;
    }
}

void
DmaEngine::evaluate(Cycle now)
{
    if (!done_) {
        issueNext(now);
        issueWrites(now);
    }
    collectResponses(now);
}

void
DmaEngine::advance(Cycle now)
{
    DmaMaster::advance(now);
}

} // namespace dev
} // namespace siopmp
