/**
 * @file
 * SidBlockBitmap implementation.
 */

#include "iopmp/block.hh"

#include "sim/logging.hh"

namespace siopmp {
namespace iopmp {

SidBlockBitmap::SidBlockBitmap(unsigned num_sids)
    : words_((num_sids + 63) / 64, 0), num_sids_(num_sids)
{
    SIOPMP_ASSERT(num_sids >= 1, "block bitmap needs at least one SID");
}

std::uint64_t
SidBlockBitmap::wordMask(unsigned k) const
{
    SIOPMP_ASSERT(k < words_.size(), "block bitmap word out of range");
    const unsigned sids_in_word =
        num_sids_ - k * 64 >= 64 ? 64 : num_sids_ - k * 64;
    return sids_in_word == 64 ? ~std::uint64_t{0}
                              : ((std::uint64_t{1} << sids_in_word) - 1);
}

void
SidBlockBitmap::block(Sid sid)
{
    SIOPMP_ASSERT(valid(sid), "block: SID out of range");
    words_[sid / 64] |= std::uint64_t{1} << (sid % 64);
    changed();
}

void
SidBlockBitmap::unblock(Sid sid)
{
    SIOPMP_ASSERT(valid(sid), "unblock: SID out of range");
    words_[sid / 64] &= ~(std::uint64_t{1} << (sid % 64));
    changed();
}

bool
SidBlockBitmap::blocked(Sid sid) const
{
    if (!valid(sid))
        return false;
    return (words_[sid / 64] >> (sid % 64)) & 1;
}

void
SidBlockBitmap::blockAll()
{
    for (unsigned k = 0; k < words_.size(); ++k)
        words_[k] = wordMask(k);
    changed();
}

void
SidBlockBitmap::unblockAll()
{
    for (auto &word : words_)
        word = 0;
    changed();
}

std::uint64_t
SidBlockBitmap::word(unsigned k) const
{
    SIOPMP_ASSERT(k < words_.size(), "block bitmap word out of range");
    return words_[k];
}

void
SidBlockBitmap::setWord(unsigned k, std::uint64_t bits)
{
    SIOPMP_ASSERT(k < words_.size(), "block bitmap word out of range");
    words_[k] = bits & wordMask(k);
    changed();
}

} // namespace iopmp
} // namespace siopmp
