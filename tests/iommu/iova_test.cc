/**
 * @file
 * Unit tests for the IOVA allocator and its contention model.
 */

#include <gtest/gtest.h>

#include "iommu/iova.hh"

namespace siopmp {
namespace iommu {
namespace {

TEST(Iova, AllocatesDistinctRanges)
{
    IovaAllocator alloc(0x10'0000, 1 << 24);
    Addr a = alloc.alloc(1, 0, 1);
    Addr b = alloc.alloc(1, 0, 1);
    EXPECT_NE(a, kNoAddr);
    EXPECT_NE(b, kNoAddr);
    EXPECT_NE(a, b);
    EXPECT_EQ(a % kPageSize, 0u);
}

TEST(Iova, FreeAndMagazineReuse)
{
    IovaAllocator alloc(0x10'0000, 1 << 24);
    Addr a = alloc.alloc(1, /*cpu=*/2, 1);
    EXPECT_TRUE(alloc.free(a, 2));
    // Same CPU reuses the magazine entry: cheap path.
    Cycle cost = 0;
    Addr b = alloc.alloc(1, 2, 1, &cost);
    EXPECT_EQ(b, a);
    IovaCosts costs;
    EXPECT_EQ(cost, costs.cached_alloc);
    EXPECT_EQ(alloc.magazineHits(), 1u);
}

TEST(Iova, TreeAllocCostsMore)
{
    IovaAllocator alloc(0x10'0000, 1 << 24);
    Cycle cost = 0;
    alloc.alloc(1, 0, 1, &cost);
    IovaCosts costs;
    EXPECT_EQ(cost, costs.tree_alloc); // no magazine yet
}

TEST(Iova, ContentionGrowsWithCores)
{
    IovaAllocator alloc(0x10'0000, 1 << 24);
    IovaCosts costs;
    Cycle c1 = 0, c4 = 0;
    alloc.alloc(1, 0, 1, &c1);
    alloc.alloc(1, 1, 4, &c4);
    EXPECT_EQ(c4 - c1, 3 * costs.contention_per_core);
}

TEST(Iova, MultiPageAllocations)
{
    IovaAllocator alloc(0x10'0000, 1 << 24);
    Addr a = alloc.alloc(8, 0, 1);
    Addr b = alloc.alloc(8, 0, 1);
    EXPECT_NE(a, kNoAddr);
    // Ranges must not overlap.
    EXPECT_GE(b > a ? b - a : a - b, 8 * kPageSize);
    EXPECT_TRUE(alloc.free(a, 0));
    // Multi-page frees go to the tree, not the magazine; they are
    // found again by best-fit.
    Addr c = alloc.alloc(8, 0, 1);
    EXPECT_EQ(c, a);
}

TEST(Iova, DoubleFreeRejected)
{
    IovaAllocator alloc(0x10'0000, 1 << 24);
    Addr a = alloc.alloc(1, 0, 1);
    EXPECT_TRUE(alloc.free(a, 0));
    EXPECT_FALSE(alloc.free(a, 0));
    EXPECT_FALSE(alloc.free(0xdead'0000, 0));
}

TEST(Iova, ExhaustionReturnsNoAddr)
{
    IovaAllocator alloc(0x10'0000, 4 * kPageSize);
    for (int i = 0; i < 4; ++i)
        EXPECT_NE(alloc.alloc(1, 0, 1), kNoAddr);
    EXPECT_EQ(alloc.alloc(1, 0, 1), kNoAddr);
}

TEST(Iova, PerCpuMagazinesIndependent)
{
    IovaAllocator alloc(0x10'0000, 1 << 24);
    Addr a = alloc.alloc(1, 0, 1);
    alloc.free(a, 0);
    // CPU 1 cannot see CPU 0's magazine: gets fresh space.
    Cycle cost = 0;
    Addr b = alloc.alloc(1, 1, 1, &cost);
    EXPECT_NE(b, a);
    IovaCosts costs;
    EXPECT_EQ(cost, costs.tree_alloc);
}

} // namespace
} // namespace iommu
} // namespace siopmp
