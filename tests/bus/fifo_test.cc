/**
 * @file
 * Unit tests for the registered FIFO.
 */

#include <gtest/gtest.h>

#include "bus/fifo.hh"
#include "sim/simulator.hh"

namespace siopmp {
namespace bus {
namespace {

TEST(Fifo, PushedItemInvisibleUntilClock)
{
    Fifo<int> f(2);
    f.push(1);
    EXPECT_TRUE(f.empty());
    f.clock();
    ASSERT_FALSE(f.empty());
    EXPECT_EQ(f.front(), 1);
}

TEST(Fifo, FifoOrderPreserved)
{
    Fifo<int> f(4);
    f.push(1);
    f.push(2);
    f.clock();
    f.push(3);
    f.clock();
    EXPECT_EQ(f.front(), 1);
    f.pop();
    EXPECT_EQ(f.front(), 2);
    f.pop();
    EXPECT_EQ(f.front(), 3);
}

TEST(Fifo, CanPushRespectsCapacity)
{
    Fifo<int> f(2);
    EXPECT_TRUE(f.canPush());
    f.push(1);
    EXPECT_TRUE(f.canPush());
    f.push(2);
    EXPECT_FALSE(f.canPush());
}

TEST(Fifo, PopFreesSpaceOnlyAfterClock)
{
    // Registered-ready semantics: a pop this cycle does not let the
    // producer push beyond capacity until the next clock edge.
    Fifo<int> f(1);
    f.push(1);
    f.clock();
    EXPECT_FALSE(f.canPush());
    f.pop();
    EXPECT_FALSE(f.canPush()); // snapshot still counts the popped item
    f.clock();
    EXPECT_TRUE(f.canPush());
}

TEST(Fifo, SustainsOneItemPerCycleAtCapacityTwo)
{
    Fifo<int> f(2);
    int pushed = 0, popped = 0;
    for (int cycle = 0; cycle < 100; ++cycle) {
        // Consumer first or last — order must not matter for
        // steady-state throughput.
        if (!f.empty()) {
            f.pop();
            ++popped;
        }
        if (f.canPush()) {
            f.push(pushed);
            ++pushed;
        }
        f.clock();
    }
    EXPECT_GE(popped, 98); // full throughput minus pipeline fill
}

TEST(Fifo, OccupancyCountsReadyAndStaged)
{
    Fifo<int> f(4);
    f.push(1);
    EXPECT_EQ(f.occupancy(), 1u);
    f.clock();
    f.push(2);
    EXPECT_EQ(f.occupancy(), 2u);
}

TEST(Fifo, ResetClearsEverything)
{
    Fifo<int> f(2);
    f.push(1);
    f.clock();
    f.push(2);
    f.reset();
    EXPECT_TRUE(f.empty());
    EXPECT_EQ(f.occupancy(), 0u);
    EXPECT_TRUE(f.canPush());
}

TEST(Fifo, SettledCoversStagedAndReadableItems)
{
    Fifo<int> f(4);
    EXPECT_TRUE(f.settled());
    f.push(1);
    EXPECT_TRUE(f.empty());
    EXPECT_FALSE(f.settled()); // staged: owed to the consumer
    f.clock();
    EXPECT_FALSE(f.settled()); // readable
    f.pop();
    EXPECT_TRUE(f.settled());
}

TEST(Fifo, HasStagedSeesOnlyPushesAwaitingTheClock)
{
    Fifo<int> f(4);
    EXPECT_FALSE(f.hasStaged());
    f.push(1);
    EXPECT_TRUE(f.hasStaged());
    f.clock();
    EXPECT_FALSE(f.hasStaged()); // readable now, nothing owed
}

/** Producer stand-in: always quiescent, so only a wake makes it
 * active again after its first tick. */
class SleepyProducer : public Tickable
{
  public:
    SleepyProducer() : Tickable("producer") {}
    void evaluate(Cycle) override {}
    void advance(Cycle) override {}
    bool quiescent(Cycle) const override { return true; }
};

class FifoProducerWake : public ::testing::Test
{
  protected:
    FifoProducerWake()
    {
        sim.setFastForward(true); // retirement needs the scheduler
        sim.add(&producer);
        sim.run(2); // the producer retires: nothing wakes it yet
    }

    Simulator sim;
    SleepyProducer producer;
};

TEST_F(FifoProducerWake, ClockThatFreesAFullFifoWakesTheProducer)
{
    ASSERT_FALSE(producer.active());
    Fifo<int> f(2);
    f.bindProducerWake(&producer);
    f.push(1);
    f.push(2);
    ASSERT_FALSE(f.canPush());
    f.clock(); // both readable; still full
    EXPECT_FALSE(producer.active());
    f.pop();
    EXPECT_FALSE(producer.active()); // space frees at the clock edge
    f.clock();
    EXPECT_TRUE(f.canPush());
    EXPECT_TRUE(producer.active());
}

TEST_F(FifoProducerWake, ClockWithoutPriorBackpressureDoesNotWake)
{
    Fifo<int> f(4);
    f.bindProducerWake(&producer);
    f.push(1);
    f.clock();
    f.pop();
    f.clock(); // space grew, but the producer never saw the fifo full
    EXPECT_FALSE(producer.active());
}

TEST_F(FifoProducerWake, PushesDoNotWakeTheProducer)
{
    Fifo<int> f(2);
    f.bindProducerWake(&producer);
    f.push(1);
    EXPECT_FALSE(producer.active()); // bindWake() is the consumer's
}

TEST_F(FifoProducerWake, UnboundFifoWakesNobody)
{
    Fifo<int> f(1);
    f.bindProducerWake(&producer);
    f.bindProducerWake(nullptr);
    f.push(1);
    f.clock();
    f.pop();
    f.clock();
    EXPECT_TRUE(f.canPush());
    EXPECT_FALSE(producer.active());
}

TEST(FifoDeath, PushWhenFullAsserts)
{
    Fifo<int> f(1);
    f.push(1);
    EXPECT_DEATH(f.push(2), "full");
}

TEST(FifoDeath, PopWhenEmptyAsserts)
{
    Fifo<int> f(1);
    EXPECT_DEATH(f.pop(), "empty");
}

} // namespace
} // namespace bus
} // namespace siopmp
