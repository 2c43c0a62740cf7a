/**
 * @file
 * Unit tests for the 4C's+I/O classification rules (WriterTracker),
 * exercising every row of the paper's Section 4.1 taxonomy.
 */

#include <gtest/gtest.h>

#include "mem/writer_tracker.hh"
#include "writer_tracker_wrapper.hh"

namespace tstream
{
namespace
{

TEST(WriterTracker, FirstEverReadIsCompulsory)
{
    WriterTracker t(4);
    EXPECT_EQ(t.classifyRead(1, 0), MissClass::Compulsory);
}

TEST(WriterTracker, SecondReadSameReaderIsReplacement)
{
    WriterTracker t(4);
    t.classifyRead(1, 0);
    EXPECT_EQ(t.classifyRead(1, 0), MissClass::Replacement);
}

TEST(WriterTracker, FirstReadAtOtherReaderIsReplacementNotCoherence)
{
    WriterTracker t(4);
    t.classifyRead(1, 0);
    t.recordWrite(1, 0);
    // Reader 2 never read the block: cold there, not an invalidation.
    EXPECT_EQ(t.classifyRead(1, 2), MissClass::Replacement);
}

TEST(WriterTracker, RemoteWriteSinceLastReadIsCoherence)
{
    WriterTracker t(4);
    t.classifyRead(1, 0);
    t.recordWrite(1, 3);
    EXPECT_EQ(t.classifyRead(1, 0), MissClass::Coherence);
}

TEST(WriterTracker, OwnWriteSinceLastReadIsReplacement)
{
    WriterTracker t(4);
    t.classifyRead(1, 0);
    t.recordWrite(1, 0);
    EXPECT_EQ(t.classifyRead(1, 0), MissClass::Replacement);
}

TEST(WriterTracker, DmaWriteSinceLastReadIsIoCoherence)
{
    WriterTracker t(4);
    t.classifyRead(1, 0);
    t.recordWrite(1, kWriterDma);
    EXPECT_EQ(t.classifyRead(1, 0), MissClass::IoCoherence);
}

TEST(WriterTracker, CopyoutWriteSinceLastReadIsIoCoherence)
{
    WriterTracker t(4);
    t.classifyRead(1, 0);
    t.recordWrite(1, kWriterCopyout);
    EXPECT_EQ(t.classifyRead(1, 0), MissClass::IoCoherence);
}

TEST(WriterTracker, WriteThenFirstReadIsCompulsoryForDma)
{
    // The paper's DSS profile: data arrives by DMA but its first read
    // is still Compulsory ("never previously accessed" by a CPU).
    WriterTracker t(4);
    t.recordWrite(1, kWriterDma);
    EXPECT_EQ(t.classifyRead(1, 0), MissClass::Compulsory);
}

TEST(WriterTracker, LastWriterWins)
{
    WriterTracker t(4);
    t.classifyRead(1, 0);
    t.recordWrite(1, kWriterDma);
    t.recordWrite(1, 2); // processor writes after DMA
    EXPECT_EQ(t.classifyRead(1, 0), MissClass::Coherence);
}

TEST(WriterTracker, ReadClearsPendingInvalidation)
{
    WriterTracker t(4);
    t.classifyRead(1, 0);
    t.recordWrite(1, 3);
    EXPECT_EQ(t.classifyRead(1, 0), MissClass::Coherence);
    // No further writes: the next read is a plain replacement.
    EXPECT_EQ(t.classifyRead(1, 0), MissClass::Replacement);
}

TEST(WriterTracker, ReadersAreIndependent)
{
    WriterTracker t(4);
    t.classifyRead(1, 0);
    t.classifyRead(1, 1);
    t.recordWrite(1, 0);
    EXPECT_EQ(t.classifyRead(1, 1), MissClass::Coherence);
    EXPECT_EQ(t.classifyRead(1, 0), MissClass::Replacement);
}

TEST(WriterTracker, BlocksAreIndependent)
{
    WriterTracker t(2);
    t.classifyRead(10, 0);
    t.recordWrite(11, 1);
    EXPECT_EQ(t.classifyRead(10, 0), MissClass::Replacement);
    EXPECT_EQ(t.classifyRead(11, 0), MissClass::Compulsory);
}

TEST(WriterTracker, CoherenceCausedPredicate)
{
    WriterTracker t(4);
    EXPECT_FALSE(t.coherenceCaused(5, 0)); // untouched
    t.classifyRead(5, 0);
    EXPECT_FALSE(t.coherenceCaused(5, 0)); // no writes
    t.recordWrite(5, 2);
    EXPECT_TRUE(t.coherenceCaused(5, 0));
    EXPECT_FALSE(t.coherenceCaused(5, 2)); // own write
    EXPECT_FALSE(t.coherenceCaused(5, 1)); // never read there
    // Predicate must not mutate state.
    EXPECT_TRUE(t.coherenceCaused(5, 0));
    EXPECT_EQ(t.classifyRead(5, 0), MissClass::Coherence);
}

TEST(WriterTracker, RecordTouchMakesReadNonCompulsory)
{
    WriterTracker t(2);
    t.recordTouch(7);
    EXPECT_EQ(t.classifyRead(7, 0), MissClass::Replacement);
}

TEST(WriterTracker, DistinctBlocksCount)
{
    WriterTracker t(2);
    t.classifyRead(1, 0);
    t.classifyRead(2, 0);
    t.recordWrite(3, 1);
    EXPECT_EQ(t.distinctBlocks(), 3u);
}

} // namespace
} // namespace tstream
