/**
 * @file
 * A standalone classification viewpoint for the tests: one
 * ReaderHistory (mem/writer_tracker.hh) per block in a BlockTable,
 * for up to 32 readers. The memory models embed their histories in
 * their own per-block records instead.
 */

#ifndef TSTREAM_TESTS_WRITER_TRACKER_WRAPPER_HH
#define TSTREAM_TESTS_WRITER_TRACKER_WRAPPER_HH

#include <cstdint>

#include "mem/block_table.hh"
#include "mem/writer_tracker.hh"
#include "util/logging.hh"

namespace tstream
{

/** A standalone viewpoint: per-block histories for up to 32 readers. */
class WriterTracker
{
  public:
    explicit WriterTracker(unsigned readers) ///< nodes, cores or chips
    {
        panicIf(readers == 0 || readers > 32, "WriterTracker: 1-32 readers");
    }

    void
    recordWrite(BlockId blk, int writer)
    {
        blocks_.findOrInsert(blk).recordWrite(writer);
    }

    MissClass
    classifyRead(BlockId blk, unsigned reader)
    {
        return blocks_.findOrInsert(blk).classifyRead(reader);
    }

    /** Does not update history; see ReaderHistory::coherenceCaused. */
    bool
    coherenceCaused(BlockId blk, unsigned reader) const
    {
        const auto *h = blocks_.find(blk);
        return h && h->coherenceCaused(reader);
    }

    /** Mark a block touched without classifying (e.g. store misses). */
    void
    recordTouch(BlockId blk)
    {
        blocks_.findOrInsert(blk).touched = true;
    }

    /** Number of distinct blocks ever seen. */
    std::size_t distinctBlocks() const { return blocks_.size(); }

  private:
    BlockTable<ReaderHistory<std::uint32_t>> blocks_;
};

} // namespace tstream

#endif // TSTREAM_TESTS_WRITER_TRACKER_WRAPPER_HH
