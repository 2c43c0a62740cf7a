#include "db/bufferpool.hh"

namespace tstream
{

BufferPool::PageTable::PageTable(unsigned frames)
{
    std::size_t n = 2;
    shift_ = 63;
    while (n < std::size_t{frames} * 2) {
        n *= 2;
        --shift_;
    }
    slots_.assign(n, Slot{});
    mask_ = n - 1;
}

void
BufferPool::PageTable::put(PageId page, unsigned frame)
{
    panicIf(page == kEmpty, "BufferPool: the all-ones page id is reserved");
    std::size_t i = home(page);
    while (slots_[i].page != kEmpty)
        i = (i + 1) & mask_;
    slots_[i] = Slot{page, frame};
}

void
BufferPool::PageTable::erase(PageId page)
{
    std::size_t i = home(page);
    for (; slots_[i].page != page; i = (i + 1) & mask_)
        if (slots_[i].page == kEmpty)
            return;
    // Backward-shift deletion: pull each later entry of the probe run
    // into the hole unless the hole lies before its home slot.
    for (std::size_t j = (i + 1) & mask_; slots_[j].page != kEmpty;
         j = (j + 1) & mask_) {
        if (((j - home(slots_[j].page)) & mask_) >= ((j - i) & mask_)) {
            slots_[i] = slots_[j];
            i = j;
        }
    }
    slots_[i] = Slot{};
}

BufferPool::BufferPool(Kernel &kern, const BufferPoolConfig &cfg)
    : kern_(kern), cfg_(cfg), frames_(cfg.frames), pageMap_(cfg.frames)
{
    auto &heap = kern.kernelHeap();
    bucketBase_ = heap.alloc(cfg.buckets * kBlockSize, kBlockSize);
    frameHdrBase_ = heap.alloc(cfg.frames * kBlockSize, kBlockSize);
    // Frame data lives in the dedicated buffer-pool segment.
    frameBase_ = seg::kBufferPool;

    auto &reg = kern.engine().registry();
    fnGetPage_ = reg.intern("sqlbGetPage", Category::DbIndexPageTuple);
    fnLatch_ = reg.intern("sqlbLatchPage", Category::DbIndexPageTuple);
    fnCastout_ = reg.intern("sqlbCastOut", Category::DbIndexPageTuple);
}

bool
BufferPool::resident(PageId page) const
{
    return pageMap_.find(page) != PageTable::kNone;
}

unsigned
BufferPool::evict(SysCtx &ctx)
{
    // Clock sweep: probe frame headers until an old frame is found.
    unsigned probes = 0;
    while (true) {
        clockHand_ = (clockHand_ + 1) % cfg_.frames;
        Frame &f = frames_[clockHand_];
        ctx.read(frameHdrBase_ + clockHand_ * kBlockSize, 16,
                 fnCastout_);
        ++probes;
        if (!f.valid || f.lastUse + cfg_.frames / 2 < useTick_ ||
            probes > 8) {
            if (f.valid)
                pageMap_.erase(f.page);
            return clockHand_;
        }
    }
}

Addr
BufferPool::fixNew(SysCtx &ctx, PageId page)
{
    if (resident(page))
        return fix(ctx, page, /*dirty=*/true);
    ++useTick_;
    const Addr bucket =
        bucketBase_ +
        (page * 0x9e3779b97f4a7c15ull >> 32) % cfg_.buckets * kBlockSize;
    ctx.read(bucket, 16, fnGetPage_);
    const unsigned fi = evict(ctx);
    Frame &f = frames_[fi];
    f.page = page;
    f.valid = true;
    f.dirty = true;
    f.lastUse = useTick_;
    pageMap_.put(page, fi);
    ctx.write(bucket, 16, fnGetPage_);
    const Addr hdr = frameHdrBase_ + fi * kBlockSize;
    ctx.write(hdr, 16, fnLatch_);
    ctx.exec(40);
    return frameBase_ + Addr{fi} * kPageSize;
}

Addr
BufferPool::fix(SysCtx &ctx, PageId page, bool dirty)
{
    ++useTick_;

    // Hash bucket probe.
    const Addr bucket =
        bucketBase_ +
        (page * 0x9e3779b97f4a7c15ull >> 32) % cfg_.buckets * kBlockSize;
    ctx.read(bucket, 16, fnGetPage_);

    unsigned fi = pageMap_.find(page);
    if (fi != PageTable::kNone) {
        ++hits_;
    } else {
        ++misses_;
        fi = evict(ctx);
        Frame &f = frames_[fi];
        f.page = page;
        f.valid = true;
        f.dirty = false;
        pageMap_.put(page, fi);
        // Update the bucket chain.
        ctx.write(bucket, 16, fnGetPage_);
        // Demand page-in: DMA + copyout into the frame (streaming
        // staging buffers: database I/O does not recycle them).
        kern_.blockdev().read(ctx, frameBase_ + Addr{fi} * kPageSize,
                              static_cast<std::uint32_t>(kPageSize),
                              cfg_.recycleStaging);
    }

    Frame &f = frames_[fi];
    f.lastUse = useTick_;
    f.dirty |= dirty;

    // Latch the frame: read + conditional-store on the header block.
    const Addr hdr = frameHdrBase_ + fi * kBlockSize;
    ctx.read(hdr, 16, fnLatch_);
    if (dirty)
        ctx.write(hdr, 16, fnLatch_);
    ctx.exec(30);

    return frameBase_ + Addr{fi} * kPageSize;
}

} // namespace tstream
