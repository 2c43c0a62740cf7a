#include "util/work_pool.hh"

#include "obs/telemetry.hh"

namespace tstream
{

unsigned
WorkPool::defaultJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

WorkPool::WorkPool(unsigned jobs)
{
    if (jobs == 0)
        jobs = defaultJobs();
    queues_.reserve(jobs);
    for (unsigned i = 0; i < jobs; ++i)
        queues_.push_back(std::make_unique<Queue>());
    workers_.reserve(jobs);
    for (unsigned i = 0; i < jobs; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

WorkPool::~WorkPool()
{
    {
        std::lock_guard<std::mutex> lk(m_);
        stop_ = true;
    }
    cvWork_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
WorkPool::submit(std::function<void()> task)
{
    const std::size_t idx =
        nextQueue_.fetch_add(1, std::memory_order_relaxed) %
        queues_.size();
    {
        std::lock_guard<std::mutex> lk(queues_[idx]->m);
        queues_[idx]->tasks.push_back(std::move(task));
    }
    {
        std::lock_guard<std::mutex> lk(m_);
        ++queued_;
        ++pending_;
        telemetry::count("pool.submitted");
        telemetry::gaugeSet("pool.queue_depth",
                            static_cast<std::int64_t>(queued_));
    }
    cvWork_.notify_one();
}

void
WorkPool::wait()
{
    std::unique_lock<std::mutex> lk(m_);
    cvDone_.wait(lk, [this] { return pending_ == 0; });
}

bool
WorkPool::pop(Queue &q, bool back, std::function<void()> &out)
{
    {
        std::lock_guard<std::mutex> lk(q.m);
        if (q.tasks.empty())
            return false;
        if (back) {
            out = std::move(q.tasks.back());
            q.tasks.pop_back();
        } else {
            out = std::move(q.tasks.front());
            q.tasks.pop_front();
        }
    }
    std::lock_guard<std::mutex> lk(m_);
    --queued_;
    telemetry::gaugeSet("pool.queue_depth",
                        static_cast<std::int64_t>(queued_));
    return true;
}

bool
WorkPool::take(unsigned self, std::function<void()> &out)
{
    // Own queue first (LIFO for locality) ...
    if (pop(*queues_[self], /*back=*/true, out))
        return true;
    // ... then steal the oldest task from a neighbour.
    for (std::size_t i = 1; i < queues_.size(); ++i) {
        const std::size_t victim = (self + i) % queues_.size();
        if (pop(*queues_[victim], /*back=*/false, out)) {
            telemetry::count("pool.steals");
            return true;
        }
    }
    return false;
}

void
WorkPool::workerLoop(unsigned self)
{
    for (;;) {
        std::function<void()> task;
        if (take(self, task)) {
            task();
            std::lock_guard<std::mutex> lk(m_);
            if (--pending_ == 0)
                cvDone_.notify_all();
            continue;
        }
        std::unique_lock<std::mutex> lk(m_);
        cvWork_.wait(lk, [this] { return stop_ || queued_ > 0; });
        if (stop_ && queued_ == 0)
            return;
    }
}

} // namespace tstream
