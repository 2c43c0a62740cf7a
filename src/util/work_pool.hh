/**
 * @file
 * Bounded work-stealing thread pool for the experiment driver.
 *
 * A fixed set of workers (never more than the configured job count
 * run concurrently) each own a deque: submissions are distributed
 * round-robin, a worker pops its own deque LIFO for locality, and an
 * idle worker steals FIFO from its neighbours so one long queue
 * cannot strand work while other threads sleep. This replaces the
 * old bench harness's unbounded one-std::async-per-workload model.
 */

#ifndef TSTREAM_UTIL_WORK_POOL_HH
#define TSTREAM_UTIL_WORK_POOL_HH

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tstream
{

class WorkPool
{
  public:
    /** @param jobs Worker count; 0 means defaultJobs(). */
    explicit WorkPool(unsigned jobs = 0);

    /** Drains remaining tasks, then joins all workers. */
    ~WorkPool();

    WorkPool(const WorkPool &) = delete;
    WorkPool &operator=(const WorkPool &) = delete;

    /** Enqueue a task. Thread-safe. */
    void submit(std::function<void()> task);

    /** Block until every submitted task has finished. */
    void wait();

    unsigned
    jobs() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /** Job count when the caller does not choose one: the hardware
     *  concurrency, and always at least 1. */
    static unsigned defaultJobs();

  private:
    struct Queue
    {
        std::mutex m;
        std::deque<std::function<void()>> tasks;
    };

    void workerLoop(unsigned self);
    bool take(unsigned self, std::function<void()> &out);
    bool pop(Queue &q, bool back, std::function<void()> &out);

    std::vector<std::unique_ptr<Queue>> queues_;
    std::vector<std::thread> workers_;

    std::mutex m_;
    std::condition_variable cvWork_;
    std::condition_variable cvDone_;
    std::size_t queued_ = 0;  ///< submitted, not yet started
    std::size_t pending_ = 0; ///< submitted, not yet finished
    bool stop_ = false;
    std::atomic<std::size_t> nextQueue_{0};
};

} // namespace tstream

#endif // TSTREAM_UTIL_WORK_POOL_HH
