#ifndef FTSIM_COMMON_PARALLEL_HPP
#define FTSIM_COMMON_PARALLEL_HPP

/**
 * @file
 * Minimal fork-join parallelism for fan-out sweeps.
 *
 * `parallelFor` runs `body(i)` for i in [0, n) on up to `threads`
 * workers pulling indices from a shared atomic counter (work stealing
 * at index granularity). With `threads <= 1` (or n <= 1) it degrades to
 * a plain serial loop — callers need no separate code path. Exceptions
 * escaping `body` are captured and the first one is rethrown on the
 * calling thread after the join.
 */

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ftsim {

/**
 * CPUs this thread may run on: the count of its `sched_getaffinity`
 * mask, so a process under `taskset` or in a cpuset sees its share,
 * not the machine. Falls back to `hardware_concurrency()` (floored at
 * 1) only when the affinity call fails.
 */
unsigned hardwareThreads();

/**
 * Runs @p body over [0, n) on up to @p threads workers and joins.
 * @p body must be safe to call concurrently for distinct indices.
 * A parallelFor invoked from inside another parallelFor's body runs
 * serially (the outer loop owns the thread budget; nesting would
 * oversubscribe the machine quadratically).
 */
void parallelFor(std::size_t n, unsigned threads,
                 const std::function<void(std::size_t)>& body);

/**
 * Persistent FIFO worker pool for request-serving workloads.
 *
 * `parallelFor` is fork-join: it owns its workers for one bounded
 * sweep and then tears them down. A server instead admits an unbounded
 * stream of independent tasks, so `WorkerPool` keeps its threads alive
 * and feeds them from a mutex-guarded queue. Tasks must not throw
 * (wrap fallible work and encode failure in the task's own result
 * channel); an escaping exception terminates the process, as it would
 * from any detached thread. The destructor drains every queued task
 * before joining, so submitted work is never silently dropped.
 *
 * A pool of 0 threads is caller-runs: `submit()` runs the task on the
 * calling thread and returns when it is done. On one usable CPU extra
 * threads only take turns with the caller, so the hand-off to a worker
 * costs a wake-up and buys nothing.
 */
class WorkerPool {
  public:
    /** Starts @p threads workers; 0 starts none (caller-runs). */
    explicit WorkerPool(unsigned threads);

    /** Finishes all queued tasks, then joins the workers. */
    ~WorkerPool();

    WorkerPool(const WorkerPool&) = delete;
    WorkerPool& operator=(const WorkerPool&) = delete;

    /** Enqueues @p task, or with no workers runs it before returning;
     *  fatal if called during destruction. */
    void submit(std::function<void()> task);

    /** Number of worker threads. */
    unsigned threadCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /**
     * Tasks queued but not yet picked up by a worker — the admission
     * backlog a serving stats endpoint reports. A task being executed
     * right now is counted by neither this nor any other accessor.
     */
    std::size_t pendingTasks() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return queue_.size();
    }

  private:
    void workerLoop();

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<std::function<void()>> queue_;
    bool stopping_ = false;
    std::vector<std::thread> workers_;
};

}  // namespace ftsim

#endif  // FTSIM_COMMON_PARALLEL_HPP
