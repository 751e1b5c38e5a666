#include "common/parallel.hpp"

#include <sched.h>

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/logging.hpp"

namespace ftsim {

namespace {

/** True on threads already executing inside a parallelFor region. */
thread_local bool in_parallel_region = false;

}  // namespace

unsigned
hardwareThreads()
{
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (::sched_getaffinity(0, sizeof(mask), &mask) == 0)
        return static_cast<unsigned>(CPU_COUNT(&mask));
    const unsigned n = std::thread::hardware_concurrency();
    return n > 0 ? n : 1;
}

void
parallelFor(std::size_t n, unsigned threads,
            const std::function<void(std::size_t)>& body)
{
    if (n == 0)
        return;
    unsigned workers =
        static_cast<unsigned>(std::min<std::size_t>(threads, n));
    // A parallelFor nested inside another parallelFor's body degrades
    // to serial: the outer loop already owns the thread budget, and
    // multiplying worker counts (outer x inner) would oversubscribe
    // the machine instead of speeding anything up.
    if (in_parallel_region)
        workers = 1;
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::exception_ptr first_error;
    std::mutex error_mutex;
    auto worker = [&] {
        in_parallel_region = true;
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= n)
                return;
            try {
                body(i);
            } catch (...) {
                {
                    std::lock_guard<std::mutex> lock(error_mutex);
                    if (!first_error)
                        first_error = std::current_exception();
                }
                // Drain the counter so the pool stops promptly instead
                // of burning the rest of the sweep before rethrowing.
                next.store(n);
                return;
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (unsigned t = 1; t < workers; ++t)
        pool.emplace_back(worker);
    worker();  // The calling thread is worker 0.
    in_parallel_region = false;  // Pool threads exit; only we persist.
    for (std::thread& t : pool)
        t.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

WorkerPool::WorkerPool(unsigned threads)
{
    workers_.reserve(threads);
    for (unsigned t = 0; t < threads; ++t)
        workers_.emplace_back([this] { workerLoop(); });
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : workers_)
        t.join();
}

void
WorkerPool::submit(std::function<void()> task)
{
    if (workers_.empty()) {
        task();  // Caller-runs: no thread to hand it to.
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_)
            fatal("WorkerPool::submit: pool is shutting down");
        queue_.push_back(std::move(task));
    }
    cv_.notify_one();
}

void
WorkerPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock,
                     [this] { return stopping_ || !queue_.empty(); });
            // Drain before exiting: stop only once the queue is empty.
            if (queue_.empty())
                return;
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

}  // namespace ftsim
