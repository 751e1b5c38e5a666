/**
 * @file
 * common/parallel tests: hardwareThreads() counts the CPUs the thread
 * may run on (its affinity mask, not the machine), and WorkerPool(0)
 * is caller-runs — the sizing PlanService applies on one CPU.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "one_cpu.hpp"

namespace ftsim {
namespace {

TEST(Parallel, HardwareThreadsCountsTheAffinityMask)
{
    const unsigned before = hardwareThreads();
    {
        OneCpuScope one_cpu;
        ASSERT_TRUE(one_cpu.pinned());
        EXPECT_EQ(before, static_cast<unsigned>(one_cpu.savedCpus()));
        EXPECT_EQ(hardwareThreads(), 1u);
        // A thread started under the mask inherits it.
        unsigned child = 0;
        std::thread([&child] { child = hardwareThreads(); }).join();
        EXPECT_EQ(child, 1u);
    }
    EXPECT_EQ(hardwareThreads(), before);  // The mask was restored.
}

TEST(Parallel, WorkerPoolOfZeroRunsEachTaskOnTheCaller)
{
    WorkerPool pool(0);
    EXPECT_EQ(pool.threadCount(), 0u);
    std::thread::id ran_on;
    bool done = false;
    pool.submit([&] {
        ran_on = std::this_thread::get_id();
        done = true;
    });
    // Done before submit() returned, on this thread, nothing queued.
    EXPECT_TRUE(done);
    EXPECT_EQ(ran_on, std::this_thread::get_id());
    EXPECT_EQ(pool.pendingTasks(), 0u);
}

TEST(Parallel, WorkerPoolRunsEveryTaskBeforeItJoins)
{
    std::atomic<int> ran{0};
    std::vector<std::thread::id> ids(64);
    {
        WorkerPool pool(2);
        EXPECT_EQ(pool.threadCount(), 2u);
        for (std::size_t i = 0; i < ids.size(); ++i)
            pool.submit([&ran, &ids, i] {
                ids[i] = std::this_thread::get_id();
                ran.fetch_add(1);
            });
    }  // The destructor drains the queue, then joins.
    EXPECT_EQ(ran.load(), 64);
    for (const std::thread::id& id : ids)
        EXPECT_NE(id, std::this_thread::get_id());
}

}  // namespace
}  // namespace ftsim
