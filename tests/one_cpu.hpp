#ifndef FTSIM_TESTS_ONE_CPU_HPP
#define FTSIM_TESTS_ONE_CPU_HPP

/**
 * @file
 * Test helper: confines the calling thread to one CPU for a scope.
 *
 * `OneCpuScope` narrows the calling thread's affinity mask to the
 * first CPU it may already use, and restores the saved mask when the
 * scope ends. Threads started inside the scope inherit the one-CPU
 * mask, so code that sizes itself by `hardwareThreads()` there sees
 * the deployment `taskset -c 0` gives a whole process.
 */

#include <sched.h>

namespace ftsim {

class OneCpuScope {
  public:
    OneCpuScope()
    {
        CPU_ZERO(&saved_);
        if (::sched_getaffinity(0, sizeof(saved_), &saved_) != 0)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &saved_)) {
                CPU_SET(cpu, &one);
                break;
            }
        }
        pinned_ = ::sched_setaffinity(0, sizeof(one), &one) == 0;
    }

    ~OneCpuScope()
    {
        if (pinned_)
            ::sched_setaffinity(0, sizeof(saved_), &saved_);
    }

    OneCpuScope(const OneCpuScope&) = delete;
    OneCpuScope& operator=(const OneCpuScope&) = delete;

    /** True when the thread now runs on exactly one CPU. */
    bool pinned() const { return pinned_; }

    /** CPUs in the mask that was in force before the scope. */
    int savedCpus() const { return CPU_COUNT(&saved_); }

  private:
    cpu_set_t saved_;
    bool pinned_ = false;
};

}  // namespace ftsim

#endif  // FTSIM_TESTS_ONE_CPU_HPP
