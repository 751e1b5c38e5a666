#ifndef PERFBENCH_FLEET_HPP
#define PERFBENCH_FLEET_HPP

/**
 * @file
 * The fleet under test — `ftsim_router` in front of two `ftsim_served`
 * shards, each its own process — plus the /proc and `stats` probes the
 * benchmark reads it with.
 *
 * Shards listen on fixed ports (with a fallback pair when one is
 * taken) because the router names a shard after its address and the
 * hash ring places keys by that name: fixed names keep the split of
 * keys between the two shards the same in every run.
 */

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "net/client.hpp"

namespace perfbench {

struct FleetConfig {
    std::string servedBin;
    std::string routerBin;
    unsigned workers = 1;
    std::size_t maxAnswers = 0;
    std::size_t maxPlanners = 0;
    /** First shard port; shard i of attempt k binds base + 2k + i. */
    std::uint16_t basePort = 47301;
};

class Fleet {
  public:
    explicit Fleet(FleetConfig config) : config_(std::move(config)) {}
    /** Stops every process still running. */
    ~Fleet();
    Fleet(const Fleet&) = delete;
    Fleet& operator=(const Fleet&) = delete;

    /** Spawns both shards, then the router; returns once all three
     *  announce their listening port. Empty string on success. */
    std::string start();
    /** SIGTERM (graceful drain), then SIGKILL after a grace period;
     *  waits for every process. Idempotent. */
    void stop();

    std::uint16_t routerPort() const { return router_port_; }
    const std::vector<std::uint16_t>& shardPorts() const
    {
        return shard_ports_;
    }
    /** The names the router gives the shards ("127.0.0.1:<port>"). */
    std::vector<std::string> shardNames() const;
    /** Router first, then the shards. */
    std::vector<pid_t> pids() const;
    /** CPU time the three processes have used since they were spawned,
     *  in seconds, at nanosecond resolution (clock_getcpuclockid). */
    double cpuSeconds() const;

  private:
    struct Proc {
        pid_t pid = -1;
        int errFd = -1;  ///< Read end of the child's stderr pipe.
    };
    /** Spawns @p argv, pinned to @p cpu (see pinToCpu). */
    std::string spawn(const std::vector<std::string>& argv, int cpu,
                      Proc& proc);
    /** Waits for "listening on HOST:PORT"; 0 when the child exits or
     *  times out first. */
    std::uint16_t awaitListening(Proc& proc, double timeoutMs);
    void stopProcs(std::vector<Proc*> procs);

    FleetConfig config_;
    Proc router_;
    Proc shards_[2];
    std::uint16_t router_port_ = 0;
    std::vector<std::uint16_t> shard_ports_;
};

/**
 * Pins the calling thread, and what it spawns afterwards, to CPU @p cpu
 * modulo the CPUs online; -1 lifts the pin. The generator runs on
 * CPU 0, the router on 1 and the shards on 2 and 3, so every run places
 * the processes alike (NOTES.md, "Fleet shape").
 */
void pinToCpu(int cpu);

/** CPU time (utime + stime) of @p pid in microseconds, -1 if gone. */
double processCpuUs(pid_t pid);
/** VmHWM of @p pid in MB, -1 if gone. */
double processPeakRssMb(pid_t pid);

/** Monotonic clock, milliseconds. */
double nowMs();

/** A client of 127.0.0.1:@p port whose every operation gives up after
 *  10 s (ftsim::NetClient's deadline). */
ftsim::Result<ftsim::NetClient> connectLocal(std::uint16_t port);

/**
 * Sends @p bytes — one JSON line with its '\n', or one binary frame —
 * and returns the one answer: the line without its '\n', or the
 * frame's payload. Empty on a transport error or timeout.
 */
std::string askOnce(ftsim::NetClient& client, const std::string& bytes);

/**
 * Flattens a JSON document's numbers into "a/b/c" -> value (object
 * keys joined with '/'; keys themselves may contain dots). Enough
 * JSON for the `stats` answer; returns false on malformed input.
 */
bool flattenJsonNumbers(const std::string& text,
                        std::map<std::string, double>& out);

}  // namespace perfbench

#endif  // PERFBENCH_FLEET_HPP
