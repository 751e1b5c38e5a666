#include "fleet.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Fleet::~Fleet() { stop(); }

void
pinToCpu(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    const long online = std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN));
    for (long c = 0; c < online; ++c)
        if (cpu < 0 || c == cpu % online)
            CPU_SET(static_cast<int>(c), &set);
    ::sched_setaffinity(0, sizeof set, &set);
}

std::string
Fleet::spawn(const std::vector<std::string>& argv, int cpu, Proc& proc)
{
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0)
        return std::string("pipe: ") + std::strerror(errno);
    std::vector<char*> args;
    for (const std::string& a : argv)
        args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    ::posix_spawn_file_actions_init(&actions);
    ::posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
    ::posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
    ::posix_spawn_file_actions_adddup2(&actions, fds[1], 2);
    // The child inherits the spawning thread's CPU set. posix_spawn
    // (vfork + exec) rather than fork: the child neither copies nor
    // tears down this process's page tables, work that would otherwise
    // count as the fleet's set-up CPU time and grow with the run's plan.
    cpu_set_t own;
    ::sched_getaffinity(0, sizeof own, &own);
    pinToCpu(cpu);
    pid_t pid = -1;
    const int rc = ::posix_spawn(&pid, args[0], &actions, nullptr,
                                 args.data(), environ);
    ::sched_setaffinity(0, sizeof own, &own);
    ::posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        return "spawn " + argv[0] + ": " + std::strerror(rc);
    }
    ::close(fds[1]);
    ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
    proc.pid = pid;
    proc.errFd = fds[0];
    return "";
}

std::uint16_t
Fleet::awaitListening(Proc& proc, double timeoutMs)
{
    const double deadline = nowMs() + timeoutMs;
    std::string text;
    char buf[4096];
    while (nowMs() < deadline) {
        pollfd pfd{proc.errFd, POLLIN, 0};
        ::poll(&pfd, 1, 10);
        for (;;) {
            const ssize_t n = ::read(proc.errFd, buf, sizeof buf);
            if (n > 0) {
                text.append(buf, static_cast<std::size_t>(n));
                continue;
            }
            if (n == 0)
                return 0;  // The child closed stderr: it exited.
            break;
        }
        const std::size_t at = text.find("listening on ");
        const std::size_t eol =
            at == std::string::npos ? at : text.find('\n', at);
        if (eol != std::string::npos) {
            const std::size_t colon = text.rfind(':', eol);
            return static_cast<std::uint16_t>(
                std::atoi(text.c_str() + colon + 1));
        }
    }
    return 0;
}

std::string
Fleet::start()
{
    const std::string workers = std::to_string(config_.workers);
    const std::string answers = std::to_string(config_.maxAnswers);
    const std::string planners = std::to_string(config_.maxPlanners);
    for (int attempt = 0; attempt < 8; ++attempt) {
        shard_ports_.clear();
        bool ok = true;
        for (int i = 0; i < 2; ++i) {
            const std::string port =
                std::to_string(config_.basePort + 2 * attempt + i);
            const std::string error = spawn(
                {config_.servedBin, "--host", "127.0.0.1", "--port", port,
                 "--workers", workers, "--max-answers", answers,
                 "--max-planners", planners},
                2 + i, shards_[i]);
            if (!error.empty())
                return error;
        }
        for (Proc& shard : shards_) {
            const std::uint16_t port = awaitListening(shard, 10000.0);
            ok = ok && port != 0;
            shard_ports_.push_back(port);
        }
        if (ok)
            break;
        stopProcs({&shards_[0], &shards_[1]});  // A port was taken.
    }
    if (shard_ports_.size() != 2 || shard_ports_[0] == 0 ||
        shard_ports_[1] == 0)
        return "no free shard port pair";
    std::vector<std::string> argv = {config_.routerBin, "--host",
                                     "127.0.0.1", "--port", "0"};
    for (std::uint16_t port : shard_ports_) {
        argv.push_back("--shard");
        argv.push_back("127.0.0.1:" + std::to_string(port));
    }
    const std::string error = spawn(argv, 1, router_);
    if (!error.empty())
        return error;
    router_port_ = awaitListening(router_, 10000.0);
    return router_port_ != 0 ? "" : "router did not start";
}

void
Fleet::stopProcs(std::vector<Proc*> procs)
{
    for (Proc* p : procs)
        if (p->pid > 0)
            ::kill(p->pid, SIGTERM);
    const double kill_at = nowMs() + 5000.0;
    char buf[4096];
    for (Proc* p : procs) {
        while (p->pid > 0) {
            // Keep the stderr pipe drained so a child's shutdown
            // summary can never block on a full pipe.
            while (p->errFd >= 0 && ::read(p->errFd, buf, sizeof buf) > 0) {
            }
            int status = 0;
            const pid_t done = ::waitpid(p->pid, &status, WNOHANG);
            if (done == p->pid || (done < 0 && errno == ECHILD)) {
                p->pid = -1;
                break;
            }
            if (nowMs() > kill_at)
                ::kill(p->pid, SIGKILL);
            ::usleep(1000);
        }
        if (p->errFd >= 0) {
            ::close(p->errFd);
            p->errFd = -1;
        }
    }
}

void
Fleet::stop()
{
    // Router first: it drains what it forwarded while the shards are
    // still there to answer.
    stopProcs({&router_});
    stopProcs({&shards_[0], &shards_[1]});
}

std::vector<std::string>
Fleet::shardNames() const
{
    std::vector<std::string> names;
    for (std::uint16_t port : shard_ports_)
        names.push_back("127.0.0.1:" + std::to_string(port));
    return names;
}

std::vector<pid_t>
Fleet::pids() const
{
    return {router_.pid, shards_[0].pid, shards_[1].pid};
}

double
Fleet::cpuSeconds() const
{
    double total = 0.0;
    for (pid_t pid : pids()) {
        clockid_t clock;
        timespec ts{};
        if (pid > 0 && ::clock_getcpuclockid(pid, &clock) == 0 &&
            ::clock_gettime(clock, &ts) == 0)
            total += static_cast<double>(ts.tv_sec) +
                     static_cast<double>(ts.tv_nsec) * 1e-9;
    }
    return total;
}

double
processCpuUs(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const std::size_t paren = text.rfind(')');
    if (paren == std::string::npos)
        return -1.0;
    std::istringstream fields(text.substr(paren + 2));
    std::string field;
    double utime = 0.0;
    double stime = 0.0;
    // Fields from 3 (state) on; utime and stime are fields 14 and 15.
    for (int index = 3; index <= 15 && fields >> field; ++index) {
        if (index == 14)
            utime = std::atof(field.c_str());
        if (index == 15)
            stime = std::atof(field.c_str());
    }
    return (utime + stime) * 1e6 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double
processPeakRssMb(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0;
    return -1.0;
}

ftsim::Result<ftsim::NetClient>
connectLocal(std::uint16_t port)
{
    return ftsim::NetClient::connectTo("127.0.0.1", port, 10000.0);
}

std::string
askOnce(ftsim::NetClient& client, const std::string& bytes)
{
    if (!client.sendBytes(bytes))
        return "";
    ftsim::Result<ftsim::WireFramer::Frame> frame = client.recvFrame();
    return frame ? std::move(frame.value().payload) : std::string();
}

namespace {

/** Minimal JSON walker collecting numbers by key path. */
class Flattener {
  public:
    Flattener(const std::string& text, std::map<std::string, double>& out)
        : s_(text), out_(out)
    {
    }
    bool run()
    {
        return value("") && (skipWs(), pos_ == s_.size());
    }

  private:
    void skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
                s_[pos_] == '\r'))
            ++pos_;
    }
    bool string(std::string& out)
    {
        if (pos_ >= s_.size() || s_[pos_] != '"')
            return false;
        for (++pos_; pos_ < s_.size(); ++pos_) {
            if (s_[pos_] == '"') {
                ++pos_;
                return true;
            }
            if (s_[pos_] == '\\' && ++pos_ >= s_.size())
                return false;
            out += s_[pos_];  // Escapes kept verbatim; keys need none.
        }
        return false;
    }
    bool value(const std::string& path)
    {
        skipWs();
        if (pos_ >= s_.size())
            return false;
        const char c = s_[pos_];
        if (c == '{' || c == '[') {
            const char close = c == '{' ? '}' : ']';
            ++pos_;
            skipWs();
            if (pos_ < s_.size() && s_[pos_] == close) {
                ++pos_;
                return true;
            }
            for (std::size_t index = 0;; ++index) {
                skipWs();
                std::string key = std::to_string(index);
                if (c == '{') {
                    key.clear();
                    if (!string(key))
                        return false;
                    skipWs();
                    if (pos_ >= s_.size() || s_[pos_++] != ':')
                        return false;
                }
                if (!value(path.empty() ? key : path + "/" + key))
                    return false;
                skipWs();
                if (pos_ < s_.size() && s_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                return pos_ < s_.size() && s_[pos_++] == close;
            }
        }
        if (c == '"') {
            std::string ignored;
            return string(ignored);
        }
        for (const char* word : {"true", "false", "null"}) {
            const std::size_t n = std::strlen(word);
            if (s_.compare(pos_, n, word) == 0) {
                if (word[0] == 't')
                    out_[path] = 1.0;
                pos_ += n;
                return true;
            }
        }
        char* end = nullptr;
        const double v = std::strtod(s_.c_str() + pos_, &end);
        if (end == s_.c_str() + pos_)
            return false;
        pos_ = static_cast<std::size_t>(end - s_.c_str());
        out_[path] = v;
        return true;
    }

    const std::string& s_;
    std::map<std::string, double>& out_;
    std::size_t pos_ = 0;
};

}  // namespace

bool
flattenJsonNumbers(const std::string& text,
                   std::map<std::string, double>& out)
{
    return Flattener(text, out).run();
}

}  // namespace perfbench
