/**
 * @file
 * felix-serve: the Felix tuning daemon (docs/serving.md).
 *
 *   felix-serve --stdio  [options]            # NDJSON on stdin/stdout
 *   felix-serve --socket /run/felix.sock [options]
 *
 * Answers graph-tuning requests from a schedule cache keyed on the
 * subgraph structural hash, warm-started from (and persisted back
 * to) a tuning-record log, and spends background tuning rounds on
 * the subgraphs that dominate fleet traffic (count-min sketch +
 * heavy-hitter heap, traffic_share x remaining_latency scheduling).
 *
 * In --stdio mode requests are processed strictly in order and
 * tuning only runs on explicit {"op":"rounds"} requests, so a fixed
 * request trace with a fixed --seed yields bit-identical responses
 * across runs and across --jobs values (the determinism contract
 * the serve_smoke ctest enforces). In --socket mode the daemon
 * additionally tunes --rounds-per-idle rounds whenever the socket
 * stays quiet for --idle-ms.
 */
#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/felix.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/round_log.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "support/logging.h"
#include "support/parallel.h"

using namespace felix;

namespace {

/** Set by the SIGINT/SIGTERM handler; checked by both loops. */
volatile sig_atomic_t g_stopSignal = 0;

void
onStopSignal(int signo)
{
    g_stopSignal = signo;
}

/**
 * Fatal-signal handler: dump the flight-recorder tail to stderr so
 * a crashing daemon explains its last moments, then re-raise with
 * the default disposition for a normal core/exit. Only
 * async-signal-safe calls: write(2) and the lock-free dumpTo().
 */
void
onFatalSignal(int signo)
{
    static const char header[] =
        "felix-serve: fatal signal, flight recorder tail:\n";
    ::write(2, header, sizeof(header) - 1);
    obs::FlightRecorder::instance().dumpTo(2);
    ::signal(signo, SIG_DFL);
    ::raise(signo);
}

void
installSignalHandlers()
{
    struct sigaction stop{};
    stop.sa_handler = onStopSignal;
    sigemptyset(&stop.sa_mask);
    // No SA_RESTART: blocking reads (stdin getline, socket poll)
    // must fail with EINTR so the loops notice the flag and run
    // the graceful-shutdown path (persist + log finalization).
    stop.sa_flags = 0;
    ::sigaction(SIGINT, &stop, nullptr);
    ::sigaction(SIGTERM, &stop, nullptr);

    struct sigaction crash{};
    crash.sa_handler = onFatalSignal;
    sigemptyset(&crash.sa_mask);
    crash.sa_flags = 0;
    for (int signo : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE})
        ::sigaction(signo, &crash, nullptr);
}

void
usage()
{
    std::printf(
        "usage: felix-serve (--stdio | --socket PATH) [options]\n"
        "  --stdio         serve NDJSON requests on stdin/stdout\n"
        "  --socket PATH   listen on a Unix domain socket\n"
        "  --device        a10g | a5000 | xavier-nx (default a5000)\n"
        "  --strategy      felix | ansor           (default felix)\n"
        "  --seed          RNG seed                (default 1)\n"
        "  --jobs          worker threads (default 1; responses are\n"
        "                  bit-identical for any value)\n"
        "  --records PATH  tuning-record log: warm-starts the\n"
        "                  schedule cache and receives improved\n"
        "                  schedules on flush/shutdown\n"
        "  --serve-log F   JSONL serve log (one line per request,\n"
        "                  plus a final metrics snapshot; aggregate\n"
        "                  with felix-trace-summary)\n"
        "  --checkpoint F  tuner-state checkpoint file: restored at\n"
        "                  startup so a restarted daemon resumes its\n"
        "                  background tuning, rewritten crash-safely\n"
        "                  on flush/shutdown/SIGTERM\n"
        "  --shard-id N    shard identity for fleet telemetry\n"
        "                  (trace spans, flight dumps, serve log)\n"
        "  --shards K      shard count reported beside --shard-id\n"
        "  --rounds-per-idle N  socket mode: background tuning\n"
        "                  rounds per idle period (default 1)\n"
        "  --idle-ms N     socket poll timeout in ms (default 50)\n"
        "  --heavy-k N     heavy-hitter slots      (default 8)\n"
        "  --hit-window N  sliding window (lookups) for the admin\n"
        "                  windowed hit rate       (default 256)\n"
        "  --flight N      flight-recorder ring capacity\n"
        "                  (default 1024)\n"
        "  --log-level L   debug | info | warn | error\n"
        "  --cache-dir DIR pretrained cost-model cache directory\n"
        "                  (default: pretrained)\n");
}

/** Write all of @p text to @p fd, retrying on EINTR/partials. */
bool
writeAll(int fd, const std::string &text)
{
    size_t written = 0;
    while (written < text.size()) {
        ssize_t n = ::write(fd, text.data() + written,
                            text.size() - written);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        written += static_cast<size_t>(n);
    }
    return true;
}

/** One connected client: its fd and partial-line buffer. */
struct Client
{
    int fd = -1;
    std::string buffer;
};

int
runSocket(serve::ServeSession &session, const std::string &path,
          int rounds_per_idle, int idle_ms)
{
    if (path.size() >= sizeof(sockaddr_un{}.sun_path))
        fatal("socket path too long: " + path);
    ::unlink(path.c_str());
    int listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd < 0)
        fatal(std::string("socket: ") + std::strerror(errno));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        fatal("bind " + path + ": " + std::strerror(errno));
    if (::listen(listenFd, 8) != 0)
        fatal("listen " + path + ": " + std::strerror(errno));
    inform("felix-serve: listening on ", path);

    std::vector<Client> clients;
    while (!session.shutdownRequested() && g_stopSignal == 0) {
        std::vector<pollfd> fds;
        fds.push_back({listenFd, POLLIN, 0});
        for (const Client &client : clients)
            fds.push_back({client.fd, POLLIN, 0});
        int rc = ::poll(fds.data(), fds.size(), idle_ms);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            warn("poll: ", std::strerror(errno));
            break;
        }
        if (rc == 0) {
            // Quiet socket: spend the idle time tuning the
            // traffic-weighted hottest subgraphs.
            if (rounds_per_idle > 0)
                session.runRounds(rounds_per_idle);
            continue;
        }
        if (fds[0].revents & POLLIN) {
            int fd = ::accept(listenFd, nullptr, nullptr);
            if (fd >= 0)
                clients.push_back({fd, std::string()});
        }
        // Only the clients polled above have an fds entry; one just
        // accepted sits after them and waits for the next poll.
        for (size_t i = fds.size() - 1; i-- > 0;) {
            if (!(fds[i + 1].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            Client &client = clients[i];
            char chunk[4096];
            ssize_t n = ::read(client.fd, chunk, sizeof(chunk));
            if (n <= 0) {
                ::close(client.fd);
                clients.erase(clients.begin() + i);
                continue;
            }
            client.buffer.append(chunk, static_cast<size_t>(n));
            size_t start = 0, nl;
            bool drop = false;
            while ((nl = client.buffer.find('\n', start)) !=
                   std::string::npos) {
                std::string line =
                    client.buffer.substr(start, nl - start);
                start = nl + 1;
                if (line.empty())
                    continue;
                std::string response = session.handle(line);
                if (!writeAll(client.fd, response + "\n")) {
                    drop = true;
                    break;
                }
                if (session.shutdownRequested())
                    break;
            }
            client.buffer.erase(0, start);
            if (drop) {
                ::close(client.fd);
                clients.erase(clients.begin() + i);
            }
            if (session.shutdownRequested())
                break;
        }
    }
    for (const Client &client : clients)
        ::close(client.fd);
    ::close(listenFd);
    ::unlink(path.c_str());
    session.persist();
    session.writeCheckpoint();
    session.finalizeLogs();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool stdio = false;
    std::string socketPath, strategy = "felix";
    std::string cacheDir = "pretrained";
    serve::ServeOptions options;
    int jobs = 0;
    int roundsPerIdle = 1;
    int idleMs = 50;
    int shardId = -1, shardCount = 0;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage();
                fatal("missing value for " + arg);
            }
            return argv[++i];
        };
        if (arg == "--stdio") stdio = true;
        else if (arg == "--socket") socketPath = next();
        else if (arg == "--device") options.device = next();
        else if (arg == "--strategy") strategy = next();
        else if (arg == "--seed")
            options.tuner.seed =
                std::strtoull(next().c_str(), nullptr, 10);
        else if (arg == "--jobs") {
            jobs = std::atoi(next().c_str());
            if (jobs < 1)
                fatal("--jobs needs a positive thread count");
        }
        else if (arg == "--records") options.recordsPath = next();
        else if (arg == "--serve-log") options.serveLogPath = next();
        else if (arg == "--checkpoint")
            options.checkpointPath = next();
        else if (arg == "--shard-id")
            shardId = std::atoi(next().c_str());
        else if (arg == "--shards")
            shardCount = std::atoi(next().c_str());
        else if (arg == "--rounds-per-idle")
            roundsPerIdle = std::atoi(next().c_str());
        else if (arg == "--idle-ms")
            idleMs = std::atoi(next().c_str());
        else if (arg == "--heavy-k")
            options.heavyHitterK = static_cast<size_t>(
                std::max(1, std::atoi(next().c_str())));
        else if (arg == "--hit-window")
            options.hitWindow = static_cast<size_t>(
                std::max(1, std::atoi(next().c_str())));
        else if (arg == "--flight")
            obs::FlightRecorder::instance().reset(
                static_cast<size_t>(
                    std::max(1, std::atoi(next().c_str()))));
        else if (arg == "--cache-dir") cacheDir = next();
        else if (arg == "--log-level") {
            std::string name = next();
            auto level = parseLogLevel(name);
            if (!level)
                fatal("bad --log-level '" + name +
                      "' (expected debug|info|warn|error)");
            setLogLevel(*level);
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            usage();
            fatal("unknown argument: " + arg);
        }
    }
    if (stdio == !socketPath.empty()) {
        usage();
        fatal("pick exactly one of --stdio / --socket PATH");
    }
    options.tuner.strategy = (strategy == "ansor")
                                 ? tuner::StrategyKind::AnsorTenSet
                                 : tuner::StrategyKind::FelixGradient;
    options.tuner.numThreads = jobs;
    if (jobs > 0)
        setGlobalJobs(jobs);
    if (shardId >= 0)
        obs::setShardIdentity(shardId, shardCount);

    auto device = Device::cuda(options.device);
    serve::ServeSession session(
        std::move(options), pretrainedCostModel(device, cacheDir));

    installSignalHandlers();
    int rc = stdio ? session.runStdio(std::cin, std::cout)
                   : runSocket(session, socketPath, roundsPerIdle,
                               idleMs);
    if (g_stopSignal != 0) {
        // The loops already ran the persist + log-finalization path
        // on their way out; just note the signal for the record.
        obs::FlightRecorder::instance().record(
            obs::FlightKind::Signal, 0, 0, g_stopSignal);
        inform("felix-serve: caught signal ",
               static_cast<int>(g_stopSignal),
               ", shut down gracefully");
    }

    // Close the serve log with a metrics snapshot so
    // felix-trace-summary sees the full registry (serve.* included).
    const std::string &serveLog = session.serveLogPath();
    if (!serveLog.empty() &&
        !obs::appendMetricsSnapshot(
            serveLog, obs::MetricsRegistry::instance().snapshot()))
        return 1;
    return rc;
}
