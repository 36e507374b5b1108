/**
 * @file
 * felix-e2e: the measuring half of the end-to-end benchmark.
 *
 * Drives the library through its public entry points only:
 *   - pretrainedCostModel, graph::partition and the GraphTuner
 *     constructor (set-up), GraphTuner::tuneRounds(1) per round;
 *   - serve::ServeSession::handle per request.
 *
 * It writes raw samples (times, counters, check results, the paths
 * of the round logs and Chrome traces it asked the program for) as
 * one JSON document. e2ebench/run.py turns them into the reported
 * metrics; this file computes no statistics.
 *
 *   felix-e2e --mode tune --network dcgan --batch 1 --jobs 1
 *             --target-ms 0.1224 --tunes 8 --handoffs 5 --seed 1
 *             --trace 0|1 --model-dir DIR --work-dir DIR --out FILE
 *   felix-e2e --mode handoff --network dcgan --batch 1
 *             --records FILE ...
 *   felix-e2e --mode serve --jobs 1 --seconds 25 --target-ms 2600
 *             --seed 1 --trace 0|1 ...
 *
 * What does not vary between the benchmark's workloads (the tuning
 * budget, the serve-zipf trace shape, the number of set-ups) is a
 * constant below, next to the mode it belongs to.
 */
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/felix.h"
#include "expr/compiled.h"
#include "features/features.h"
#include "graph/graph.h"
#include "jit/jit.h"
#include "models/models.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rewrite/smoothing.h"
#include "rewrite/transforms.h"
#include "serve/server.h"
#include "sim/gpu_model.h"
#include "sketch/sampling.h"
#include "sketch/sketch.h"
#include "support/batch.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "tuner/records.h"
#include "tuner/tuner.h"

extern char **environ;

using namespace felix;

namespace {

struct Args
{
    std::string mode;
    std::string network;
    int batch = 1;
    int jobs = 1;
    double targetMs = 0.0;
    int tunes = 1;
    int handoffs = 0;
    std::string records;
    double seconds = 0.0;
    uint64_t seed = 1;
    bool trace = false;
    std::string modelDir;
    std::string workDir;
    std::string out;
};

[[noreturn]] void
die(const std::string &message)
{
    std::fprintf(stderr, "felix-e2e: %s\n", message.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            die("missing value for " + flag);
        const std::string v = argv[++i];
        if (flag == "--mode") a.mode = v;
        else if (flag == "--network") a.network = v;
        else if (flag == "--batch") a.batch = std::stoi(v);
        else if (flag == "--jobs") a.jobs = std::stoi(v);
        else if (flag == "--target-ms") a.targetMs = std::stod(v);
        else if (flag == "--tunes") a.tunes = std::stoi(v);
        else if (flag == "--handoffs") a.handoffs = std::stoi(v);
        else if (flag == "--records") a.records = v;
        else if (flag == "--seconds") a.seconds = std::stod(v);
        else if (flag == "--seed") a.seed = std::stoull(v);
        else if (flag == "--trace") a.trace = v == "1";
        else if (flag == "--model-dir") a.modelDir = v;
        else if (flag == "--work-dir") a.workDir = v;
        else if (flag == "--out") a.out = v;
        else die("unknown flag " + flag);
    }
    if (a.mode != "tune" && a.mode != "serve" && a.mode != "handoff")
        die("--mode must be tune, serve or handoff");
    if (a.modelDir.empty() || a.workDir.empty() || a.out.empty())
        die("--model-dir, --work-dir and --out are required");
    return a;
}

/** Runs this binary with @p flags and waits for it to end. */
void
runSelf(const std::vector<std::string> &flags)
{
    static const std::string self =
        std::filesystem::read_symlink("/proc/self/exe").string();
    std::vector<char *> argv = {const_cast<char *>(self.c_str())};
    for (const std::string &flag : flags)
        argv.push_back(const_cast<char *>(flag.c_str()));
    argv.push_back(nullptr);
    pid_t pid = 0;
    if (posix_spawn(&pid, self.c_str(), nullptr, nullptr, argv.data(),
                    environ) != 0)
        die("cannot start " + self);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0)
        if (errno != EINTR)
            die("waitpid failed");
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        die("child felix-e2e failed");
}

/** Benchmark clock, nanoseconds (spans use the tracer's clock). */
int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
secondsSince(int64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) * 1e-9;
}

double
microseconds(int64_t ns)
{
    return static_cast<double>(ns) * 1e-3;
}

/** A span recorded by the benchmark around one public call. */
class BenchSpan
{
  public:
    explicit BenchSpan(const char *name)
        : name_(name), start_(obs::Tracer::nowUs())
    {
    }
    ~BenchSpan()
    {
        if (obs::Tracer::enabled())
            obs::Tracer::instance().record(
                name_, "bench", start_, obs::Tracer::nowUs() - start_);
    }
    BenchSpan(const BenchSpan &) = delete;
    BenchSpan &operator=(const BenchSpan &) = delete;

  private:
    const char *name_;
    int64_t start_;
};

/**
 * The pretrained model must be the committed file: on a cache miss
 * pretrainedCostModel would train one and write it, which makes
 * set-up time bimodal.
 */
costmodel::CostModel
loadModel(const std::string &model_dir)
{
    const std::string path = model_dir + "/cost_model_a5000.txt";
    if (!std::filesystem::is_regular_file(path))
        die("pretrained cost model missing: " + path);
    return pretrainedCostModel(Device::cuda("a5000"), model_dir);
}

/** The network names felix-tune and the serve protocol accept. */
std::vector<graph::Task>
networkTasks(const std::string &name, int batch)
{
    const std::map<std::string, graph::Graph (*)(int)> networks = {
        {"resnet50", [](int b) { return models::resnet50(b); }},
        {"mobilenet_v2", [](int b) { return models::mobilenetV2(b); }},
        {"r3d_18", [](int b) { return models::r3d18(b); }},
        {"dcgan", [](int b) { return models::dcgan(b); }},
        {"vit_b32", [](int b) { return models::vitB32(b); }},
        {"llama", [](int b) { return models::llama(b); }},
    };
    auto it = networks.find(name);
    if (it == networks.end())
        die("unknown network " + name);
    return graph::partition(it->second(batch));
}

std::map<std::string, double>
counterValues()
{
    return obs::MetricsRegistry::instance().snapshot().counters;
}

std::map<std::string, double>
counterDelta(const std::map<std::string, double> &before)
{
    std::map<std::string, double> delta;
    for (const auto &[name, value] : counterValues()) {
        auto it = before.find(name);
        delta[name] = value - (it == before.end() ? 0.0 : it->second);
    }
    return delta;
}

std::string
num(double v)
{
    return obs::jsonNumber(v);
}

std::string
str(const std::string &s)
{
    return obs::jsonEscape(s);
}

std::string
numArray(const std::vector<double> &values)
{
    std::string out = "[";
    for (size_t i = 0; i < values.size(); ++i)
        out += (i ? "," : "") + num(values[i]);
    return out + "]";
}

std::string
countersJson(const std::map<std::string, double> &counters)
{
    std::string out = "{";
    bool first = true;
    for (const auto &[name, value] : counters) {
        out += (first ? "" : ",") + str(name) + ":" + num(value);
        first = false;
    }
    return out + "}";
}

long
peakRssKb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
}

// ---------------------------------------------------------------
// Output check of one finished tune.

struct TuneCheck
{
    int illegal = 0;            ///< best schedules failing legality
    int remeasureMismatch = 0;  ///< re-measurement != recorded
    int sumMismatch = 0;        ///< weighted sum != network latency
};

/**
 * Checks every task's best schedule against its sketch's legality
 * constraints, re-measures it with the measurement seed the tuner
 * used, and recomputes the network latency from the task bests.
 *
 * The tuner draws measurement seeds from one sequential stream:
 * seed t for task t's initial all-ones schedule, then one seed per
 * measured candidate in round order. The round log lists the
 * candidates in that order, so a best schedule's seed is its
 * position in the log (or its task index when no round improved on
 * the initial schedule).
 */
TuneCheck
checkTune(const tuner::GraphTuner &tuner, const std::string &round_log)
{
    TuneCheck check;
    const auto &records = tuner.taskRecords();
    const sim::DeviceConfig &device = Device::cuda("a5000").config();

    // (task hash, measured latency) -> first seed that produced it.
    std::map<std::pair<uint64_t, double>, uint64_t> seedOf;
    uint64_t seed = records.size();
    std::ifstream log(round_log);
    std::string line;
    while (std::getline(log, line)) {
        auto parsed = obs::parseJson(line);
        if (!parsed || parsed->stringOr("type", "") != "round")
            continue;
        const uint64_t hash =
            std::stoull(parsed->stringOr("task_hash", "0"));
        const obs::JsonValue *candidates = parsed->find("candidates");
        if (candidates == nullptr || !candidates->isArray())
            continue;
        for (const obs::JsonValue &c : candidates->asArray())
            seedOf.emplace(std::make_pair(hash,
                                          c.numberOr("measured_sec", -1)),
                           seed++);
    }

    double network = 0.0;
    for (size_t t = 0; t < records.size(); ++t) {
        const tuner::TaskRecord &record = records[t];
        const optim::Candidate &best = record.bestCandidate;
        const auto &sketches = record.strategy->sketches();
        network += record.task.weight * record.bestLatencySec;
        if (best.sketchIndex < 0 ||
            best.sketchIndex >= static_cast<int>(sketches.size())) {
            ++check.illegal;
            continue;
        }
        const sketch::SymbolicSchedule &sched = sketches[best.sketchIndex];
        if (best.x.size() != sched.vars.size() ||
            !sketch::isValidAssignment(sched, best.x)) {
            ++check.illegal;
            continue;
        }
        const uint64_t hash = record.task.subgraph.structuralHash();
        auto found = seedOf.find({hash, record.bestLatencySec});
        const uint64_t measureSeed =
            found != seedOf.end() ? found->second : t;
        std::vector<std::string> names;
        for (const auto &domain : sched.vars)
            names.push_back(domain.name);
        const double remeasured = sim::measureKernel(
            features::concreteFeatures(sched.program, names, best.x),
            device, measureSeed);
        if (remeasured != record.bestLatencySec)
            ++check.remeasureMismatch;
    }
    // GraphTuner's default graph-executor overhead (TunerOptions).
    network += tuner::TunerOptions{}.graphExecOverheadSec;
    if (std::fabs(network - tuner.networkLatency()) >
        1e-12 * tuner.networkLatency())
        ++check.sumMismatch;
    return check;
}

// ---------------------------------------------------------------
// JIT compile time, measured on a rebuild of the workload's tapes.

/**
 * Rebuilds the tapes GradientSearch builds for each sketch — the
 * forward-only exact-feature tape and the smoothed log-space
 * objective tape — with the public sketch, features, rewrite and
 * expr functions, and returns the milliseconds jit::JitTape::compile
 * takes on all of them. The tuner compiles its tapes lazily inside
 * its descent, where the time is not visible from outside; it
 * compiles only the tapes it runs, fewer than this rebuild covers.
 * How many it compiled, and how much code, the tuner's own counters
 * (jit.tapes_compiled, jit.code_bytes) report.
 */
double
jitCompileMs(const std::vector<graph::Task> &tasks)
{
    double compileMs = 0.0;
    const optim::GradSearchOptions options;
    auto compile = [&](const expr::CompiledExprs &tape) {
        const int64_t start = nowNs();
        jit::JitTape::compile(tape.program());
        compileMs += static_cast<double>(nowNs() - start) * 1e-6;
    };
    for (const graph::Task &task : tasks) {
        for (const auto &sched :
             sketch::generateSketches(task.subgraph,
                                      options.sketchOptions)) {
            std::vector<std::string> names;
            for (const auto &domain : sched.vars)
                names.push_back(domain.name);
            auto raw = features::extractFeatures(sched.program);
            compile(expr::CompiledExprs(raw, names, /*forward_only=*/true));
            std::vector<expr::Expr> outputs;
            for (const expr::Expr &f : raw) {
                expr::Expr logged = rewrite::expSubstituteVars(
                    rewrite::logExpand(
                        rewrite::makeSmooth(f, options.kernel)),
                    names);
                outputs.push_back(rewrite::smoothMax0(logged,
                                                      options.kernel));
            }
            for (const expr::Expr &g : sched.constraints)
                outputs.push_back(rewrite::expSubstituteVars(
                    rewrite::makeSmooth(g, options.kernel), names));
            compile(expr::CompiledExprs(outputs, names));
        }
    }
    return compileMs;
}

// ---------------------------------------------------------------
// tune-* workloads.

/** Virtual seconds of tuning per tune: 15 rounds. */
constexpr double kBudgetSec = 120.0;

/** One fixed-budget tune: set-up and rounds, then the output check. */
std::string
runOneTune(const Args &a, uint64_t seed, const std::string &tag,
           int *attempted, int *failed)
{
    const std::string roundLog = a.workDir + "/rounds-" + tag + ".jsonl";
    const std::string recordsPath =
        a.workDir + "/records-" + tag + ".log";
    std::filesystem::remove(recordsPath);
    const double target = a.targetMs * 1e-3;
    const auto before = counterValues();

    const int64_t t0 = nowNs();
    std::unique_ptr<tuner::GraphTuner> tuner;
    {
        BenchSpan span("bench.setup");
        costmodel::CostModel model = loadModel(a.modelDir);
        std::vector<graph::Task> tasks = networkTasks(a.network, a.batch);
        tuner::TunerOptions options;
        options.seed = seed;
        options.numThreads = a.jobs;
        options.roundLogPath = roundLog;
        tuner = std::make_unique<tuner::GraphTuner>(
            std::move(tasks), std::move(model), sim::DeviceKind::A5000,
            options);
    }
    const double setupS = secondsSince(t0);

    std::vector<double> roundMs;
    double timeToTarget = -1.0;
    int failedRounds = 0;
    const int64_t t1 = nowNs();
    while (tuner->clockNow() < kBudgetSec) {
        ++*attempted;
        const int64_t r0 = nowNs();
        try {
            BenchSpan span("bench.round");
            tuner->tuneRounds(1);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "round failed: %s\n", e.what());
            ++failedRounds;
            break;
        }
        roundMs.push_back(static_cast<double>(nowNs() - r0) * 1e-6);
        if (timeToTarget < 0 && tuner->networkLatency() <= target)
            timeToTarget = secondsSince(t0);
    }
    const double tuneS = secondsSince(t1);
    *failed += failedRounds;
    const auto counters = counterDelta(before);

    double virtualToTarget = -1.0;
    for (const tuner::TimelinePoint &point : tuner->timeline()) {
        if (point.networkLatencySec <= target) {
            virtualToTarget = point.timeSec;
            break;
        }
    }

    TuneCheck check = checkTune(*tuner, roundLog);
    *failed += check.illegal + check.remeasureMismatch + check.sumMismatch;

    // The best schedules as a records log, the file felix-tune
    // --save-records writes and felix-serve --records warm-starts
    // from (the hand-off mode serves them).
    std::vector<tuner::TuneRecord> best;
    for (const tuner::TaskRecord &record : tuner->taskRecords()) {
        tuner::TuneRecord r;
        r.taskHash = record.task.subgraph.structuralHash();
        r.taskLabel = record.task.exampleLabel;
        r.sketchIndex = record.bestCandidate.sketchIndex;
        r.scheduleVars = record.bestCandidate.x;
        r.latencySec = record.bestLatencySec;
        r.clockSec = tuner->clockNow();
        best.push_back(std::move(r));
    }
    tuner::appendRecords(recordsPath, best);

    std::ostringstream os;
    os << "{\"seed\":" << seed << ",\"setup_s\":" << num(setupS)
       << ",\"tune_s\":" << num(tuneS)
       << ",\"time_to_target_s\":" << num(timeToTarget)
       << ",\"virtual_s_to_target\":" << num(virtualToTarget)
       << ",\"final_latency_s\":" << num(tuner->networkLatency())
       << ",\"final_clock_s\":" << num(tuner->clockNow())
       << ",\"round_ms\":" << numArray(roundMs)
       << ",\"round_log\":" << str(roundLog)
       << ",\"records\":" << str(recordsPath)
       << ",\"failed_rounds\":" << failedRounds
       << ",\"check\":{\"illegal\":" << check.illegal
       << ",\"remeasure_mismatch\":" << check.remeasureMismatch
       << ",\"sum_mismatch\":" << check.sumMismatch << "}"
       << ",\"counters\":" << countersJson(counters) << "}";
    return os.str();
}

/**
 * The hand-off after untraced tune @p tag: --handoffs fresh
 * processes serve its records (see runHandoff). They run between
 * tunes, so that they sample the host across the whole run rather
 * than in its last few seconds. Returns their output files as a JSON
 * array.
 */
std::string
runHandoffs(const Args &a, const std::string &tag)
{
    std::string files;
    for (int j = 0; j < a.handoffs; ++j) {
        const std::string out = a.workDir + "/handoff-" + tag + "-" +
                                std::to_string(j) + ".json";
        runSelf({"--mode", "handoff", "--network", a.network, "--batch",
                 std::to_string(a.batch), "--records",
                 a.workDir + "/records-" + tag + ".log", "--model-dir",
                 a.modelDir, "--work-dir", a.workDir, "--out", out});
        files += (j ? "," : "") + str(out);
    }
    return "[" + files + "]";
}

/**
 * The untraced pass and, with --trace 1, the traced one. Traced and
 * untraced tunes of the same seed alternate, so a drift in host
 * speed hits both passes alike. Each untraced tune is followed by
 * its hand-off.
 */
std::vector<std::string>
runTunePasses(const Args &a)
{
    const int numPasses = a.trace ? 2 : 1;
    std::vector<std::string> tunes(numPasses);
    std::vector<int> attempted(numPasses, 0), failed(numPasses, 0);
    for (int k = 0; k < a.tunes; ++k) {
        const uint64_t seed = a.seed * 1000 + static_cast<uint64_t>(k);
        for (int p = 0; p < numPasses; ++p) {
            const bool traced = p == 1;
            const std::string tag =
                std::string(traced ? "t" : "u") + std::to_string(k);
            const std::string traceFile =
                traced ? a.workDir + "/trace-" + tag + ".json" : "";
            if (traced)
                obs::Tracer::instance().start(traceFile);
            const std::string tune =
                runOneTune(a, seed, tag, &attempted[p], &failed[p]);
            if (traced && !obs::Tracer::instance().stop())
                die("cannot write trace " + traceFile);
            const std::string handoffs =
                traced ? "[]" : runHandoffs(a, tag);
            tunes[p] += (k ? "," : "") + tune.substr(0, tune.size() - 1) +
                        ",\"trace_file\":" + str(traceFile) +
                        ",\"handoff_files\":" + handoffs + "}";
        }
    }
    std::vector<std::string> passes;
    for (int p = 0; p < numPasses; ++p)
        passes.push_back("{\"traced\":" +
                         std::string(p == 1 ? "true" : "false") +
                         ",\"attempted\":" + std::to_string(attempted[p]) +
                         ",\"failed\":" + std::to_string(failed[p]) +
                         ",\"tunes\":[" + tunes[p] + "]}");
    return passes;
}

// ---------------------------------------------------------------
// Hand-off: a fresh process serves a tune's records, as felix-serve
// --records does after felix-tune --save-records. A fresh process
// because a session's answer latency settles at a level set by the
// heap it was built in.

/** Requests each hand-off process answers. */
constexpr int kHandoffRequests = 100;

std::string
runHandoff(const Args &a)
{
    serve::ServeOptions options;
    options.recordsPath = a.records;
    serve::ServeSession session(options, loadModel(a.modelDir));
    const std::string request = "{\"op\":\"tune\",\"network\":\"" +
                                a.network + "\",\"batch\":" +
                                std::to_string(a.batch) + "}";
    std::vector<double> serveUs, served;
    int errors = 0;
    for (int i = 0; i < kHandoffRequests; ++i) {
        const int64_t start = nowNs();
        const std::string response = session.handle(request);
        serveUs.push_back(microseconds(nowNs() - start));
        auto parsed = obs::parseJson(response);
        if (!parsed || parsed->stringOr("type", "") != "schedules" ||
            parsed->numberOr("cache_misses", -1.0) != 0.0) {
            ++errors;
            continue;
        }
        served.push_back(parsed->numberOr("latency_sec", -1.0));
    }
    const bool same = std::adjacent_find(served.begin(), served.end(),
                                         std::not_equal_to<>()) ==
                      served.end();
    return "{\"errors\":" + std::to_string(errors + (same ? 0 : 1)) +
           ",\"latency_s\":" + num(served.empty() ? -1.0 : served[0]) +
           ",\"serve_us\":" + numArray(serveUs) + "}";
}

// ---------------------------------------------------------------
// serve-zipf workload.

struct Key
{
    const char *network;
    int batch;
};

/**
 * The serve-zipf trace: the six evaluation networks at batch 1 and
 * 16, in Zipf rank order; tune requests at kRequestsPerSec drawing
 * keys from Zipf(kZipfExponent), a new key every kSecondsPerKey;
 * {"op":"rounds","n":1} requests at kRoundsPerSec on average, in
 * bursts of kRoundBurst due together. The bursts give the request
 * tail many blocking events of about the size of the largest misses,
 * so its p99 does not rest on the two or three longest misses of a
 * run. A burst and a miss each block the session for up to about
 * half a second, so they are due a second apart: half a second apart,
 * a host a sixth slower queued bursts behind misses, and those set
 * the p99 of the run. Set-up (model load + session
 * construction) is timed for the session that serves the trace and
 * then once a second for a spare session, so that the set-up figure
 * samples the whole run: single set-ups are fast or slow in spells
 * of about a second.
 */
constexpr Key kEvaluationKeys[] = {
    {"resnet50", 1},  {"mobilenet_v2", 1},  {"r3d_18", 1},
    {"dcgan", 1},     {"vit_b32", 1},       {"llama", 1},
    {"resnet50", 16}, {"mobilenet_v2", 16}, {"r3d_18", 16},
    {"dcgan", 16},    {"vit_b32", 16},      {"llama", 16},
};
constexpr double kZipfExponent = 1.0;
constexpr double kRequestsPerSec = 60.0;
constexpr int kSecondsPerKey = 2;
constexpr double kRoundsPerSec = 1.0;
constexpr int kRoundBurst = 2;

/** Event::key of a rounds request and of a spare set-up. */
constexpr int kRoundsEvent = -1;
constexpr int kSetupEvent = -2;

struct Event
{
    int64_t dueUs = 0;   ///< offset from the trace start
    int key = kRoundsEvent; ///< index into the keys, or one of the above
};

/**
 * The open-loop request schedule: tune requests every
 * 1/kRequestsPerSec s, and a burst of rounds requests every
 * kRoundBurst/kRoundsPerSec s, halfway into the period; a spare
 * set-up three quarters into every second.
 * Key k (rank order = list order) is first requested at second
 * k * kSecondsPerKey, so every seed pays the same misses at the same
 * times, between rounds; every other tune request draws its key from
 * a Zipf distribution over the keys introduced so far. Deterministic
 * in the seed.
 */
std::vector<Event>
makeTrace(const Args &a, size_t num_keys)
{
    std::vector<double> cdf;
    double total = 0.0;
    for (size_t r = 0; r < num_keys; ++r) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
        cdf.push_back(total);
    }
    Rng rng(a.seed);
    std::vector<Event> events;
    const int numRequests = static_cast<int>(kRequestsPerSec * a.seconds);
    const int perSecond = std::max(1, static_cast<int>(kRequestsPerSec));
    const int numKeys = static_cast<int>(num_keys);
    const int perKey = perSecond * kSecondsPerKey;
    for (int i = 0; i < numRequests; ++i) {
        const int introduced = std::min(numKeys, i / perKey + 1);
        int key = introduced - 1;
        if (i % perKey != 0 || i / perKey >= numKeys) {
            const double u = rng.uniform() * cdf[introduced - 1];
            key = std::min(
                introduced - 1,
                static_cast<int>(std::lower_bound(cdf.begin(),
                                                  cdf.begin() + introduced,
                                                  u) -
                                 cdf.begin()));
        }
        events.push_back(
            {static_cast<int64_t>(1e6 * i / kRequestsPerSec), key});
    }
    const int numRounds = static_cast<int>(kRoundsPerSec * a.seconds);
    const double roundPeriod = kRoundBurst / kRoundsPerSec;
    for (int i = 0; i < numRounds; ++i)
        events.push_back(
            {static_cast<int64_t>(
                 1e6 * ((i / kRoundBurst) * roundPeriod + roundPeriod / 2)),
             kRoundsEvent});
    for (int k = 0; k < static_cast<int>(a.seconds); ++k)
        events.push_back(
            {static_cast<int64_t>(1e6 * (k + 0.75)), kSetupEvent});
    std::stable_sort(events.begin(), events.end(),
                     [](const Event &x, const Event &y) {
                         return x.dueUs < y.dueUs;
                     });
    return events;
}

std::string
keyRequest(const Key &key)
{
    return std::string("{\"op\":\"tune\",\"network\":\"") + key.network +
           "\",\"batch\":" + std::to_string(key.batch) + "}";
}

std::string
runServePass(const Args &a, bool traced, const std::vector<Key> &keys,
             const std::vector<std::vector<graph::Task>> &keyTasks)
{
    const std::string traceFile =
        a.workDir + (traced ? "/trace-traced.json" : "");
    if (traced)
        obs::Tracer::instance().start(traceFile);

    const std::string roundLog = a.workDir + "/rounds-serve-" +
                                 (traced ? "t" : "u") + ".jsonl";
    serve::ServeOptions options;
    options.tuner.seed = a.seed;
    options.tuner.numThreads = a.jobs;
    options.tuner.roundLogPath = roundLog;
    // Spare sessions get a round log of their own, so the trace's
    // stays intact.
    serve::ServeOptions spareOptions = options;
    spareOptions.tuner.roundLogPath = roundLog + ".spare";
    std::vector<double> setupS;
    auto timedSetup = [&](const serve::ServeOptions &setup_options) {
        const int64_t t0 = nowNs();
        BenchSpan span("bench.setup");
        auto made = std::make_unique<serve::ServeSession>(
            setup_options, loadModel(a.modelDir));
        setupS.push_back(secondsSince(t0));
        return made;
    };
    std::unique_ptr<serve::ServeSession> session = timedSetup(options);

    // Fleet latency: the geometric mean over keys of each network's
    // latency with the tuner's current best schedules, so every key
    // weighs the same whatever its size; -1 until every key has been
    // requested.
    auto fleetLatency = [&]() {
        std::unordered_map<uint64_t, double> best;
        for (const tuner::TaskRecord &r :
             session->graphTuner().taskRecords())
            best[r.task.subgraph.structuralHash()] = r.bestLatencySec;
        double logSum = 0.0;
        for (const auto &tasks : keyTasks) {
            double network = tuner::TunerOptions{}.graphExecOverheadSec;
            for (const graph::Task &task : tasks) {
                auto it = best.find(task.subgraph.structuralHash());
                if (it == best.end())
                    return -1.0;
                network += task.weight * it->second;
            }
            logSum += std::log(network);
        }
        return std::exp(logSum / static_cast<double>(keyTasks.size()));
    };

    const std::vector<Event> events = makeTrace(a, keys.size());
    const auto before = counterValues();
    std::ostringstream requests, rounds;
    int attempted = 0, errors = 0;
    const int64_t origin = nowNs();
    for (size_t i = 0; i < events.size(); ++i) {
        const Event &event = events[i];
        const int64_t due = origin + event.dueUs * 1000;
        const int64_t wait = due - nowNs();
        if (wait > 0)
            std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
        if (event.key == kSetupEvent) {
            timedSetup(spareOptions);
            continue;
        }
        const std::string line = event.key == kRoundsEvent
                                     ? "{\"op\":\"rounds\",\"n\":1}"
                                     : keyRequest(keys[event.key]);
        ++attempted;
        const int64_t start = nowNs();
        std::string response;
        {
            BenchSpan span("bench.request");
            response = session->handle(line);
        }
        const int64_t end = nowNs();
        auto parsed = obs::parseJson(response);
        const std::string type =
            parsed ? parsed->stringOr("type", "") : "";
        const bool ok = type == (event.key < 0 ? "rounds" : "schedules");
        errors += ok ? 0 : 1;
        const bool miss =
            ok && event.key >= 0 &&
            parsed->numberOr("cache_misses", 0.0) > 0.0;
        requests << (requests.tellp() > 0 ? "," : "") << "{\"op\":\""
                 << (event.key < 0 ? "rounds" : miss ? "miss" : "hit")
                 << "\",\"due_us\":" << num(microseconds(due - origin))
                 << ",\"start_us\":" << num(microseconds(start - origin))
                 << ",\"end_us\":" << num(microseconds(end - origin))
                 << ",\"ok\":" << (ok ? "true" : "false") << "}";
        if (event.key < 0 && ok) {
            rounds << (rounds.tellp() > 0 ? "," : "")
                   << "{\"end_us\":" << num(microseconds(end - origin))
                   << ",\"fleet_s\":" << num(fleetLatency())
                   << ",\"clock_s\":"
                   << num(session->graphTuner().clockNow()) << "}";
        }
    }
    const auto counters = counterDelta(before);

    // Untimed closing sweep: every key once more, so the final
    // latency the session serves is part of the output check.
    double finalLogSum = 0.0;
    for (const Key &key : keys) {
        auto parsed = obs::parseJson(session->handle(keyRequest(key)));
        if (!parsed || parsed->stringOr("type", "") != "schedules") {
            ++errors;
            continue;
        }
        finalLogSum += std::log(parsed->numberOr("latency_sec", 0.0));
    }
    const double finalFleet =
        std::exp(finalLogSum / static_cast<double>(keys.size()));

    if (traced && !obs::Tracer::instance().stop())
        die("cannot write trace " + traceFile);

    std::ostringstream os;
    os << "{\"traced\":" << (traced ? "true" : "false")
       << ",\"attempted\":" << attempted << ",\"errors\":" << errors
       << ",\"trace_file\":" << str(traceFile)
       << ",\"round_log\":" << str(roundLog)
       << ",\"setup_s\":" << numArray(setupS)
       << ",\"final_fleet_s\":" << num(finalFleet)
       << ",\"final_fleet_check_s\":" << num(fleetLatency())
       << ",\"requests\":[" << requests.str() << "]"
       << ",\"rounds\":[" << rounds.str() << "]"
       << ",\"counters\":" << countersJson(counters) << "}";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    std::filesystem::create_directories(a.workDir);
    setGlobalJobs(a.jobs);

    std::string result;
    if (a.mode == "handoff") {
        result = runHandoff(a);
    } else {
        std::vector<std::string> passes;
        std::vector<graph::Task> jitTasks;
        if (a.mode == "tune") {
            passes = runTunePasses(a);
            if (a.trace)
                jitTasks = networkTasks(a.network, a.batch);
        } else {
            const std::vector<Key> keys(std::begin(kEvaluationKeys),
                                        std::end(kEvaluationKeys));
            std::vector<std::vector<graph::Task>> keyTasks;
            for (const Key &key : keys)
                keyTasks.push_back(networkTasks(key.network, key.batch));
            passes.push_back(runServePass(a, false, keys, keyTasks));
            if (a.trace) {
                passes.push_back(runServePass(a, true, keys, keyTasks));
                // Each distinct subgraph once, as the session
                // registers it.
                std::map<uint64_t, graph::Task> distinct;
                for (const auto &tasks : keyTasks)
                    for (const graph::Task &task : tasks)
                        distinct.emplace(task.subgraph.structuralHash(),
                                         task);
                for (auto &[hash, task] : distinct)
                    jitTasks.push_back(task);
            }
        }
        const double jitMs = a.trace ? jitCompileMs(jitTasks) : 0.0;
        result = "{\"lanes\":" + std::to_string(kBatchLanes) +
                 ",\"jit_compile_ms\":" + num(jitMs) +
                 ",\"peak_rss_kb\":" + std::to_string(peakRssKb()) +
                 ",\"passes\":[";
        for (size_t i = 0; i < passes.size(); ++i)
            result += (i ? "," : "") + passes[i];
        result += "]}";
    }

    std::ofstream out(a.out);
    out << result << "\n";
    out.close();
    if (!out)
        die("cannot write " + a.out);
    return 0;
}
