#include "exp/cli.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <utility>

#include "exp/report_json.hpp"
#include "obs/process_metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/tracer.hpp"
#include "runtime/thread_pool.hpp"

namespace hcloud::exp {

namespace {

void
printUsage(const char* prog, bool allowSweep = false)
{
    std::fprintf(stderr,
                 "usage: %s [loadScale] [seed] [threads] "
                 "[--json <path>] [--trace <path>] "
                 "[--timeline <path>] [--metrics-port <port>]%s\n",
                 prog,
                 allowSweep ? " [--seeds <n>] [--ci]" : "");
}

/**
 * Parse @p arg as a finite, strictly-positive double consuming the whole
 * token. Returns false (leaving @p out untouched) on any malformed or
 * out-of-range input — the callers treat that as a CLI error instead of
 * the old atof() behaviour of silently running with 0.0.
 */
bool
parsePositiveDouble(const char* arg, double& out)
{
    if (arg == nullptr || *arg == '\0')
        return false;
    errno = 0;
    char* end = nullptr;
    const double value = std::strtod(arg, &end);
    if (end == arg || *end != '\0' || errno == ERANGE)
        return false;
    if (!std::isfinite(value) || value <= 0.0)
        return false;
    out = value;
    return true;
}

/**
 * Parse @p arg as a base-10 u64 consuming the whole token. Rejects empty
 * tokens, signs (strtoull silently wraps "-1" to 2^64-1), trailing junk,
 * and out-of-range values.
 */
bool
parseU64(const char* arg, std::uint64_t& out)
{
    if (arg == nullptr || *arg == '\0' || *arg == '-' || *arg == '+')
        return false;
    errno = 0;
    char* end = nullptr;
    const unsigned long long value = std::strtoull(arg, &end, 10);
    if (end == arg || *end != '\0' || errno == ERANGE)
        return false;
    out = static_cast<std::uint64_t>(value);
    return true;
}

/** One record stream a bench can write as JSONL: its flag state, its
 *  environment switch and its writer. */
struct ArtifactStream
{
    const char* name; ///< "trace" / "timeline": flag and message stem
    const char* env;  ///< HCLOUD_TRACE / HCLOUD_TIMELINE
    bool requested;   ///< the flag was given (forces the stream on)
    const std::string& flagPath;
    bool (*write)(const std::string&, const Runner&, bool);

    /** On by the flag or by the environment. */
    bool on() const { return requested || obs::envSwitch(env).enabled; }

    /** Where the merged JSONL goes: the flag's path or the environment's
     *  named default; "" when the stream produces no file. */
    std::string path() const
    {
        if (!on())
            return "";
        return flagPath.empty() ? obs::envSwitch(env).path : flagPath;
    }
};

std::array<ArtifactStream, 2>
artifactStreams(const BenchCli& cli)
{
    return {{
        {"trace", obs::TraceConfig::kEnv, cli.traceRequested,
         cli.tracePath, &writeTraceJsonl},
        {"timeline", obs::TimelineConfig::kEnv, cli.timelineRequested,
         cli.timelinePath, &writeTimelineJsonl},
    }};
}

/** True when @p a and @p b name one file (up to ./ and ../ spelling). */
bool
samePath(const std::string& a, const std::string& b)
{
    std::error_code ec;
    const std::filesystem::path na = std::filesystem::absolute(a, ec);
    const std::filesystem::path nb = std::filesystem::absolute(b, ec);
    if (ec)
        return a == b;
    return na.lexically_normal() == nb.lexically_normal();
}

/** Report a malformed positional: stderr + usage + BenchCli error state. */
void
positionalError(BenchCli& cli, const char* prog, const char* what,
                const char* arg)
{
    cli.errorMessage = std::string(what) + ": '" + arg + "'";
    std::fprintf(stderr, "%s: %s\n", prog, cli.errorMessage.c_str());
    printUsage(prog);
    cli.parseError = true;
}

} // namespace

core::EngineConfig
BenchCli::engineConfig() const
{
    core::EngineConfig cfg;
    obs::RecordStreamConfig* configs[] = {&cfg.trace, &cfg.timeline};
    const std::array<ArtifactStream, 2> streams = artifactStreams(*this);
    for (std::size_t i = 0; i < streams.size(); ++i) {
        obs::RecordStreamConfig& stream = *configs[i];
        if (streams[i].requested)
            stream.mode = obs::RecordStreamConfig::Mode::On;
        // When the stream will produce a file, each run streams through a
        // sink part file derived from this stem, so the file is complete
        // however far a run outgrows the ring.
        stream.sinkStem = streams[i].path();
        // HCLOUD_TRACE_RING / HCLOUD_TIMELINE_RING resize the ring (CI
        // forces wraps with them). Consumed here at the CLI edge only, so
        // the library stays env-independent.
        const std::string ringVar = std::string(streams[i].env) + "_RING";
        if (const char* ring = std::getenv(ringVar.c_str())) {
            std::uint64_t capacity = 0;
            if (parseU64(ring, capacity) && capacity > 0)
                stream.ringCapacity = static_cast<std::size_t>(capacity);
        }
    }
    cfg.timeline.cadence = obs::envTimelineCadence(cfg.timeline.cadence);
    return cfg;
}

bool
BenchCli::wantsArtifacts() const
{
    const std::array<ArtifactStream, 2> streams = artifactStreams(*this);
    return !jsonPath.empty() ||
        std::any_of(streams.begin(), streams.end(),
                    [](const ArtifactStream& s) { return s.on(); });
}

std::optional<std::uint16_t>
BenchCli::effectiveMetricsPort() const
{
    if (metricsRequested)
        return metricsPort;
    if (const char* env = std::getenv("HCLOUD_METRICS_PORT")) {
        std::uint64_t port = 0;
        if (parseU64(env, port) && port <= 65535)
            return static_cast<std::uint16_t>(port);
    }
    return std::nullopt;
}

BenchCli
parseBenchCli(int argc, char** argv, bool allowSweep)
{
    BenchCli cli;
    int positional = 0;
    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        if (allowSweep && std::strcmp(arg, "--ci") == 0) {
            cli.ciRequested = true;
            continue;
        }
        if (allowSweep && std::strcmp(arg, "--seeds") == 0) {
            if (i + 1 >= argc) {
                cli.errorMessage = "--seeds requires a count";
                std::fprintf(stderr, "%s: %s\n", argv[0],
                             cli.errorMessage.c_str());
                printUsage(argv[0], allowSweep);
                cli.parseError = true;
                return cli;
            }
            std::uint64_t seeds = 0;
            if (!parseU64(argv[i + 1], seeds) || seeds == 0) {
                positionalError(cli, argv[0],
                                "--seeds must be a positive integer",
                                argv[i + 1]);
                return cli;
            }
            cli.seeds = static_cast<std::size_t>(seeds);
            ++i;
            continue;
        }
        if (std::strcmp(arg, "--json") == 0 ||
            std::strcmp(arg, "--trace") == 0 ||
            std::strcmp(arg, "--timeline") == 0) {
            if (i + 1 >= argc) {
                cli.errorMessage = std::string(arg) + " requires a path";
                std::fprintf(stderr, "%s: %s\n", argv[0],
                             cli.errorMessage.c_str());
                printUsage(argv[0]);
                cli.parseError = true;
                return cli;
            }
            if (arg[2] == 'j') {
                cli.jsonPath = argv[++i];
            } else if (std::strcmp(arg, "--trace") == 0) {
                cli.tracePath = argv[++i];
                cli.traceRequested = true;
            } else {
                cli.timelinePath = argv[++i];
                cli.timelineRequested = true;
            }
            continue;
        }
        if (std::strcmp(arg, "--metrics-port") == 0) {
            if (i + 1 >= argc) {
                cli.errorMessage = "--metrics-port requires a port";
                std::fprintf(stderr, "%s: %s\n", argv[0],
                             cli.errorMessage.c_str());
                printUsage(argv[0]);
                cli.parseError = true;
                return cli;
            }
            std::uint64_t port = 0;
            if (!parseU64(argv[i + 1], port) || port > 65535) {
                positionalError(cli, argv[0],
                                "--metrics-port must be 0..65535",
                                argv[i + 1]);
                return cli;
            }
            cli.metricsPort = static_cast<std::uint16_t>(port);
            cli.metricsRequested = true;
            ++i;
            continue;
        }
        if (arg[0] == '-' && arg[1] == '-') {
            cli.errorMessage = std::string("unknown flag ") + arg;
            std::fprintf(stderr, "%s: %s\n", argv[0],
                         cli.errorMessage.c_str());
            printUsage(argv[0]);
            cli.parseError = true;
            return cli;
        }
        switch (positional++) {
        case 0:
            if (!parsePositiveDouble(arg, cli.options.loadScale)) {
                positionalError(cli, argv[0],
                                "loadScale must be a finite number > 0",
                                arg);
                return cli;
            }
            break;
        case 1: {
            std::uint64_t seed = 0;
            if (!parseU64(arg, seed)) {
                positionalError(cli, argv[0],
                                "seed must be an unsigned 64-bit integer",
                                arg);
                return cli;
            }
            cli.options.seed = seed;
            break;
        }
        case 2: {
            std::uint64_t threads = 0;
            if (!parseU64(arg, threads)) {
                positionalError(
                    cli, argv[0],
                    "threads must be an unsigned integer", arg);
                return cli;
            }
            cli.options.threads = static_cast<std::size_t>(threads);
            break;
        }
        default:
            cli.errorMessage = "too many arguments";
            std::fprintf(stderr, "%s: %s\n", argv[0],
                         cli.errorMessage.c_str());
            printUsage(argv[0]);
            cli.parseError = true;
            return cli;
        }
    }
    // Validate the HCLOUD_THREADS knob here at the edge: the bench is
    // about to hand options.threads == 0 to a ThreadPool, whose
    // defaultThreadCount() throws on a malformed value. Rejecting it as
    // a CLI error keeps the failure structured and before any work.
    if (cli.options.threads == 0) {
        if (const char* env = std::getenv("HCLOUD_THREADS")) {
            runtime::ThreadCountError error;
            if (!runtime::parseThreadCount(env, &error)) {
                cli.errorMessage = "HCLOUD_THREADS=\"" + error.value +
                    "\": " + error.reason;
                std::fprintf(stderr, "%s: %s\n", argv[0],
                             cli.errorMessage.c_str());
                cli.parseError = true;
                return cli;
            }
        }
    }
    // Two artifacts at one path would overwrite each other, and two
    // streams would share their part files: refuse before any work.
    std::vector<std::pair<std::string, std::string>> outputs;
    if (!cli.jsonPath.empty())
        outputs.emplace_back("json", cli.jsonPath);
    for (const ArtifactStream& stream : artifactStreams(cli)) {
        if (!stream.path().empty())
            outputs.emplace_back(stream.name, stream.path());
    }
    for (std::size_t i = 0; i < outputs.size(); ++i) {
        for (std::size_t j = i + 1; j < outputs.size(); ++j) {
            if (!samePath(outputs[i].second, outputs[j].second))
                continue;
            cli.errorMessage = outputs[i].first + " and " +
                outputs[j].first + " outputs share the path '" +
                outputs[j].second + "'";
            std::fprintf(stderr, "%s: %s\n", argv[0],
                         cli.errorMessage.c_str());
            printUsage(argv[0], allowSweep);
            cli.parseError = true;
            return cli;
        }
    }
    return cli;
}

bool
writeBenchArtifacts(const BenchCli& cli, const std::string& title,
                    const Runner& runner,
                    const std::vector<SweepResult>& sweeps)
{
    bool ok = true;
    if (!cli.jsonPath.empty()) {
        if (writeJsonReport(cli.jsonPath, title, runner, sweeps)) {
            std::printf("wrote JSON report: %s\n", cli.jsonPath.c_str());
        } else {
            std::fprintf(stderr, "failed to write JSON report: %s\n",
                         cli.jsonPath.c_str());
            ok = false;
        }
    }
    for (const ArtifactStream& stream : artifactStreams(cli)) {
        const std::string path = stream.path();
        if (path.empty())
            continue;
        if (stream.write(path, runner, /*removeParts=*/true)) {
            std::printf("wrote %s JSONL: %s\n", stream.name, path.c_str());
        } else {
            std::fprintf(stderr, "failed to write %s JSONL: %s\n",
                         stream.name, path.c_str());
            ok = false;
        }
    }
    return ok;
}

ScopedMetricsServer::ScopedMetricsServer(const BenchCli& cli)
{
    const std::optional<std::uint16_t> port = cli.effectiveMetricsPort();
    if (!port)
        return;
    // Scrapers poll this counter for progress; registering it up front
    // makes the very first scrape see it at 0 instead of a missing
    // series (publication only starts when the first run finishes).
    obs::ProcessMetrics::instance().counter(
        "hcloud_run_completed_total",
        "Engine runs completed by experiment runners");
    std::string error;
    if (!server_.start(*port, &error)) {
        std::fprintf(stderr, "metrics server failed to start: %s\n",
                     error.c_str());
        failed_ = true;
        return;
    }
    std::printf("metrics: serving http://127.0.0.1:%u/metrics\n",
                static_cast<unsigned>(server_.boundPort()));
    // The port line is how scripts discover an ephemeral port; flush past
    // stdio's block buffering so a pipe reader sees it before the sweep.
    std::fflush(stdout);
}

ScopedMetricsServer::~ScopedMetricsServer()
{
    server_.stop();
}

} // namespace hcloud::exp
