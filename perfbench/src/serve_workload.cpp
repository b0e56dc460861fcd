/**
 * @file
 * serve-mixed: the daemon stack (srv::ServeApp) on loopback, driven by a
 * closed loop.
 *
 * The whole pass runs pinned to one CPU. A round starts a fresh ServeApp
 * — HTTP workers and engine pool sized to the kConnections client
 * connections — and creates the tenant fleet over HTTP, one tenant per
 * connection: HM tenants with the daemon's defaults (the paper's 2 h
 * scenario at load scale 1, profiling on, timeline sampling every 30
 * virtual seconds), one per paper scenario, journaling to a scratch
 * directory with fsync `never` so the journal's encode-and-append path
 * runs without timing the disk. That is the round's set-up.
 *
 * The traffic is the repository's job model: each tenant submits the
 * JobSpecs of workload::generateScenario for its own scenario, in
 * arrival order, the same traces the simulator workloads run, up to
 * kReplaySeconds of virtual time. Between
 * submits the tenant advances its clock at the daemon's timeline
 * cadence and reads its report after every kReportEvery advances. Each
 * connection drives its tenant and waits for every reply before it sends
 * the next request. Every reply is checked for its fields; after
 * the loop every tenant's report must count exactly the jobs submitted
 * to it.
 *
 * The traced pass runs one more round with the daemon's own span
 * tracing on (ServeConfig::spanPath) and reads the srv rows from its
 * spans (strand.wait, engine.submit, engine.advance, engine.report,
 * journal.append) and from the per-stage histograms on /metrics. It
 * also times request-body parsing and tenant set-up in-process.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>

#include "cloud/provider_profile.hpp"
#include "common.hpp"
#include "core/engine_run.hpp"
#include "core/strategy.hpp"
#include "obs/json.hpp"
#include "obs/process_metrics.hpp"
#include "obs/span.hpp"
#include "sim/rng.hpp"
#include "srv/http_client.hpp"
#include "srv/json_api.hpp"
#include "srv/serve_app.hpp"
#include "workload/scenario.hpp"

namespace perfbench {

namespace {

using namespace hcloud;

/** A report read after every kReportEvery advances: every 2 virtual
 *  minutes at the daemon's 30 s timeline cadence, so a 35 s run has
 *  over 1000 report samples and at least 10 beyond the report p99. */
constexpr std::size_t kReportEvery = 4;

/**
 * A round replays the first kReplaySeconds of every tenant's scenario,
 * so it lasts well under a second and a run's median covers dozens of
 * rounds. Whole 2 h traces made rounds of 3-5 s; with only 5-9 of them
 * per run, the IQR/median spread of the run medians over five seeds
 * was 0.31-0.50.
 */
constexpr double kReplaySeconds = 1800.0;

/** Tenants, one per paper scenario, each with its own connection. */
constexpr std::size_t kConnections = 3;

/**
 * Pins the calling thread, and so every thread it starts afterwards, to
 * the first CPU it may run on. False when it cannot.
 *
 * serve-mixed runs on one CPU because a request that wakes a thread on
 * another CPU of a VM costs CPU time that depends on the host's load:
 * in one busy period a round took 1.9 CPU seconds spread over the CPUs
 * and 1.2 pinned, with half the system time.
 */
bool
pinToOneCpu()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        return false;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (!CPU_ISSET(c, &allowed))
            continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(c, &one);
        return ::sched_setaffinity(0, sizeof one, &one) == 0;
    }
    return false;
}

enum Route
{
    Submit,
    Advance,
    Report,
    kRoutes,
};
const char* const kRouteNames[kRoutes] = {"submit", "advance", "report"};

struct Op
{
    Route route = Submit;
    std::string target;
    std::string body;
};

/** One tenant's scripted round: its create body and request list. */
struct TenantScript
{
    std::string id;
    std::string createBody;
    workload::ScenarioConfig scenario;
    std::uint64_t engineSeed = 0;
    std::vector<Op> ops;
    std::uint64_t submits = 0;
};

/**
 * One script per tenant. Tenant t runs scenario kAllScenarios[t % 3] with
 * its own seed; the scenario's length and load scale are the daemon's
 * defaults. Its requests are the scenario trace's jobs that arrive in the
 * first kReplaySeconds, in arrival order, an advance to every multiple of
 * @p cadence virtual seconds the arrivals cross, and a report read after
 * every kReportEvery advances.
 */
std::vector<TenantScript>
makeScripts(std::size_t tenants, std::uint64_t seed, double cadence)
{
    std::vector<TenantScript> scripts(tenants);
    const sim::Rng root(seed);
    for (std::size_t t = 0; t < tenants; ++t) {
        TenantScript& s = scripts[t];
        sim::Rng rng = root.child(static_cast<std::uint64_t>(t));
        s.id = "pb-" + std::to_string(t);
        s.scenario.kind = workload::kAllScenarios[t % 3];
        s.scenario.seed = rng.child("scenario").seed();
        s.engineSeed = rng.child("engine").seed();

        obs::JsonWriter w;
        w.beginObject();
        w.field("id", s.id);
        w.field("strategy", "HM");
        w.key("scenario");
        w.beginObject();
        w.field("kind", workload::toString(s.scenario.kind));
        w.field("seed", s.scenario.seed);
        w.endObject();
        w.key("engine");
        w.beginObject();
        w.field("seed", s.engineSeed);
        w.endObject();
        w.endObject();
        s.createBody = w.take();

        std::vector<workload::JobSpec> jobs =
            workload::generateScenario(s.scenario).jobs();
        std::stable_sort(jobs.begin(), jobs.end(),
                         [](const workload::JobSpec& x,
                            const workload::JobSpec& y) {
                             return x.arrival < y.arrival;
                         });
        const std::string base = "/v1/tenants/" + s.id;
        double nextAdvance = cadence;
        std::size_t advances = 0;
        for (const workload::JobSpec& job : jobs) {
            if (job.arrival >= kReplaySeconds)
                break;
            while (job.arrival >= nextAdvance) {
                obs::JsonWriter a;
                a.beginObject();
                a.field("to", nextAdvance);
                a.endObject();
                s.ops.push_back(Op{Advance, base + "/advance", a.take()});
                nextAdvance += cadence;
                if (++advances % kReportEvery == 0)
                    s.ops.push_back(Op{Report, base + "/report", {}});
            }
            obs::JsonWriter b;
            srv::jobSpecJson(b, job);
            s.ops.push_back(Op{Submit, base + "/jobs", b.take()});
            ++s.submits;
        }
    }
    return scripts;
}

/** Cheap reply check: status 200 and the route's fields present. */
bool
replyOk(Route route, const srv::ClientResponse& r)
{
    if (!r.ok || r.status != 200)
        return false;
    auto has = [&](const char* key) {
        return r.body.find(key) != std::string::npos;
    };
    switch (route) {
      case Submit:
        return has("\"job\":") && has("\"state\":") && has("\"decisions\":");
      case Advance:
        return has("\"now\":") && has("\"decisions\":");
      case Report:
        return has("\"jobs\":") && has("\"finished\":") && has("\"run\":");
      default:
        return false;
    }
}

/** Sum and count of one labeled histogram series in Prometheus text. */
std::pair<double, double>
promSumCount(const std::string& text, const std::string& family,
             const std::string& labels)
{
    auto value = [&](const std::string& series) {
        const std::size_t at = text.find(series + " ");
        if (at == std::string::npos)
            return 0.0;
        return std::strtod(text.c_str() + at + series.size() + 1, nullptr);
    };
    return {value(family + "_sum" + labels),
            value(family + "_count" + labels)};
}

const char* const kStages[] = {"read", "route", "handle", "write"};

struct RoundStats
{
    /** Process CPU seconds of server start and fleet creation. */
    double setup = 0.0;
    double rssMb = 0.0;
    double wall = 0.0;
    /** Process CPU seconds of the closed loop, client threads included. */
    double cpu = 0.0;
    std::uint64_t requests = 0;
    std::uint64_t failed = 0;
    std::uint64_t events = 0;
    bool reportsOk = true;
    std::string reportDetail;
    std::vector<double> latency[kRoutes];
    /** Per-stage (sum seconds, count) deltas over the loop. */
    std::map<std::string, std::pair<double, double>> stages;
    std::uint64_t timelineSamples = 0;
    std::uint64_t decisions = 0;
};

/**
 * A thread running @p fn that never lets an exception escape: a throw is
 * reported on stderr and counted in @p failures (std::thread would end
 * the process instead).
 */
template <typename Fn>
std::thread
guardedThread(std::atomic<std::uint64_t>& failures, Fn fn)
{
    return std::thread([&failures, fn]() mutable {
        try {
            fn();
        } catch (const std::exception& e) {
            std::fprintf(stderr, "perfbench: serve client thread: %s\n",
                         e.what());
            failures.fetch_add(1);
        }
    });
}

/**
 * One round: start the daemon, create the fleet, run the closed loop,
 * check every tenant's report, stop. @p spanPath non-empty turns the
 * daemon's span tracing on for the round.
 */
RoundStats
serveRound(const RunOptions& opts, const std::vector<TenantScript>& scripts,
           int roundIndex, const std::string& spanPath = {})
{
    const bool traced = !spanPath.empty();
    namespace fs = std::filesystem;
    RoundStats st;
    const std::size_t connections = scripts.size();
    const std::string dataDir =
        opts.workDir + "/serve-" + std::to_string(roundIndex);
    fs::create_directories(dataDir);

    obs::ProcessMetrics metrics;
    srv::ServeConfig config;
    config.threads = connections;
    config.httpWorkers = connections;
    config.maxPendingConnections = 2 * connections + 16;
    config.journal.dataDir = dataDir;
    config.journal.fsync = srv::FsyncPolicy::Never;
    config.spanPath = spanPath;

    resetPeakRss();
    const double setupCpu = processCpuSeconds();
    auto app = std::make_unique<srv::ServeApp>(config, metrics);
    std::string error;
    if (!app->start(0, &error)) {
        std::fprintf(stderr, "perfbench: serve start failed: %s\n",
                     error.c_str());
        st.failed = 1;
        st.requests = 1;
        return st;
    }
    // One keep-alive connection per tenant for the whole round: a new
    // connection would wait for an HTTP worker that an earlier one still
    // holds. Connection 0 also carries the /metrics and report reads.
    std::vector<std::unique_ptr<srv::HttpClient>> clients;
    for (std::size_t c = 0; c < connections; ++c)
        clients.push_back(
            std::make_unique<srv::HttpClient>(app->boundPort()));
    std::atomic<std::uint64_t> createFailures{0};
    {
        std::vector<std::thread> workers;
        for (std::size_t c = 0; c < connections; ++c) {
            workers.push_back(guardedThread(createFailures, [&, c] {
                const srv::ClientResponse r =
                    clients[c]->post("/v1/tenants", scripts[c].createBody);
                if (r.status != 201)
                    createFailures.fetch_add(1);
            }));
        }
        for (std::thread& w : workers)
            w.join();
    }
    st.setup = cpuSince(setupCpu);

    srv::HttpClient& probe = *clients.front();
    const std::string before = traced ? probe.get("/metrics").body : "";

    std::vector<RoundStats> perConn(connections);
    std::atomic<std::uint64_t> failures{createFailures.load()};
    const double loopCpu = processCpuSeconds();
    const Clock::time_point loopStart = Clock::now();
    {
        std::vector<std::thread> workers;
        for (std::size_t c = 0; c < connections; ++c) {
            workers.push_back(guardedThread(failures, [&, c] {
                srv::HttpClient& client = *clients[c];
                RoundStats& mine = perConn[c];
                for (const Op& op : scripts[c].ops) {
                    const Clock::time_point t0 = Clock::now();
                    const srv::ClientResponse r = op.route == Report
                        ? client.get(op.target)
                        : client.post(op.target, op.body);
                    mine.latency[op.route].push_back(secondsSince(t0));
                    ++mine.requests;
                    if (!replyOk(op.route, r))
                        failures.fetch_add(1);
                }
            }));
        }
        for (std::thread& w : workers)
            w.join();
    }
    st.wall = secondsSince(loopStart);
    st.cpu = cpuSince(loopCpu);
    st.rssMb = peakRssMb();
    for (RoundStats& c : perConn) {
        st.requests += c.requests;
        for (int r = 0; r < kRoutes; ++r)
            st.latency[r].insert(st.latency[r].end(), c.latency[r].begin(),
                                 c.latency[r].end());
    }

    if (traced) {
        const std::string after = probe.get("/metrics").body;
        for (const char* stage : kStages) {
            const std::string labels =
                std::string("{stage=\"") + stage + "\"}";
            const auto b =
                promSumCount(before, "hcloud_http_stage_seconds", labels);
            const auto a =
                promSumCount(after, "hcloud_http_stage_seconds", labels);
            st.stages[stage] = {a.first - b.first, a.second - b.second};
        }
    }

    // Every tenant's report must count exactly the jobs submitted to it.
    std::uint64_t badReports = 0;
    for (const TenantScript& s : scripts) {
        const srv::ClientResponse r =
            probe.get("/v1/tenants/" + s.id + "/report");
        bool ok = r.status == 200;
        if (ok) {
            const obs::JsonValue v = obs::parseJson(r.body);
            const obs::JsonValue* jobs = v.find("jobs");
            const obs::JsonValue* run = v.find("run");
            const obs::JsonValue* tel = run ? run->find("telemetry") : nullptr;
            const obs::JsonValue* events =
                tel ? tel->find("events_processed") : nullptr;
            ok = jobs && jobs->numberOr(-1.0) ==
                    static_cast<double>(s.submits) &&
                events;
            if (events)
                st.events +=
                    static_cast<std::uint64_t>(events->numberOr(0.0));
        }
        if (!ok)
            ++badReports;
    }
    st.reportsOk = badReports == 0;
    st.reportDetail = std::to_string(scripts.size() - badReports) + "/" +
        std::to_string(scripts.size()) + " tenant reports count their jobs";
    for (const auto& row : app->sessions().status()) {
        st.timelineSamples += row.timelineSamples;
        st.decisions += row.decisions;
    }
    st.failed += failures.load() + badReports;
    clients.clear();
    app->stop();
    app.reset();
    fs::remove_all(dataDir);
    return st;
}

/** Mean microseconds per call of parseBody + parseJobSpec over the
 *  round's own job bodies. */
void
probeParse(const std::vector<TenantScript>& scripts, WorkloadResult& out)
{
    std::vector<const Op*> submits;
    for (const TenantScript& s : scripts)
        for (const Op& op : s.ops)
            if (op.route == Submit)
                submits.push_back(&op);

    obs::SpanScope span("srv.parse_job_bodies");
    const Clock::time_point t0 = Clock::now();
    double sink = 0.0;
    for (const Op* op : submits)
        sink += srv::parseJobSpec(srv::parseBody(op->body)).arrival;
    const double parseSec = secondsSince(t0);
    if (sink < 0.0)
        std::fprintf(stderr, "unreachable\n");
    out.set("srv.json_parse_us",
            parseSec * 1e6 / static_cast<double>(submits.size()), "us",
            submits.size());
}

/** Tenant set-up pieces in-process: one scenario trace and one engine
 *  per tenant, as EngineSession builds them. */
void
probeTenantSetup(const std::vector<TenantScript>& scripts,
                 WorkloadResult& out)
{
    static const cloud::ProviderProfile profile =
        cloud::ProviderProfile::gce();
    const auto factory = [](core::EngineContext& ctx) {
        return core::makeStrategy(core::StrategyKind::HM, ctx);
    };
    double gen = 0.0, build = 0.0;
    for (const TenantScript& s : scripts) {
        Clock::time_point t0 = Clock::now();
        {
            obs::SpanScope span("workload.generate_scenario");
            const workload::ArrivalTrace trace =
                workload::generateScenario(s.scenario);
            gen += secondsSince(t0);
        }
        core::EngineConfig cfg;
        cfg.seed = s.engineSeed;
        t0 = Clock::now();
        {
            obs::SpanScope span("core.engine_build");
            core::EngineRun engine(cfg, profile, factory);
            build += secondsSince(t0);
        }
    }
    out.set("workload.generate_s", gen, "s");
    out.set("workload.generate_calls", static_cast<double>(scripts.size()),
            "count");
    out.set("core.engine_build_s", build, "s");
    out.set("profiling.bootstrap_s",
            static_cast<double>(scripts.size()) * bootstrapSeconds(), "s");
}

void
addRouteLatencies(const std::vector<double> (&latency)[kRoutes],
                  WorkloadResult& out, bool asLayerMetrics)
{
    for (int r = 0; r < kRoutes; ++r) {
        const std::vector<double>& v = latency[r];
        const double p50 = quantile(v, 0.50) * 1e3;
        const double p99 = quantile(v, 0.99) * 1e3;
        char line[160];
        std::snprintf(line, sizeof line,
                      "serve-mixed: %-7s p50 %.4f ms  p99 %.4f ms  "
                      "(%zu samples%s)",
                      kRouteNames[r], p50, p99, v.size(),
                      enoughForQuantile(v.size(), 0.99)
                          ? ""
                          : ", under 10 beyond p99");
        out.notes.push_back(line);
        if (asLayerMetrics) {
            const std::string base =
                std::string("srv.") + kRouteNames[r] + "_rtt_";
            out.set(base + "p50_ms", p50, "ms", v.size());
            out.set(base + "p99_ms", p99, "ms", v.size());
        }
    }
}

} // namespace

WorkloadResult
runServeMixed(const RunOptions& opts)
{
    WorkloadResult out;
    if (!pinToOneCpu())
        throw std::runtime_error("cannot pin serve-mixed to one CPU");
    const std::size_t connections = kConnections;
    const std::vector<TenantScript> scripts =
        makeScripts(connections, opts.seed,
                    srv::ServeConfig{}.timelineCadence);
    const double budget = opts.trace ? opts.seconds / 2 : opts.seconds;

    std::vector<RoundStats> rounds;
    const HostSpeed host;
    const std::vector<double> factors = repeatWithin(host, budget, [&] {
        rounds.push_back(
            serveRound(opts, scripts, static_cast<int>(rounds.size())));
    });

    std::vector<double> setup, wall, rawCpu, cpu, evps, rps, rss;
    std::vector<double> latency[kRoutes];
    bool reportsOk = true;
    bool eventsStable = true;
    for (std::size_t i = 0; i < rounds.size(); ++i) {
        const RoundStats& r = rounds[i];
        const double scaled = r.cpu * factors[i];
        setup.push_back(r.setup * factors[i]);
        wall.push_back(r.wall);
        rawCpu.push_back(r.cpu);
        cpu.push_back(scaled);
        rss.push_back(r.rssMb);
        evps.push_back(static_cast<double>(r.events) / scaled);
        rps.push_back(static_cast<double>(r.requests) / scaled);
        out.attempted += r.requests;
        out.failed += r.failed;
        reportsOk = reportsOk && r.reportsOk;
        eventsStable = eventsStable && r.events == rounds.front().events;
        for (int k = 0; k < kRoutes; ++k)
            latency[k].insert(latency[k].end(), r.latency[k].begin(),
                              r.latency[k].end());
    }
    out.check("serve.replies_have_fields", out.failed == 0,
              std::to_string(out.failed) + " of " +
                  std::to_string(out.attempted) + " requests failed");
    out.check("serve.reports_count_jobs", reportsOk,
              rounds.front().reportDetail);
    out.check("serve.events_stable", eventsStable,
              std::to_string(rounds.front().events) +
                  " engine events per round");
    Fnv h;
    h.u64(rounds.front().events);
    h.u64(rounds.front().decisions);
    h.u64(rounds.front().timelineSamples);
    out.digests["serve.round"] = h.hex();
    out.notes.push_back(
        "serve-mixed: " + std::to_string(rounds.size()) + " rounds, " +
        std::to_string(scripts.size()) + " tenants over " +
        std::to_string(connections) + " connections, " +
        std::to_string(rounds.front().requests) + " requests per round");
    // Route latencies come from the untraced rounds in both passes; the
    // traced pass reports them as srv rows.
    addRouteLatencies(latency, out, opts.trace);
    out.notes.push_back("serve-mixed: wall per round " + listSeconds(wall));
    out.notes.push_back("serve-mixed: CPU per round " + listSeconds(rawCpu));

    if (!opts.trace) {
        const auto n = static_cast<std::uint64_t>(rounds.size());
        out.notes.push_back(hostFactorNote(factors, host));
        out.notes.push_back(
            wallNote(opts.workload, wall,
                     static_cast<double>(rounds.front().events),
                     static_cast<double>(rounds.front().requests)));
        out.set("setup_s", median(setup), "s", n);
        out.set("cpu_s", median(cpu), "s", n);
        out.set("events_per_cpu_s", median(evps), "ev/s", n);
        out.set("jobs_per_cpu_s", median(rps), "1/s", n);
        // The first round's peak: each round starts new daemon and client
        // threads, and glibc hands new threads further malloc arenas, so
        // later rounds' peaks grow with the number of rounds run.
        out.set("peak_rss_mb", rounds.front().rssMb, "MiB", 1);
        return out;
    }

    const std::string daemonSpans = daemonSpanPath(opts.spanPath);
    const RoundStats traced = serveRound(opts, scripts, 1000, daemonSpans);
    obs::SpanTracer tracer(obs::SpanTracerConfig{opts.spanPath});
    {
        TraceRoot root(&tracer);
        probeParse(scripts, out);
        probeTenantSetup(scripts, out);
    }
    tracer.flush();
    out.attempted += traced.requests;
    out.failed += traced.failed;
    out.check("serve.traced_round_ok",
              traced.failed == 0 && traced.reportsOk &&
                  traced.events == rounds.front().events,
              traced.reportDetail);

    // The daemon's own spans of the traced round. An engine.advance span
    // under engine.submit is the submit's own clock step, not a route.
    const std::vector<SpanLine> spans = readSpans(daemonSpans);
    out.check("spans.recorded", !spans.empty(),
              std::to_string(spans.size()) + " daemon spans in " +
                  daemonSpans);
    addSelfSeconds(spans, out.layerSelfSeconds);
    addSelfSeconds(readSpans(opts.spanPath), out.layerSelfSeconds);
    std::map<std::uint64_t, const std::string*> nameOf;
    for (const SpanLine& sp : spans)
        nameOf[sp.id] = &sp.name;
    std::map<std::string, std::pair<double, std::uint64_t>> perName;
    for (const SpanLine& sp : spans) {
        if (sp.name == "engine.advance") {
            const auto parent = nameOf.find(sp.parent);
            if (parent != nameOf.end() && *parent->second == "engine.submit")
                continue;
        }
        perName[sp.name].first += sp.seconds;
        ++perName[sp.name].second;
    }
    auto meanRow = [&](const char* row, const char* span, double scale,
                       const char* unit) {
        const auto [sum, n] = perName[span];
        out.set(row, n > 0 ? scale * sum / static_cast<double>(n) : 0.0,
                unit, n);
    };
    meanRow("srv.strand_wait_ms", "strand.wait", 1e3, "ms");
    meanRow("srv.engine_submit_ms", "engine.submit", 1e3, "ms");
    meanRow("srv.engine_advance_ms", "engine.advance", 1e3, "ms");
    meanRow("srv.report_render_ms", "engine.report", 1e3, "ms");
    meanRow("srv.journal_append_us", "journal.append", 1e6, "us");

    for (const char* stage : kStages) {
        const auto [sum, count] = traced.stages.at(stage);
        out.set(std::string("srv.http_") + stage + "_ms",
                count > 0 ? 1e3 * sum / count : 0.0, "ms",
                static_cast<std::uint64_t>(count));
    }
    out.set("core.events", static_cast<double>(traced.events), "count");
    out.set("obs.trace_records", static_cast<double>(traced.decisions),
            "count");
    out.set("obs.timeline_records",
            static_cast<double>(traced.timelineSamples), "count");
    const double handle = traced.stages.at("handle").first;
    out.set("runtime.pool_idle_frac",
            1.0 - handle / (static_cast<double>(connections) * traced.wall),
            "fraction");
    out.set("trace.overhead_s", traced.wall - median(wall), "s");
    return out;
}

} // namespace perfbench
