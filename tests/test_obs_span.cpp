/**
 * @file
 * obs::Span machinery: disabled scopes are inert, nesting parents
 * correctly, JSONL round-trips, cross-thread binding handoff, the
 * chrome://tracing converter, TraceSink::appendLine, TraceEvent trace-id
 * stamping, and obs::Log leveling + rate limiting.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/span.hpp"
#include "obs/trace_sink.hpp"
#include "obs/tracer.hpp"

namespace hcloud {
namespace {

/** A unique temp path (removed by the fixture dtor). */
class TempFile
{
  public:
    explicit TempFile(const char* tag)
        : path_(std::string("/tmp/hcloud_test_span_") + tag + "_" +
                std::to_string(::getpid()) + ".jsonl")
    {
    }
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string& path() const { return path_; }

  private:
    std::string path_;
};

std::vector<obs::JsonValue>
readJsonl(const std::string& path)
{
    std::vector<obs::JsonValue> records;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty())
            records.push_back(obs::parseJson(line));
    }
    return records;
}

TEST(SpanTracer, DisabledWithoutSinkPath)
{
    obs::SpanTracer tracer;
    EXPECT_FALSE(tracer.enabled());
    tracer.span(1, 2, 0, "noop", 10, 20);
    tracer.event(1, 2, "noop", 0.0);
    EXPECT_EQ(tracer.recorded(), 0u);
}

TEST(SpanTracer, DisabledWhenSinkPathUnwritable)
{
    obs::SpanTracerConfig config;
    config.sinkPath = "/nonexistent-dir/spans.jsonl";
    obs::SpanTracer tracer(config);
    EXPECT_FALSE(tracer.enabled());
}

TEST(SpanScope, InertWithoutBinding)
{
    // No SpanBinding on this thread: the scope must be a no-op.
    obs::SpanScope scope("orphan");
    EXPECT_FALSE(scope.active());
    EXPECT_FALSE(obs::currentSpanContext().valid());
    EXPECT_EQ(obs::currentSpanTracer(), nullptr);
}

TEST(SpanScope, InertWhenTracerDisabled)
{
    obs::SpanTracer tracer; // no sink -> disabled
    obs::SpanBinding bind(&tracer, obs::SpanContext{1, 2});
    obs::SpanScope scope("noop");
    EXPECT_FALSE(scope.active());
    EXPECT_EQ(tracer.recorded(), 0u);
}

TEST(SpanScope, NestedScopesParentUnderEachOther)
{
    TempFile file("nested");
    obs::SpanTracerConfig config;
    config.sinkPath = file.path();
    obs::SpanTracer tracer(config);
    ASSERT_TRUE(tracer.enabled());

    const std::uint64_t trace = tracer.newTraceId();
    const std::uint64_t root = tracer.newSpanId();
    {
        obs::SpanBinding bind(&tracer, obs::SpanContext{trace, root});
        obs::SpanScope outer("outer");
        ASSERT_TRUE(outer.active());
        EXPECT_EQ(obs::currentSpanContext().trace, trace);
        EXPECT_NE(obs::currentSpanContext().span, root);
        {
            obs::SpanScope inner("inner", "detail \"quoted\"");
            ASSERT_TRUE(inner.active());
        }
    }
    EXPECT_FALSE(obs::currentSpanContext().valid());
    tracer.flush();
    EXPECT_EQ(tracer.recorded(), 2u);

    // Inner closes first, so it is the first record; its parent must be
    // the outer span's id, whose parent in turn is the bound root.
    const std::vector<obs::JsonValue> records = readJsonl(file.path());
    ASSERT_EQ(records.size(), 2u);
    const obs::JsonValue& inner = records[0];
    const obs::JsonValue& outer = records[1];
    EXPECT_EQ(inner.find("span")->stringOr(""), "inner");
    EXPECT_EQ(outer.find("span")->stringOr(""), "outer");
    EXPECT_EQ(inner.find("trace")->numberOr(0), outer.find("trace")->numberOr(0));
    EXPECT_EQ(inner.find("parent")->numberOr(0),
              outer.find("id")->numberOr(-1));
    EXPECT_EQ(outer.find("parent")->numberOr(0),
              static_cast<double>(root));
    EXPECT_EQ(inner.find("detail")->stringOr(""), "detail \"quoted\"");
    EXPECT_GE(inner.find("durNs")->numberOr(-1), 0.0);
}

TEST(SpanBinding, RestoresPreviousBindingAndCrossesThreads)
{
    TempFile file("binding");
    obs::SpanTracerConfig config;
    config.sinkPath = file.path();
    obs::SpanTracer tracer(config);

    const obs::SpanContext outerCtx{tracer.newTraceId(),
                                    tracer.newSpanId()};
    obs::SpanBinding outer(&tracer, outerCtx);
    {
        const obs::SpanContext innerCtx{tracer.newTraceId(),
                                        tracer.newSpanId()};
        obs::SpanBinding inner(&tracer, innerCtx);
        EXPECT_EQ(obs::currentSpanContext().trace, innerCtx.trace);
    }
    EXPECT_EQ(obs::currentSpanContext().trace, outerCtx.trace);

    // A fresh thread has no binding until it installs the handoff, and
    // its scopes then join the originating trace.
    std::thread worker([&tracer, outerCtx] {
        EXPECT_EQ(obs::currentSpanTracer(), nullptr);
        obs::SpanBinding bind(&tracer, outerCtx);
        obs::SpanScope scope("cross.thread");
        EXPECT_TRUE(scope.active());
    });
    worker.join();
    tracer.flush();

    const std::vector<obs::JsonValue> records = readJsonl(file.path());
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].find("span")->stringOr(""), "cross.thread");
    EXPECT_EQ(records[0].find("trace")->numberOr(0),
              static_cast<double>(outerCtx.trace));
}

TEST(SpanTracer, EventCarriesSimTimeAndJoinsTrace)
{
    TempFile file("event");
    obs::SpanTracerConfig config;
    config.sinkPath = file.path();
    obs::SpanTracer tracer(config);
    tracer.event(7, 3, "decision", 123.5, "job 9 BelowSoftLimit");
    tracer.flush();

    const std::vector<obs::JsonValue> records = readJsonl(file.path());
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].find("event")->stringOr(""), "decision");
    EXPECT_EQ(records[0].find("trace")->numberOr(0), 7.0);
    EXPECT_EQ(records[0].find("parent")->numberOr(0), 3.0);
    EXPECT_EQ(records[0].find("t")->numberOr(0), 123.5);
    EXPECT_GT(records[0].find("ns")->numberOr(0), 0.0);
}

TEST(WriteChromeTrace, ConvertsSpansAndEvents)
{
    std::istringstream in(
        "{\"span\":\"http.request\",\"trace\":1,\"id\":2,\"parent\":0,"
        "\"startNs\":1000,\"durNs\":5000,\"detail\":\"POST /x 200\"}\n"
        "{\"event\":\"decision\",\"trace\":1,\"parent\":2,\"ns\":2000,"
        "\"t\":42.0}\n"
        "not json at all\n");
    std::ostringstream out;
    std::string error;
    ASSERT_TRUE(obs::writeChromeTrace(in, out, &error));
    EXPECT_NE(error.find("1 unrecognized"), std::string::npos);

    const obs::JsonValue doc = obs::parseJson(out.str());
    const obs::JsonValue* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->array.size(), 2u);
    const obs::JsonValue& span = events->array[0];
    EXPECT_EQ(span.find("ph")->stringOr(""), "X");
    EXPECT_EQ(span.find("tid")->numberOr(0), 1.0);
    EXPECT_EQ(span.find("ts")->numberOr(0), 1.0);  // 1000 ns -> 1 us
    EXPECT_EQ(span.find("dur")->numberOr(0), 5.0); // 5000 ns -> 5 us
    const obs::JsonValue& instant = events->array[1];
    EXPECT_EQ(instant.find("ph")->stringOr(""), "i");
    EXPECT_EQ(instant.find("args")->find("simTime")->numberOr(0), 42.0);
}

TEST(WriteChromeTrace, FailsOnEmptyInput)
{
    std::istringstream in("\n\n");
    std::ostringstream out;
    std::string error;
    EXPECT_FALSE(obs::writeChromeTrace(in, out, &error));
    EXPECT_FALSE(error.empty());
}

TEST(TraceSink, AppendLineWritesVerbatimLines)
{
    TempFile file("sink");
    {
        obs::TraceSink sink(file.path());
        ASSERT_TRUE(sink.ok());
        EXPECT_TRUE(sink.appendLine("{\"a\":1}"));
        EXPECT_TRUE(sink.appendLine("{\"b\":2}"));
        EXPECT_EQ(sink.written(), 2u);
    }
    std::ifstream in(file.path());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "{\"a\":1}");
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "{\"b\":2}");
}

TEST(TraceEventTraceId, StampedByActiveTraceAndRoundTrips)
{
    obs::TraceConfig config;
    config.mode = obs::TraceConfig::Mode::On;
    obs::Tracer tracer(config);

    tracer.setActiveTrace(99);
    tracer.decision(1.0, obs::DecisionReason::BelowSoftLimit, 5, 0, 0.5,
                    "st16");
    tracer.setActiveTrace(0);
    tracer.decision(2.0, obs::DecisionReason::BelowSoftLimit, 6, 0, 0.5,
                    "st16");

    const obs::TraceBuffer buffer = tracer.take();
    ASSERT_EQ(buffer.records.size(), 2u);
    EXPECT_EQ(buffer.records[0].trace, 99u);
    EXPECT_EQ(buffer.records[1].trace, 0u);

    // JSONL: trace emitted only when nonzero, and parsed back.
    const std::string withTrace = obs::toJson(buffer.records[0]);
    const std::string without = obs::toJson(buffer.records[1]);
    EXPECT_NE(withTrace.find("\"trace\":99"), std::string::npos);
    EXPECT_EQ(without.find("\"trace\""), std::string::npos);
    obs::TraceEvent parsed;
    ASSERT_TRUE(obs::eventFromJsonLine(withTrace, &parsed));
    EXPECT_EQ(parsed.trace, 99u);
    ASSERT_TRUE(obs::eventFromJsonLine(without, &parsed));
    EXPECT_EQ(parsed.trace, 0u);
}

TEST(Log, LevelsFilterAndFieldsAppend)
{
    obs::Log log;
    std::FILE* tmp = std::tmpfile();
    ASSERT_NE(tmp, nullptr);
    log.setStream(tmp);

    EXPECT_FALSE(log.debug("below_min"));
    EXPECT_TRUE(log.info("hello", [](obs::JsonWriter& w) {
        w.field("answer", 42);
    }));
    EXPECT_EQ(log.written(), 1u);

    std::rewind(tmp);
    char buffer[512] = {};
    ASSERT_NE(std::fgets(buffer, sizeof(buffer), tmp), nullptr);
    const obs::JsonValue record = obs::parseJson(buffer);
    EXPECT_EQ(record.find("level")->stringOr(""), "info");
    EXPECT_EQ(record.find("event")->stringOr(""), "hello");
    EXPECT_EQ(record.find("answer")->numberOr(0), 42.0);
    EXPECT_GT(record.find("ts")->numberOr(0), 0.0);
    std::fclose(tmp);
}

TEST(Log, RateLimitSuppressesButErrorPasses)
{
    obs::LogConfig config;
    config.maxPerSec = 1.0;
    config.burst = 3.0;
    obs::Log log(config);
    std::FILE* tmp = std::tmpfile();
    ASSERT_NE(tmp, nullptr);
    log.setStream(tmp);

    std::uint64_t admitted = 0;
    for (int i = 0; i < 100; ++i) {
        if (log.info("spam"))
            ++admitted;
    }
    // The burst ceiling bounds admissions; the refill over the loop's
    // microseconds is far below one extra token.
    EXPECT_LE(admitted, 4u);
    EXPECT_GT(log.suppressed(), 0u);

    // Error bypasses the bucket even when it is empty.
    EXPECT_TRUE(log.error("always"));

    // The next admitted record is preceded by a log_suppressed line.
    std::rewind(tmp);
    std::string contents;
    char buffer[512];
    while (std::fgets(buffer, sizeof(buffer), tmp))
        contents += buffer;
    EXPECT_NE(contents.find("log_suppressed"), std::string::npos);
    std::fclose(tmp);
}

} // namespace
} // namespace hcloud
