#include "obs/record_stream.hpp"

#include <cstdlib>
#include <string_view>

#include "obs/process_metrics.hpp"

namespace hcloud::obs {

EnvSwitch
envSwitch(const char* var)
{
    const char* raw = std::getenv(var);
    const std::string_view v = raw ? raw : "";
    if (v.empty() || v == "0" || v == "off" || v == "false")
        return {};
    if (v == "1" || v == "on" || v == "true")
        return {true, ""};
    return {true, std::string(v)};
}

bool
RecordStreamConfig::resolveEnabled(const char* envVar) const
{
    switch (mode) {
      case Mode::Off:
        return false;
      case Mode::On:
        return true;
      case Mode::Auto:
        return envSwitch(envVar).enabled;
    }
    return false;
}

void
publishRecordBuffer(const RecordStreamMetrics& metrics,
                    std::uint64_t recorded, std::uint64_t dropped,
                    std::size_t retained, bool sinkOk)
{
    // Publishing happens at take(), not per push(): the record path runs
    // once per sim event or sampling tick and must stay free of
    // shared-cache traffic.
    ProcessMetrics& pm = ProcessMetrics::instance();
    pm.counter(metrics.recorded, metrics.recordedHelp)
        .inc(static_cast<double>(recorded));
    pm.counter(metrics.dropped, metrics.droppedHelp)
        .inc(static_cast<double>(dropped));
    pm.gauge(metrics.occupancy, metrics.occupancyHelp)
        .set(static_cast<double>(retained));
    pm.gauge(metrics.sinkOk, metrics.sinkOkHelp).set(sinkOk ? 1.0 : 0.0);
}

} // namespace hcloud::obs
