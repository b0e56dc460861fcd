#include "obs/metrics_registry.hpp"

#include <algorithm>

namespace hcloud::obs {

namespace {

bool
validFirstChar(char c, bool allowColon)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           (allowColon && c == ':');
}

bool
validChar(char c, bool allowColon)
{
    return validFirstChar(c, allowColon) || (c >= '0' && c <= '9');
}

bool
isValidName(std::string_view name, bool allowColon)
{
    if (name.empty() || !validFirstChar(name.front(), allowColon))
        return false;
    for (char c : name)
        if (!validChar(c, allowColon))
            return false;
    return true;
}

std::string
sanitizeName(std::string_view name, bool allowColon)
{
    if (name.empty())
        return "_";
    std::string out;
    out.reserve(name.size() + 1);
    if (!validFirstChar(name.front(), allowColon) &&
        validChar(name.front(), allowColon))
        out += '_'; // leading digit: prefix instead of erasing it
    for (char c : name)
        out += validChar(c, allowColon) ? c : '_';
    return out;
}

/** Sanitized lookup shared by the three metric maps. */
template <typename Map>
typename Map::mapped_type&
getOrCreate(Map& map, std::string_view name)
{
    if (isValidName(name, /*allowColon=*/true)) {
        auto it = map.find(name);
        if (it == map.end())
            it = map.emplace(std::string(name),
                             typename Map::mapped_type{})
                     .first;
        return it->second;
    }
    const std::string sanitized = sanitizeName(name, /*allowColon=*/true);
    auto it = map.find(sanitized);
    if (it == map.end())
        it = map.emplace(sanitized, typename Map::mapped_type{}).first;
    return it->second;
}

} // namespace

bool
isValidMetricName(std::string_view name)
{
    return isValidName(name, /*allowColon=*/true);
}

std::string
sanitizeMetricName(std::string_view name)
{
    return sanitizeName(name, /*allowColon=*/true);
}

std::string
sanitizeLabelName(std::string_view name)
{
    return sanitizeName(name, /*allowColon=*/false);
}

const char*
toString(MetricSample::Kind kind)
{
    switch (kind) {
      case MetricSample::Kind::Counter:
        return "counter";
      case MetricSample::Kind::Gauge:
        return "gauge";
      case MetricSample::Kind::Histogram:
        return "histogram";
    }
    return "?";
}

Counter&
MetricsRegistry::counter(std::string_view name)
{
    return getOrCreate(counters_, name);
}

Gauge&
MetricsRegistry::gauge(std::string_view name)
{
    return getOrCreate(gauges_, name);
}

HistogramMetric&
MetricsRegistry::histogram(std::string_view name)
{
    return getOrCreate(histograms_, name);
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot out;
    out.reserve(size());
    for (const auto& [name, c] : counters_) {
        MetricSample s;
        s.name = name;
        s.kind = MetricSample::Kind::Counter;
        s.count = c.value();
        s.value = static_cast<double>(c.value());
        out.push_back(std::move(s));
    }
    for (const auto& [name, g] : gauges_) {
        MetricSample s;
        s.name = name;
        s.kind = MetricSample::Kind::Gauge;
        s.value = g.value();
        out.push_back(std::move(s));
    }
    for (const auto& [name, h] : histograms_) {
        MetricSample s;
        s.name = name;
        s.kind = MetricSample::Kind::Histogram;
        const sim::SampleSet& samples = h.samples();
        s.count = samples.count();
        if (!samples.empty()) {
            s.value = samples.mean();
            const std::vector<double> q =
                samples.quantiles({0.50, 0.95, 0.99, 1.0});
            s.p50 = q[0];
            s.p95 = q[1];
            s.p99 = q[2];
            s.max = q[3];
        }
        out.push_back(std::move(s));
    }
    std::sort(out.begin(), out.end(),
              [](const MetricSample& a, const MetricSample& b) {
                  if (a.name != b.name)
                      return a.name < b.name;
                  return static_cast<int>(a.kind) <
                         static_cast<int>(b.kind);
              });
    return out;
}

} // namespace hcloud::obs
