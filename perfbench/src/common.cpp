#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "obs/json.hpp"

#include <malloc.h>
#include <sys/stat.h>

namespace perfbench {

void
WorkloadResult::set(const std::string& name, double value,
                    const std::string& unit, std::uint64_t samples)
{
    for (auto& [n, m] : metrics) {
        if (n == name) {
            m = Metric{value, unit, samples};
            return;
        }
    }
    metrics.emplace_back(name, Metric{value, unit, samples});
}

void
WorkloadResult::check(const std::string& name, bool ok,
                      const std::string& detail)
{
    checks.push_back(Check{name, ok, detail});
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    // Nearest rank: the smallest value with at least q of the samples at
    // or below it.
    std::size_t rank = static_cast<std::size_t>(
        q * static_cast<double>(v.size()) + 0.999999999);
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

double
peakRssMb()
{
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0.0;
    char line[256];
    double kb = 0.0;
    while (std::fgets(line, sizeof line, f)) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) {
            kb = std::strtod(line + 6, nullptr);
            break;
        }
    }
    std::fclose(f);
    return kb / 1024.0;
}

void
resetPeakRss()
{
    malloc_trim(0);
    if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
        std::fputs("5", f);
        std::fclose(f);
    }
}

void
Fnv::bytes(const void* data, std::size_t n)
{
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h_ ^= p[i];
        h_ *= 1099511628211ull;
    }
}

void
Fnv::str(const std::string& s)
{
    u64(s.size());
    bytes(s.data(), s.size());
}

std::string
Fnv::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

std::string
wallNote(const std::string& workload, const std::vector<double>& wall,
         double events, double jobs)
{
    const double w = median(wall);
    char line[192];
    std::snprintf(line, sizeof line,
                  "%s: wall clock, not gated: wall_s %.4f s, events_per_s "
                  "%.1f ev/s, jobs_per_s %.1f 1/s (medians of %zu)",
                  workload.c_str(), w, events / w, jobs / w, wall.size());
    return line;
}

std::string
listSeconds(const std::vector<double>& v)
{
    std::string out;
    char buf[32];
    for (double s : v) {
        std::snprintf(buf, sizeof buf, "%s%.3f", out.empty() ? "" : " ", s);
        out += buf;
    }
    return out + " s";
}

long long
countLines(const std::string& path)
{
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (!f)
        return -1;
    std::vector<char> buf(1 << 20);
    long long lines = 0;
    std::size_t n = 0;
    while ((n = std::fread(buf.data(), 1, buf.size(), f)) > 0)
        lines += std::count(buf.data(), buf.data() + n, '\n');
    std::fclose(f);
    return lines;
}

std::uint64_t
fileBytes(const std::string& path)
{
    struct stat st{};
    if (::stat(path.c_str(), &st) != 0)
        return 0;
    return static_cast<std::uint64_t>(st.st_size);
}

std::vector<SpanLine>
readSpans(const std::string& path)
{
    std::vector<SpanLine> spans;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.compare(0, 8, "{\"span\":") != 0)
            continue;
        const hcloud::obs::JsonValue v = hcloud::obs::parseJson(line);
        SpanLine s;
        s.name = v.find("span")->stringOr("");
        s.id = static_cast<std::uint64_t>(v.find("id")->numberOr(0.0));
        s.parent =
            static_cast<std::uint64_t>(v.find("parent")->numberOr(0.0));
        s.seconds = v.find("durNs")->numberOr(0.0) / 1e9;
        spans.push_back(std::move(s));
    }
    return spans;
}

double
spanSeconds(const std::vector<SpanLine>& spans, const std::string& name,
            std::uint64_t* count)
{
    double total = 0.0;
    std::uint64_t n = 0;
    for (const SpanLine& s : spans) {
        if (s.name == name) {
            total += s.seconds;
            ++n;
        }
    }
    if (count)
        *count = n;
    return total;
}

void
addSelfSeconds(const std::vector<SpanLine>& spans,
               std::map<std::string, double>& perLayer)
{
    // A connection's wait in the daemon's accept queue is not work in
    // any layer.
    auto counted = [](const SpanLine& s) {
        return s.name != "http.accept_wait";
    };
    std::map<std::uint64_t, double> children;
    for (const SpanLine& s : spans)
        if (s.parent != 0 && counted(s))
            children[s.parent] += s.seconds;
    static const std::map<std::string, std::string> kDaemon = {
        {"http", "srv"},
        {"engine", "srv"},
        {"journal", "srv"},
        {"strand", "runtime"},
    };
    for (const SpanLine& s : spans) {
        if (!counted(s))
            continue;
        std::string layer = s.name.substr(0, s.name.find('.'));
        if (const auto it = kDaemon.find(layer); it != kDaemon.end())
            layer = it->second;
        const auto kids = children.find(s.id);
        const double self =
            s.seconds - (kids == children.end() ? 0.0 : kids->second);
        perLayer[layer] += std::max(0.0, self);
    }
}

std::string
daemonSpanPath(const std::string& spanPath)
{
    const std::string ext = ".jsonl";
    if (spanPath.size() >= ext.size() &&
        spanPath.compare(spanPath.size() - ext.size(), ext.size(), ext) == 0)
        return spanPath.substr(0, spanPath.size() - ext.size()) +
            "-daemon" + ext;
    return spanPath + "-daemon";
}

} // namespace perfbench
