#include "util.hpp"

#include <cmath>
#include <cstdio>
#include <ctime>

#include <sys/resource.h>

#include "common/stats.hpp"

namespace servebench {

double
quantile(std::vector<double> v, double q)
{
    return v.empty() ? 0.0 : bbs::percentile(std::move(v), q * 100.0);
}

namespace {

double
cpuClockSeconds(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

} // namespace

double
processCpuSeconds()
{
    return cpuClockSeconds(CLOCK_PROCESS_CPUTIME_ID);
}

double
threadCpuSeconds()
{
    return cpuClockSeconds(CLOCK_THREAD_CPUTIME_ID);
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

const bbs::obs::MetricSnapshot *
Scrape::find(std::string_view name, std::string_view labels) const
{
    for (const auto &s : series)
        if (s.name == name && s.labels == labels)
            return &s;
    return nullptr;
}

double
Scrape::counter(std::string_view name, std::string_view labels) const
{
    const auto *s = find(name, labels);
    return s ? static_cast<double>(s->counterValue) : 0.0;
}

double
Scrape::gauge(std::string_view name, std::string_view labels) const
{
    const auto *s = find(name, labels);
    return s ? static_cast<double>(s->gaugeValue) : 0.0;
}

Scrape
scrape(const bbs::obs::Registry &server)
{
    Scrape out;
    out.series = server.snapshot();
    auto global = bbs::obs::Registry::global().snapshot();
    out.series.insert(out.series.end(), global.begin(), global.end());
    return out;
}

double
counterDelta(const Scrape &a, const Scrape &b, std::string_view name,
             std::string_view labels)
{
    return b.counter(name, labels) - a.counter(name, labels);
}

bbs::obs::MetricSnapshot
histogramDelta(const Scrape &a, const Scrape &b, std::string_view name,
               std::string_view labels)
{
    bbs::obs::MetricSnapshot out;
    out.type = bbs::obs::MetricSnapshot::Type::Histogram;
    const auto *hb = b.find(name, labels);
    if (!hb)
        return out;
    out = *hb;
    if (const auto *ha = a.find(name, labels)) {
        for (std::size_t i = 0;
             i < out.bucketCounts.size() && i < ha->bucketCounts.size(); ++i)
            out.bucketCounts[i] -= ha->bucketCounts[i];
        out.count -= ha->count;
        out.sum -= ha->sum;
    }
    return out;
}

double
histogramMean(const bbs::obs::MetricSnapshot &h)
{
    return h.count > 0 ? h.sum / static_cast<double>(h.count) : 0.0;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonString(std::string_view s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
MetricList::json() const
{
    std::string out = "{";
    for (std::size_t i = 0; i < entries.size(); ++i) {
        if (i)
            out += ", ";
        out += jsonString(entries[i].name) + ": {\"value\": " +
               jsonNumber(entries[i].value) +
               ", \"unit\": " + jsonString(entries[i].unit) + "}";
    }
    return out + "}";
}

} // namespace servebench
