/**
 * @file
 * Small helpers shared by the serving benchmark: clocks, order
 * statistics, process CPU/RSS readings, registry scrapes and the
 * ordered metric record the benchmark prints.
 */
#ifndef SERVEBENCH_UTIL_HPP
#define SERVEBENCH_UTIL_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.hpp"

namespace servebench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Linear-interpolated quantile (q in [0, 1]); 0 for no samples. */
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/** User + system CPU seconds of the whole process. */
double processCpuSeconds();
/** CPU seconds of the calling thread. */
double threadCpuSeconds();
/** Peak resident set of the process, MiB. */
double peakRssMiB();

/**
 * One reading of a server registry plus the process-global one. Lookups
 * by name and label return 0 for a series that does not exist, so a
 * series a later change removes reads as zero instead of breaking the
 * benchmark.
 */
struct Scrape
{
    std::vector<bbs::obs::MetricSnapshot> series;

    const bbs::obs::MetricSnapshot *find(std::string_view name,
                                         std::string_view labels = "") const;
    double counter(std::string_view name, std::string_view labels = "") const;
    double gauge(std::string_view name, std::string_view labels = "") const;
};

Scrape scrape(const bbs::obs::Registry &server);

/** Counter increase between two scrapes. */
double counterDelta(const Scrape &a, const Scrape &b, std::string_view name,
                    std::string_view labels = "");

/**
 * The histogram observed between two scrapes (bucket-wise difference);
 * count 0 when the series is absent.
 */
bbs::obs::MetricSnapshot histogramDelta(const Scrape &a, const Scrape &b,
                                        std::string_view name,
                                        std::string_view labels = "");

/** Mean of a histogram delta (sum / count); 0 when empty. */
double histogramMean(const bbs::obs::MetricSnapshot &h);

/** Ordered name -> (value, unit) list: the metrics of one result. */
struct MetricList
{
    struct Entry
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };
    std::vector<Entry> entries;

    void
    add(std::string name, double value, std::string unit)
    {
        entries.push_back({std::move(name), value, std::move(unit)});
    }
    /** JSON object {"name": {"value": v, "unit": u}, ...}. */
    std::string json() const;
};

/** A double printed with all its digits (JSON number; non-finite -> 0). */
std::string jsonNumber(double v);
/** A JSON string literal. */
std::string jsonString(std::string_view s);

} // namespace servebench

#endif // SERVEBENCH_UTIL_HPP
