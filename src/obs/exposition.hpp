/**
 * @file
 * Metric exposition: turn a Registry snapshot into the two wire shapes
 * the project speaks — Prometheus text format (for scraping / the
 * `--metrics-dump` flags) and the bench `--json` record shape (so soak
 * timelines land next to BENCH_*.json artifacts and tooling that reads
 * one reads both).
 *
 * Also a small Prometheus text parser: enough of the format to
 * round-trip our own exposition (HELP/TYPE comments, counters, gauges,
 * histogram _bucket/_sum/_count series with `le` labels). It exists so
 * tests and the soak harness can assert on scraped values instead of
 * string-matching, not to ingest arbitrary third-party expositions.
 */
#ifndef BBS_OBS_EXPOSITION_HPP
#define BBS_OBS_EXPOSITION_HPP

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.hpp"

namespace bbs {
class JsonWriter;
}

namespace bbs::obs {

/**
 * Write @p metrics in Prometheus text exposition format (version 0.0.4):
 * `# HELP` / `# TYPE` comment pairs, `name{labels} value` samples,
 * histograms as cumulative `_bucket{le="..."}` series plus `_sum` and
 * `_count`. Counters keep whatever `_total` suffix their registered
 * name carries (naming is the registrant's job).
 */
void writePrometheus(const std::vector<MetricSnapshot> &metrics,
                     std::ostream &out);

/** writePrometheus into a string (CLI / demo dump convenience). */
std::string prometheusText(const std::vector<MetricSnapshot> &metrics);

/**
 * Write @p metrics as one JSON object in the bench record shape:
 * `{"name": ..., "labels": ..., "type": ..., value fields}` entries in a
 * `"metrics"` array, emitted through @p w (the caller owns the
 * enclosing document, so a soak timeline can embed one scrape per
 * window). `w` must be positioned where a value is legal.
 */
void writeJsonRecords(const std::vector<MetricSnapshot> &metrics,
                      JsonWriter &w);

/**
 * Estimate the @p q quantile (q in [0, 1]) of a histogram snapshot by
 * linear interpolation within the owning bucket — the standard
 * Prometheus `histogram_quantile` estimator. The rank is interpolated
 * between the bucket's lower bound (the previous bound, or 0 for the
 * first bucket) and its upper bound by the rank's position among the
 * bucket's observations. A quantile landing in the +Inf tail returns
 * the last finite bound (the estimator cannot see past it). The total
 * is the sum of @p h.bucketCounts (h.count is not read). Returns 0 for
 * an empty histogram or a snapshot that is not a histogram.
 *
 * ServerStats derives its p50/p99 latencies here, over the full run at
 * bucket resolution; test_obs checks the estimate against the exact
 * raw-sample percentile.
 */
double histogramQuantile(const MetricSnapshot &h, double q);

/** One sample parsed back out of Prometheus text. */
struct ParsedSample
{
    std::string name;   ///< full series name (incl. _bucket/_sum/_count)
    std::string labels; ///< raw label body without braces, "" if none
    double value = 0.0;
};

/** A parsed exposition: samples in document order plus TYPE map. */
struct ParsedExposition
{
    std::vector<ParsedSample> samples;
    /** metric family name -> declared TYPE (counter/gauge/histogram). */
    std::map<std::string, std::string> types;

    /** First sample matching @p name (and @p labels if non-empty);
     *  returns nullptr when absent. */
    const ParsedSample *find(std::string_view name,
                             std::string_view labels = "") const;
};

/**
 * Parse Prometheus text exposition. Returns false (and leaves @p out in
 * an unspecified state) on a line that is neither a comment, blank, nor
 * a `name[{labels}] value` sample.
 */
bool parsePrometheusText(std::string_view text, ParsedExposition &out);

} // namespace bbs::obs

#endif // BBS_OBS_EXPOSITION_HPP
