#include "obs/exposition.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <limits>
#include <sstream>

#include "common/json_writer.hpp"

namespace bbs::obs {

namespace {

const char *
typeName(MetricSnapshot::Type t)
{
    switch (t) {
    case MetricSnapshot::Type::Counter: return "counter";
    case MetricSnapshot::Type::Gauge: return "gauge";
    case MetricSnapshot::Type::Histogram: return "histogram";
    }
    return "untyped";
}

/** `name{labels}` or just `name`, with extra labels appended. */
void
writeSeries(std::ostream &out, const std::string &name,
            const std::string &labels, std::string_view extra = "")
{
    out << name;
    if (!labels.empty() || !extra.empty()) {
        out << '{' << labels;
        if (!labels.empty() && !extra.empty())
            out << ',';
        out << extra << '}';
    }
}

std::string
formatLe(double bound)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.12g", bound);
    return buf;
}

} // namespace

void
writePrometheus(const std::vector<MetricSnapshot> &metrics, std::ostream &out)
{
    // HELP/TYPE are per metric family; emit them once even when several
    // label sets share a name (snapshot order groups them by
    // registration, which registers label sets of one family together
    // in practice — duplicates are harmless to Prometheus anyway, but
    // stay clean for the common case).
    std::string lastFamily;
    for (const MetricSnapshot &m : metrics) {
        if (m.name != lastFamily) {
            if (!m.help.empty())
                out << "# HELP " << m.name << ' ' << m.help << '\n';
            out << "# TYPE " << m.name << ' ' << typeName(m.type) << '\n';
            lastFamily = m.name;
        }
        switch (m.type) {
        case MetricSnapshot::Type::Counter:
            writeSeries(out, m.name, m.labels);
            out << ' ' << m.counterValue << '\n';
            break;
        case MetricSnapshot::Type::Gauge:
            writeSeries(out, m.name, m.labels);
            out << ' ' << m.gaugeValue << '\n';
            break;
        case MetricSnapshot::Type::Histogram: {
            // Cumulative buckets, per the exposition format.
            std::uint64_t cum = 0;
            for (std::size_t i = 0; i < m.bounds.size(); ++i) {
                cum += m.bucketCounts[i];
                writeSeries(out, m.name + "_bucket", m.labels,
                            "le=\"" + formatLe(m.bounds[i]) + "\"");
                out << ' ' << cum << '\n';
            }
            cum += m.bucketCounts[m.bounds.size()];
            writeSeries(out, m.name + "_bucket", m.labels, "le=\"+Inf\"");
            out << ' ' << cum << '\n';
            writeSeries(out, m.name + "_sum", m.labels);
            out << ' ' << JsonWriter::number(m.sum) << '\n';
            writeSeries(out, m.name + "_count", m.labels);
            out << ' ' << m.count << '\n';
            break;
        }
        }
    }
}

std::string
prometheusText(const std::vector<MetricSnapshot> &metrics)
{
    std::ostringstream oss;
    writePrometheus(metrics, oss);
    return oss.str();
}

void
writeJsonRecords(const std::vector<MetricSnapshot> &metrics, JsonWriter &w)
{
    w.beginObject();
    w.key("metrics");
    w.beginArray();
    for (const MetricSnapshot &m : metrics) {
        w.beginObject();
        w.member("name", m.name);
        if (!m.labels.empty())
            w.member("labels", m.labels);
        w.member("type", typeName(m.type));
        switch (m.type) {
        case MetricSnapshot::Type::Counter:
            w.member("value", m.counterValue);
            break;
        case MetricSnapshot::Type::Gauge:
            w.member("value", m.gaugeValue);
            break;
        case MetricSnapshot::Type::Histogram:
            w.member("count", m.count);
            w.member("sum", m.sum);
            w.key("bounds");
            w.beginArray();
            for (double b : m.bounds)
                w.value(b);
            w.endArray();
            w.key("buckets");
            w.beginArray();
            for (std::uint64_t c : m.bucketCounts)
                w.value(c);
            w.endArray();
            break;
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

// -------------------------------------------------------------- estimation

double
histogramQuantile(const MetricSnapshot &h, double q)
{
    if (h.type != MetricSnapshot::Type::Histogram)
        return 0.0;
    // Total the buckets walked below rather than trusting h.count: a
    // count read apart from the buckets can run ahead of them, and a
    // rank past the bucket sum would walk off the ladder to its top.
    std::uint64_t total = 0;
    for (std::uint64_t c : h.bucketCounts)
        total += c;
    if (total == 0)
        return 0.0;
    q = std::min(std::max(q, 0.0), 1.0);
    // The observation whose value we estimate: rank in [1, total].
    double rank = q * static_cast<double>(total);
    if (rank < 1.0)
        rank = 1.0;
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.bucketCounts.size(); ++i) {
        std::uint64_t inBucket = h.bucketCounts[i];
        if (inBucket == 0)
            continue;
        double below = static_cast<double>(cumulative);
        cumulative += inBucket;
        if (rank > static_cast<double>(cumulative))
            continue;
        if (i >= h.bounds.size()) // +Inf tail: unbounded above
            return h.bounds.empty() ? 0.0 : h.bounds.back();
        double lower = i == 0 ? 0.0 : h.bounds[i - 1];
        double upper = h.bounds[i];
        double frac = (rank - below) / static_cast<double>(inBucket);
        return lower + (upper - lower) * frac;
    }
    return h.bounds.empty() ? 0.0 : h.bounds.back();
}

// ------------------------------------------------------------------ parser

const ParsedSample *
ParsedExposition::find(std::string_view name, std::string_view labels) const
{
    for (const ParsedSample &s : samples) {
        if (s.name != name)
            continue;
        if (!labels.empty() && s.labels.find(labels) == std::string::npos)
            continue;
        return &s;
    }
    return nullptr;
}

bool
parsePrometheusText(std::string_view text, ParsedExposition &out)
{
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t eol = text.find('\n', pos);
        std::string_view line = text.substr(
            pos, eol == std::string_view::npos ? std::string_view::npos
                                               : eol - pos);
        pos = eol == std::string_view::npos ? text.size() : eol + 1;

        // Trim trailing CR / surrounding spaces.
        while (!line.empty() &&
               (line.back() == '\r' || line.back() == ' '))
            line.remove_suffix(1);
        while (!line.empty() && line.front() == ' ')
            line.remove_prefix(1);
        if (line.empty())
            continue;

        if (line.front() == '#') {
            // "# TYPE name kind" is the only comment we retain.
            constexpr std::string_view kType = "# TYPE ";
            if (line.substr(0, kType.size()) == kType) {
                std::string_view rest = line.substr(kType.size());
                std::size_t sp = rest.find(' ');
                if (sp == std::string_view::npos)
                    return false;
                out.types[std::string(rest.substr(0, sp))] =
                    std::string(rest.substr(sp + 1));
            }
            continue;
        }

        ParsedSample s;
        // name[{labels}] value
        std::size_t brace = line.find('{');
        std::size_t nameEnd;
        if (brace != std::string_view::npos) {
            // The closing brace must be found OUTSIDE quoted label
            // values: a value may legally contain `}` (and `\"` escaped
            // quotes), so a plain find('}') would truncate the label
            // body of any series whose label carries those characters.
            std::size_t close = std::string_view::npos;
            bool inQuote = false, escaped = false;
            for (std::size_t i = brace + 1; i < line.size(); ++i) {
                char c = line[i];
                if (escaped) {
                    escaped = false;
                } else if (inQuote) {
                    if (c == '\\')
                        escaped = true;
                    else if (c == '"')
                        inQuote = false;
                } else if (c == '"') {
                    inQuote = true;
                } else if (c == '}') {
                    close = i;
                    break;
                }
            }
            if (close == std::string_view::npos)
                return false;
            s.name = std::string(line.substr(0, brace));
            s.labels = std::string(line.substr(brace + 1, close - brace - 1));
            nameEnd = close + 1;
        } else {
            std::size_t sp = line.find(' ');
            if (sp == std::string_view::npos)
                return false;
            s.name = std::string(line.substr(0, sp));
            nameEnd = sp;
        }
        std::string_view rest = line.substr(nameEnd);
        while (!rest.empty() && rest.front() == ' ')
            rest.remove_prefix(1);
        if (rest.empty())
            return false;
        if (rest == "+Inf") {
            s.value = std::numeric_limits<double>::infinity();
        } else {
            auto [p, ec] =
                std::from_chars(rest.data(), rest.data() + rest.size(),
                                s.value);
            if (ec != std::errc())
                return false;
            // Ignore an optional trailing timestamp (we never emit one,
            // but the format allows it).
            (void)p;
        }
        out.samples.push_back(std::move(s));
    }
    return true;
}

} // namespace bbs::obs
