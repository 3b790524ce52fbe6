#include "spans.hpp"

#include <cstring>

namespace perfbench {

int
SpanRecorder::open(const char *name, std::int64_t request)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.request = request;
    s.pass = pass_;
    spans_.push_back(s);
    const int id = static_cast<int>(spans_.size() - 1);
    open_.push_back(id);
    // Read the clock last so the bookkeeping above is not charged to
    // the span.
    spans_[id].start_ns = nowNs();
    return id;
}

void
SpanRecorder::close(int id)
{
    if (id < 0)
        return;
    const std::int64_t end = nowNs();
    Span &s = spans_[id];
    s.end_ns = end;
    open_.pop_back();
    if (s.parent >= 0)
        spans_[s.parent].child_ns += s.duration();
}

double
SpanRecorder::passMs(const char *name, int pass) const
{
    std::int64_t ns = 0;
    for (const Span &s : spans_)
        if (s.pass == pass && std::strcmp(s.name, name) == 0)
            ns += s.duration();
    return static_cast<double>(ns) / 1e6;
}

std::map<std::string, LayerTime>
SpanRecorder::layers() const
{
    std::map<std::string, LayerTime> out;
    for (const Span &s : spans_) {
        LayerTime &l = out[s.name];
        ++l.count;
        l.total_ns += s.duration();
        l.self_ns += s.self();
    }
    return out;
}

void
SpanRecorder::writeJson(std::ostream &os, const std::string &workload,
                        std::uint64_t seed) const
{
    const std::int64_t t0 = spans_.empty() ? 0 : spans_[0].start_ns;
    os << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
       << ",\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
           << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
           << static_cast<double>(s.start_ns - t0) / 1e3
           << ", \"dur\": " << static_cast<double>(s.duration()) / 1e3
           << ", \"args\": {\"id\": " << i << ", \"parent\": "
           << s.parent << ", \"request\": " << s.request
           << ", \"pass\": " << s.pass
           << ", \"self_us\": " << static_cast<double>(s.self()) / 1e3
           << "}}";
    }
    os << "\n],\n\"layers\": {";
    bool first = true;
    for (const auto &[name, l] : layers()) {
        os << (first ? "\n" : ",\n") << "\"" << name
           << "\": {\"count\": " << l.count << ", \"total_ms\": "
           << static_cast<double>(l.total_ns) / 1e6
           << ", \"self_ms\": " << static_cast<double>(l.self_ns) / 1e6
           << "}";
        first = false;
    }
    os << "\n}}\n";
}

} // namespace perfbench
