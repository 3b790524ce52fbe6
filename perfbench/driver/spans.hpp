/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * The driver opens one span around each call it makes into a
 * simulator module (rt::Context construction, Workload::run,
 * trace::analyzeCritical, ...).  A span records its layer name, its
 * start and end on the steady clock, the span that was open when it
 * started (its parent) and the cell index it served (the request
 * id).  Spans stay in memory and are written out once, when the run
 * ends.  A disabled recorder never reads the clock, so the untraced
 * run pays nothing.
 */

#ifndef PERFBENCH_SPANS_HPP
#define PERFBENCH_SPANS_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Nanoseconds on the steady clock (CLOCK_MONOTONIC on Linux). */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

struct Span
{
    /** Layer call, e.g. "trace.analyze"; a string literal. */
    const char *name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    /** Index of the enclosing span, -1 for a root. */
    int parent = -1;
    /** Cell index the call served, -1 when it served a whole pass. */
    std::int64_t request = -1;
    /** Measured pass the span belongs to. */
    int pass = 0;
    /** Sum of the child spans' durations (children never overlap:
     *  the driver makes its calls one after another). */
    std::int64_t child_ns = 0;

    std::int64_t duration() const { return end_ns - start_ns; }
    std::int64_t self() const { return duration() - child_ns; }
};

/** Busy and self time of one layer, summed over its spans. */
struct LayerTime
{
    std::size_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
};

class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }
    void setPass(int pass) { pass_ = pass; }

    /** Open a span under the innermost open one; -1 when disabled. */
    int open(const char *name, std::int64_t request = -1);
    /** Close span @p id (a no-op for -1). */
    void close(int id);

    const std::vector<Span> &spans() const { return spans_; }

    /** Busy time of every span named @p name in @p pass, ms. */
    double passMs(const char *name, int pass) const;

    /** Per-layer totals over the whole run, by name. */
    std::map<std::string, LayerTime> layers() const;

    /** Chrome trace-event JSON (load in Perfetto or
     *  chrome://tracing), plus a per-layer summary member. */
    void writeJson(std::ostream &os, const std::string &workload,
                   std::uint64_t seed) const;

  private:
    bool enabled_;
    int pass_ = 0;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span. */
class Scope
{
  public:
    Scope(SpanRecorder &rec, const char *name,
          std::int64_t request = -1)
        : rec_(rec), id_(rec.open(name, request))
    {}
    ~Scope() { rec_.close(id_); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanRecorder &rec_;
    int id_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HPP
