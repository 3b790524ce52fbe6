/**
 * @file
 * The benchmark's three workloads.  Each generates its inputs from
 * the run's seed, runs measured passes through the simulator's public
 * API, checks every pass's outputs, and — on a traced pass — records
 * one span per call it makes into a module.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

/** The seed whose outputs refs.json pins byte-for-byte. */
inline constexpr std::uint64_t kReferenceSeed = 42;

/** Reference output digests, keyed "<workload>/<output>". */
struct Refs
{
    std::map<std::string, std::string> digests;
    /** Load @p path; false (with @p error set) when unreadable. */
    bool load(const std::string &path, std::string &error);
};

/** Lowercase hex SHA-256 of @p bytes. */
std::string sha256Hex(const std::string &bytes);

/** Outcome of one measured pass. */
struct PassResult
{
    /** Host wall time of the timed calls (checks excluded), s. */
    double timed_s = 0.0;
    /** Host latency of every cell the pass ran, ms, and the cell's
     *  identity: a cell repeats with the same id in later passes. */
    std::vector<double> cell_ms;
    std::vector<std::size_t> cell_id;
    /** Cells run, and cells that failed or whose check failed. */
    std::size_t attempted = 0;
    std::size_t failed = 0;
    /** Per-layer metric values of this pass (traced passes only). */
    std::map<std::string, double> layer;
};

/**
 * Compares output digests: against refs.json at the reference seed,
 * and at every seed against the first pass (outputs are a pure
 * function of the inputs, so a second pass must repeat the first).
 * A missing reference is a failure, never a pass.
 */
class OutputCheck
{
  public:
    OutputCheck(const Refs &refs, std::uint64_t seed, std::ostream &log)
        : refs_(refs), seed_(seed), log_(log)
    {}

    /** True when @p output (named @p key) is as expected. */
    bool check(const std::string &key, const std::string &output);

    /** Report a failed invariant; always returns false. */
    bool fail(const std::string &what);

  private:
    const Refs &refs_;
    std::uint64_t seed_;
    std::ostream &log_;
    std::map<std::string, std::string> first_;
    std::size_t reported_ = 0;
};

class BenchWorkload
{
  public:
    virtual ~BenchWorkload() = default;

    /** Everything generated from the seed, one item per line. */
    virtual void describeInputs(std::ostream &os) const = 0;

    /** Untimed preparation before the first timed call. */
    virtual void setup() = 0;

    /** Whether a pass runs its cells concurrently (so their
     *  latencies overlap rather than add up to the pass time). */
    virtual bool parallelCells() const { return false; }

    /** One measured pass; @p rec is enabled on traced passes. */
    virtual PassResult runPass(SpanRecorder &rec, int pass) = 0;

    /** Per-layer values measured once per run rather than per pass,
     *  filled in after the passes (@p layer holds the medians). */
    virtual void finishLayers(std::map<std::string, double> &layer,
                              double cell_ms_p50) const
    {
        (void)layer;
        (void)cell_ms_p50;
    }
};

/** "figure-cells", "fault-campaign" or "serve-curve"; nullptr for
 *  any other name. */
std::unique_ptr<BenchWorkload>
makeWorkload(const std::string &name, std::uint64_t seed,
             const Refs &refs, std::ostream &log);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
