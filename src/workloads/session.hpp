/**
 * @file
 * The Session interface: one workload instance driven step by step.
 *
 * Every workload runs through a Session (Workload::makeSession): a
 * whole run is open() + finish(), and the campaign fork engine and
 * the snapshot TreeRunner (snap/fork.hpp) and `hccsim snapshot` cut
 * the same session at fraction-based step boundaries
 * (stepAtFraction) to share, capture and replay prefixes.
 *
 * Lifecycle:  open() issues the setup prefix (allocations, input
 * transfers, warm-up/prefill); advance(to) issues steady-state steps
 * [cursor, to); finish() issues any remaining steps plus the result
 * computation and frees.  open -> advance* -> finish on one Context
 * issues the identical API call sequence regardless of how the steps
 * are grouped.  clone() copies the session state (a value: buffer
 * handles and cursors, not live resources), so a snapshot-tree node
 * clones its session before advancing or reseeding and keeps
 * describing its own cut.
 */

#ifndef HCC_WORKLOADS_SESSION_HPP
#define HCC_WORKLOADS_SESSION_HPP

#include <cstdint>
#include <memory>

#include "runtime/context.hpp"

namespace hcc::workloads {

/** One incrementally-advanced workload instance. */
class Session
{
  public:
    virtual ~Session() = default;

    /** Steady-state steps between open() and completion. */
    virtual int totalSteps() const = 0;

    /** Steps already advanced (0 right after open()). */
    virtual int cursor() const = 0;

    /** Setup prefix: allocations, ingress, warm-up/prefill. */
    virtual void open(rt::Context &ctx) = 0;

    /** Advance to step @p to_step (no-op when already there). */
    virtual void advance(rt::Context &ctx, int to_step) = 0;

    /** Remaining steps, result computation and frees. */
    virtual void finish(rt::Context &ctx) = 0;

    /**
     * Cross-seed fork support: re-derive the session's own stochastic
     * state (e.g. a KET jitter stream) for @p seed, exactly as a
     * session opened under that seed would hold it; buffers and the
     * cursor are kept.  Called by the fork engine right after
     * rt::Context::reseedAtFork().  No-op for sessions whose jitter
     * lives entirely in the Context's streams.
     */
    virtual void reseed(std::uint64_t seed) { (void)seed; }

    /** Value copy of the session state (see file comment). */
    virtual std::unique_ptr<Session> clone() const = 0;
};

/** The step a fraction-based cut lands on: the same rounding for
 *  every engine, so chained cuts tile without gaps. */
int stepAtFraction(double fraction, int total_steps);

} // namespace hcc::workloads

#endif // HCC_WORKLOADS_SESSION_HPP
