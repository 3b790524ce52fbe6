/**
 * @file
 * Workload framework: named applications that drive the runtime API
 * with the launch/copy patterns of the paper's benchmark suites
 * (Rodinia, Polybench, UVMBench, GraphBIG, Tigr).
 *
 * Workloads are registered in a global registry at static-init time;
 * benches and tests look them up by name and run them under base and
 * CC configurations to regenerate the figures.  Each run is a Session
 * (session.hpp): run() opens and finishes one in a single go, and
 * the fork engine cuts the same session at step boundaries.
 */

#ifndef HCC_WORKLOADS_WORKLOAD_HPP
#define HCC_WORKLOADS_WORKLOAD_HPP

#include <memory>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "runtime/context.hpp"
#include "tee/tdx.hpp"
#include "trace/analysis.hpp"
#include "trace/critpath.hpp"
#include "trace/tracer.hpp"
#include "workloads/session.hpp"

namespace hcc::workloads {

/** Per-run parameters. */
struct WorkloadParams
{
    /** Problem-size multiplier applied to buffers and KETs. */
    double scale = 1.0;
    /** Run the UVM (cudaMallocManaged) variant. */
    bool uvm = false;
    /** Seed for KET jitter (same seed => same kernel durations in
     *  base and CC runs, so ratios are clean). */
    std::uint64_t seed = 42;
};

/** Everything a bench needs from one run. */
struct WorkloadResult
{
    std::string name;
    bool cc = false;
    bool uvm = false;
    trace::Tracer trace;
    trace::AppMetrics metrics;
    /** Critical path + bottleneck label (critpath.hpp). */
    trace::CriticalPath critical;
    tee::TdxStats tdx;
    SimTime end_to_end = 0;
    /** The run's stats registry (shared out of the dead Context). */
    std::shared_ptr<obs::Registry> stats;
};

/**
 * Abstract workload: a named app whose runs are Sessions.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Short app name as the paper uses it ("2dconv", "sc", ...). */
    virtual std::string name() const = 0;
    /** Originating suite ("polybench", "rodinia", "graphbig", ...). */
    virtual std::string suite() const = 0;
    /** Whether a managed-memory variant exists. */
    virtual bool supportsUvm() const = 0;

    /** Build a fresh (unopened) session for @p params. */
    virtual std::unique_ptr<Session>
    makeSession(const WorkloadParams &params) const = 0;

    /** Issue the app's API calls against @p ctx: one session opened
     *  and finished in one go. */
    void run(rt::Context &ctx, const WorkloadParams &params) const;
};

/**
 * Global name -> workload registry.
 */
class WorkloadRegistry
{
  public:
    static WorkloadRegistry &instance();

    /** Register a workload (fatal on duplicate name). */
    void add(std::unique_ptr<Workload> workload);

    /** Find by name; nullptr when missing. */
    const Workload *find(const std::string &name) const;

    /** Find by name; fatal when missing. */
    const Workload &get(const std::string &name) const;

    /** All workloads in registration order. */
    std::vector<const Workload *> all() const;

    /** All workloads of one suite. */
    std::vector<const Workload *> ofSuite(const std::string &suite)
        const;

  private:
    WorkloadRegistry() = default;
    std::vector<std::unique_ptr<Workload>> workloads_;
};

/** Run @p workload under @p config and collect metrics. */
WorkloadResult runWorkload(const Workload &workload,
                           const rt::SystemConfig &config,
                           const WorkloadParams &params
                               = WorkloadParams{});

/** Convenience: run by registry name. */
WorkloadResult runWorkload(const std::string &name,
                           const rt::SystemConfig &config,
                           const WorkloadParams &params
                               = WorkloadParams{});

/**
 * The canonical evaluation app list (Figs. 5-11), in presentation
 * order.
 */
const std::vector<std::string> &evaluationApps();

/** The UVM-capable subset used in Fig. 9's UVM bars. */
const std::vector<std::string> &uvmApps();

} // namespace hcc::workloads

#endif // HCC_WORKLOADS_WORKLOAD_HPP
