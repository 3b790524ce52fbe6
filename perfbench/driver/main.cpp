/**
 * @file
 * hcc_perfbench: host-time benchmark of the hccsim simulator.
 *
 *   hcc_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                 [--refs FILE] [--spans-out FILE] [--spawn-ns NS]
 *                 [--setup-only] [--print-inputs]
 *
 * Runs measured passes of one workload for S seconds in this process
 * and prints, as the last line of stdout, one JSON object
 * {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports
 * the end-to-end metrics; --trace 1 alternates traced and untraced
 * passes and reports the per-layer metrics of the traced ones plus
 * the tracing overhead.  See perfbench/README.md.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "spans.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

struct MetricDef
{
    const char *name;
    const char *unit;
};

// Keep in step with BENCHMARK.json (tests/test_perfbench.py checks).
const std::vector<MetricDef> kEndToEnd = {
    {"cells_per_s", "cells/s"}, {"cell_ms.p50", "ms"},
    {"cell_ms.p90", "ms"},      {"peak_rss_mb", "MiB"},
    {"setup_s", "s"},
};

const std::vector<MetricDef> kPerLayer = {
    {"runtime.context_ms", "ms"},
    {"runtime.teardown_ms", "ms"},
    {"workloads.run_ms", "ms"},
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.event_queue_run_ms", "ms"},
    {"trace.analyze_ms", "ms"},
    {"trace.publish_ms", "ms"},
    {"perfmodel.decompose_ms", "ms"},
    {"obs.stats_json_ms", "ms"},
    {"obs.stats_bytes", "bytes"},
    {"obs.writers_ms", "ms"},
    {"obs.writers_bytes", "bytes"},
    {"fault.expand_ms", "ms"},
    {"fault.campaign_ms", "ms"},
    {"fault.injected", "count"},
    {"snap.snapshot_hits", "count"},
    {"snap.hit_ratio", "fraction"},
    {"snap.peak_resident_bytes", "bytes"},
    {"snap.cold_cell_ms", "ms"},
    {"snap.fork_speedup", "x"},
    {"sweep.pool.utilization_pct", "%"},
    {"sweep.pool.steals", "count"},
    {"serve.arrivals_ms", "ms"},
    {"serve.cell_ms.base", "ms"},
    {"serve.cell_ms.cc", "ms"},
    {"serve.kv_fault_batches", "count"},
    {"serve.kv_migrated_bytes", "bytes"},
    {"serve.preempted", "count"},
    {"bench.tracing_overhead_pct", "%"},
    {"bench.unattributed_pct", "%"},
};

/** Nearest-rank percentile (an actual sample); 0 when empty. */
double
percentile(std::vector<double> v, double pct)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/** All significant digits; JSON has no NaN/inf, so those read 0 (a
 *  ratio over a layer the workload never calls). */
std::string
number(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = kReferenceSeed;
    int seconds = 10;
    bool trace = false;
    std::string refs = "perfbench/refs.json";
    std::string spans_out;
    std::int64_t spawn_ns = 0;
    bool setup_only = false;
    bool print_inputs = false;
};

bool
parseArgs(int argc, char **argv, Args &a, std::string &error)
{
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--setup-only") {
            a.setup_only = true;
            continue;
        }
        if (flag == "--print-inputs") {
            a.print_inputs = true;
            continue;
        }
        if (i + 1 >= argc) {
            error = flag + " needs a value";
            return false;
        }
        const std::string v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = v;
            have_workload = true;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            a.seconds = static_cast<int>(std::strtol(v.c_str(), &end, 10));
            if (a.seconds < 1 || a.seconds > 600)
                end = nullptr;
        } else if (flag == "--trace") {
            if (v != "0" && v != "1") {
                error = "--trace takes 0 or 1";
                return false;
            }
            a.trace = v == "1";
            continue;
        } else if (flag == "--refs") {
            a.refs = v;
            continue;
        } else if (flag == "--spans-out") {
            a.spans_out = v;
            continue;
        } else if (flag == "--spawn-ns") {
            a.spawn_ns = std::strtoll(v.c_str(), &end, 10);
        } else {
            error = "unknown flag " + flag;
            return false;
        }
        if (flag != "--workload" && (end == nullptr || *end != '\0'
                                     || v.empty())) {
            error = "bad value '" + v + "' for " + flag;
            return false;
        }
    }
    if (!have_workload) {
        error = "--workload is required";
        return false;
    }
    return true;
}

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<MetricDef> &defs,
            const std::map<std::string, double> &values)
{
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < defs.size(); ++i) {
        const auto it = values.find(defs[i].name);
        std::cout << (i ? ", " : "") << "\"" << defs[i].name
                  << "\": {\"value\": "
                  << number(it == values.end() ? 0.0 : it->second)
                  << ", \"unit\": \"" << defs[i].unit << "\"}";
    }
    std::cout << "}}" << std::endl;
}

/**
 * Each cell's fastest run, ms, over the passes not flagged in @p skip.
 * The host is shared: other tenants slow whole stretches of a run, so
 * the best of a cell's repeats is what the code costs when it is not
 * held up.
 */
std::vector<double>
bestCellMs(const std::vector<PassResult> &passes,
           const std::vector<bool> &skip)
{
    std::map<std::size_t, double> best;
    for (std::size_t p = 0; p < passes.size(); ++p) {
        if (skip[p])
            continue;
        const PassResult &r = passes[p];
        for (std::size_t j = 0; j < r.cell_ms.size(); ++j) {
            const auto [it, fresh] = best.emplace(r.cell_id[j], r.cell_ms[j]);
            if (!fresh)
                it->second = std::min(it->second, r.cell_ms[j]);
        }
    }
    std::vector<double> out;
    for (const auto &[id, ms] : best)
        out.push_back(ms);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::int64_t main_ns = nowNs();
    Args args;
    std::string error;
    if (!parseArgs(argc, argv, args, error)) {
        std::cerr << "error: " << error << "\n";
        return 2;
    }
    Refs refs;
    if (!refs.load(args.refs, error))
        // Digest checks then fail at the reference seed; other seeds
        // only check invariants and pass-to-pass identity.
        std::cerr << "warning: " << error << "\n";
    auto workload =
        makeWorkload(args.workload, args.seed, refs, std::cerr);
    if (!workload) {
        std::cerr << "error: unknown workload '" << args.workload
                  << "'\n";
        return 2;
    }

    // ------------------------------------------------------ set-up
    workload->setup();
    const std::int64_t process_start =
        args.spawn_ns > 0 ? args.spawn_ns : main_ns;
    const double setup_s =
        static_cast<double>(nowNs() - process_start) / 1e9;
    if (args.setup_only) {
        std::cout << "{\"setup_s\": " << number(setup_s) << "}"
                  << std::endl;
        return 0;
    }
    if (args.print_inputs) {
        workload->describeInputs(std::cout);
        return 0;
    }

    // ------------------------------------------------------ passes
    // --trace 1 alternates traced (even) and untraced (odd) passes,
    // so the overhead compares passes run under the same conditions.
    SpanRecorder traced(true), untraced(false);
    std::vector<PassResult> passes;
    std::vector<bool> pass_traced;
    const std::int64_t loop_start = nowNs();
    const std::int64_t budget_ns =
        static_cast<std::int64_t>(args.seconds) * 1000000000;
    const std::size_t min_passes = args.trace ? 2 : 1;
    while (passes.size() < min_passes
           || nowNs() - loop_start < budget_ns) {
        const int pass = static_cast<int>(passes.size());
        const bool t = args.trace && pass % 2 == 0;
        traced.setPass(pass);
        passes.push_back(workload->runPass(t ? traced : untraced, pass));
        pass_traced.push_back(t);
    }

    std::size_t attempted = 0, failed = 0;
    for (const auto &p : passes) {
        attempted += p.attempted;
        failed += p.failed;
    }
    const bool correct = failed == 0 && attempted > 0;
    const double error_rate = attempted
        ? static_cast<double>(failed) / static_cast<double>(attempted)
        : 1.0;
    std::cout << "workload " << args.workload << " seed " << args.seed
              << ": " << passes.size() << " passes, " << attempted
              << " cells, " << failed << " failed, error_rate "
              << number(error_rate) << "\n  pass seconds:";
    for (const auto &p : passes)
        std::cout << " " << number(p.timed_s).substr(0, 6);
    std::cout << "\n";

    if (!args.trace) {
        const std::vector<double> cell_ms = bestCellMs(passes, pass_traced);
        double timed_s = 0.0, best_s = 0.0;
        for (const auto &p : passes)
            timed_s += p.timed_s;
        for (double ms : cell_ms)
            best_s += ms / 1e3;
        // Cells that run one after another add up to the pass time,
        // so their best runs give the rate; a campaign's cells overlap
        // on its workers, so it is measured over the whole timed wall.
        const double cells_per_s = workload->parallelCells()
            ? static_cast<double>(attempted - failed) / timed_s
            : (1.0 - error_rate) * static_cast<double>(cell_ms.size())
                / best_s;
        const std::map<std::string, double> m = {
            {"cells_per_s", cells_per_s},
            {"cell_ms.p50", percentile(cell_ms, 50.0)},
            {"cell_ms.p90", percentile(cell_ms, 90.0)},
            {"peak_rss_mb", peakRssMib()},
            {"setup_s", setup_s},
        };
        for (const auto &d : kEndToEnd)
            std::cout << "  " << d.name << " = " << number(m.at(d.name))
                      << " " << d.unit
                      << (std::string(d.name) == "cell_ms.p90"
                              ? " (" + std::to_string(cell_ms.size())
                                  + " cells)"
                              : "")
                      << "\n";
        printResult(correct, attempted, failed, kEndToEnd, m);
        return 0;
    }

    // Per-layer values: the median over traced passes.
    std::map<std::string, std::vector<double>> per_pass;
    double best_traced_s = 1e300, best_untraced_s = 1e300;
    for (std::size_t i = 0; i < passes.size(); ++i) {
        if (!pass_traced[i]) {
            best_untraced_s = std::min(best_untraced_s, passes[i].timed_s);
            continue;
        }
        best_traced_s = std::min(best_traced_s, passes[i].timed_s);
        for (const auto &[k, v] : passes[i].layer)
            per_pass[k].push_back(v);
        // Time inside the timed calls that no layer span covers: the
        // per-cell envelope's own work ("cell" self time).  The cold
        // re-runs are checks, outside the timed calls.
        double attributed_ns = 0.0;
        for (const Span &s : traced.spans())
            if (s.pass == static_cast<int>(i)
                && std::string(s.name) != "cell"
                && std::string(s.name) != "snap.cold_cell")
                attributed_ns += static_cast<double>(s.self());
        per_pass["bench.unattributed_pct"].push_back(
            100.0 * (1.0 - attributed_ns / (passes[i].timed_s * 1e9)));
    }
    std::map<std::string, double> layer;
    for (const auto &[k, v] : per_pass)
        layer[k] = median(v);
    // Best pass against best pass: every pass runs the same inputs, and
    // the fastest of each kind is the least disturbed by other tenants.
    layer["bench.tracing_overhead_pct"] =
        100.0 * (best_traced_s / best_untraced_s - 1.0);
    // Ratios against an end-to-end figure use the untraced passes.
    workload->finishLayers(
        layer, percentile(bestCellMs(passes, pass_traced), 50.0));

    std::cout << "  per-layer time over the traced passes (self = "
                 "total minus child spans):\n";
    for (const auto &[name, l] : traced.layers()) {
        char line[160];
        std::snprintf(line, sizeof(line),
                      "    %-22s %7zu spans  total %11.3f ms  self "
                      "%11.3f ms\n",
                      name.c_str(), l.count,
                      static_cast<double>(l.total_ns) / 1e6,
                      static_cast<double>(l.self_ns) / 1e6);
        std::cout << line;
    }
    for (const auto &d : kPerLayer)
        std::cout << "  " << d.name << " = "
                  << number(layer.count(d.name) ? layer.at(d.name) : 0.0)
                  << " " << d.unit << "\n";

    std::string spans_out = args.spans_out;
    if (spans_out.empty())
        spans_out = ".bench_out/spans-" + args.workload + "-s"
            + std::to_string(args.seed) + ".json";
    const auto dir = std::filesystem::path(spans_out).parent_path();
    std::error_code ec;
    if (!dir.empty())
        std::filesystem::create_directories(dir, ec);
    std::ofstream out(spans_out);
    traced.writeJson(out, args.workload, args.seed);
    out.close();
    if (out)
        std::cout << "  spans: " << spans_out << "\n";
    else
        std::cerr << "warning: could not write " << spans_out << "\n";

    printResult(correct, attempted, failed, kPerLayer, layer);
    return 0;
}
