#include "sweep/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>

#include "common/log.hpp"

namespace hcc::sweep {

std::string
csvField(const std::string &field)
{
    if (field.find_first_of(",\"\n\r") == std::string::npos)
        return field;
    std::string quoted = "\"";
    for (char c : field) {
        if (c == '"')
            quoted += '"';
        quoted += c;
    }
    quoted += '"';
    return quoted;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace {

/** Shortest deterministic rendering of a scale factor. */
std::string
formatScale(double scale)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", scale);
    return buf;
}

double
elapsedUs(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - start)
        .count();
}

std::string
trim(const std::string &s)
{
    const auto begin = s.find_first_not_of(" \t\r");
    if (begin == std::string::npos)
        return "";
    const auto end = s.find_last_not_of(" \t\r");
    return s.substr(begin, end - begin + 1);
}

std::vector<std::string>
splitCsv(const std::string &csv)
{
    std::vector<std::string> out;
    std::string item;
    std::istringstream iss(csv);
    while (std::getline(iss, item, ',')) {
        item = trim(item);
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

/**
 * Cell identity without the seed — the cross-seed fork-group key.
 * Mirrors RunCell::label() minus the ".s<seed>" component
 * (crypto_workers/tee_io are grid-wide constants).
 */
std::string
seedlessKey(const RunCell &cell)
{
    std::string out = cell.app;
    out += cell.cc ? ".cc" : ".base";
    if (cell.uvm)
        out += ".uvm";
    out += ".x" + formatScale(cell.scale);
    if (cell.overlap != tee::OverlapMode::None) {
        out += '.';
        out += tee::overlapModeName(cell.overlap);
    }
    return out;
}

/** Whether the fork engine can actually split this cell (the seed
 *  may then be deferred to a reseed-at-fork arm): a known app, with
 *  a UVM variant when the cell asks for one. */
bool
crossSeedEligible(const RunCell &cell)
{
    const workloads::Workload *w =
        workloads::WorkloadRegistry::instance().find(cell.app);
    return w != nullptr && !(cell.uvm && !w->supportsUvm());
}

} // namespace

std::size_t
GridSpec::cellCount() const
{
    return apps.size() * cc_modes.size() * uvm_modes.size()
        * scales.size() * seeds.size() * overlaps.size();
}

std::string
RunCell::label() const
{
    std::string out = app;
    out += cc ? ".cc" : ".base";
    if (uvm)
        out += ".uvm";
    out += ".x" + formatScale(scale);
    out += ".s" + std::to_string(seed);
    // The serial tier is elided so pre-overlap labels stay stable.
    if (overlap != tee::OverlapMode::None) {
        out += '.';
        out += tee::overlapModeName(overlap);
    }
    return out;
}

std::size_t
SweepResult::failures() const
{
    std::size_t n = 0;
    for (const auto &c : cells)
        n += c.ok ? 0 : 1;
    return n;
}

std::vector<RunCell>
expandGrid(const GridSpec &grid)
{
    std::vector<RunCell> cells;
    cells.reserve(grid.cellCount());
    for (const auto &app : grid.apps) {
        for (bool cc : grid.cc_modes) {
            for (bool uvm : grid.uvm_modes) {
                for (double scale : grid.scales) {
                    for (std::uint64_t seed : grid.seeds) {
                        for (tee::OverlapMode overlap :
                             grid.overlaps) {
                            RunCell cell;
                            cell.index = cells.size();
                            cell.app = app;
                            cell.cc = cc;
                            cell.uvm = uvm;
                            cell.scale = scale;
                            cell.seed = seed;
                            cell.overlap = overlap;
                            cell.crypto_workers =
                                grid.crypto_workers;
                            cell.tee_io = grid.tee_io;
                            cells.push_back(std::move(cell));
                        }
                    }
                }
            }
        }
    }
    return cells;
}

SweepResult
runSweep(const GridSpec &grid, int jobs, obs::Registry *sweep_obs)
{
    const auto cells = expandGrid(grid);
    // Force the suite registration to finish on this thread before
    // workers look apps up (registration is also mutex-guarded, this
    // just keeps the first lookup off the parallel path).
    workloads::WorkloadRegistry::instance();

    SweepResult result;
    result.jobs = jobs < 1 ? 1 : jobs;
    result.cells.resize(cells.size());

    // Prefix-group the grid.  Cells of a splittable app that differ
    // only in their seed share one prefix (cross-seed sharing: the
    // prefix runs under a seed-independent identity seed and each
    // cell carries a reseed-at-fork arm); everything else groups by
    // full cell identity, so only exact duplicates share.  The same
    // grouping applies under --no-snapshot — the cold control must
    // replay the identical derivation for the byte-identity gate.
    const bool split_on =
        grid.fork_point.mode != snap::ForkPoint::Mode::None;
    std::vector<std::vector<std::size_t>> groups;
    {
        std::map<std::string, std::size_t> by_key;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const std::string key =
                split_on && crossSeedEligible(cells[i])
                    ? seedlessKey(cells[i])
                    : cells[i].label();
            const auto [it, fresh] =
                by_key.emplace(key, groups.size());
            if (fresh)
                groups.emplace_back();
            groups[it->second].push_back(i);
        }
    }

    const auto start = std::chrono::steady_clock::now();
    std::vector<snap::ForkGroupOutcome> outcomes(groups.size());
    result.pool = runIndexed(
        groups.size(), result.jobs, [&](std::size_t g) {
            const auto &members = groups[g];
            const RunCell &first = cells[members.front()];
            snap::ForkGroupSpec fork_group;
            fork_group.app = first.app;
            fork_group.sys.cc = first.cc;
            fork_group.sys.channel.crypto_workers =
                first.crypto_workers;
            fork_group.sys.channel.tee_io = first.tee_io;
            fork_group.sys.channel.overlap = first.overlap;
            fork_group.params.uvm = first.uvm;
            fork_group.params.scale = first.scale;
            fork_group.snapshot_budget_bytes =
                grid.snapshot_budget_bytes;
            // Sweep cells arm no faults: default ForkCell faults.
            fork_group.cells.resize(members.size());
            bool multi_seed = false;
            for (const std::size_t i : members)
                multi_seed |= cells[i].seed != first.seed;
            if (multi_seed) {
                // Cross-seed group: construct from the identity
                // seed; each cell's own seed enters via its reseed
                // arm at the fork point.
                const std::uint64_t ident = snap::identitySeed(
                    fork_group.app, fork_group.sys,
                    fork_group.params);
                fork_group.sys.seed = ident;
                fork_group.params.seed = ident;
                for (std::size_t j = 0; j < members.size(); ++j) {
                    snap::ForkArm arm;
                    arm.kind = snap::ForkArm::Kind::Reseed;
                    arm.seed = cells[members[j]].seed;
                    fork_group.cells[j].arms.push_back(arm);
                }
            } else {
                // Single-seed group (exact duplicates): construct
                // from the cell seed, exactly as before cross-seed
                // sharing existed.
                fork_group.sys.seed = first.seed;
                fork_group.params.seed = first.seed;
            }
            outcomes[g] = snap::runForkGroup(
                fork_group, grid.fork_point, grid.no_snapshot);
        });
    result.wall_us = elapsedUs(start);

    for (std::size_t g = 0; g < groups.size(); ++g) {
        result.snapshot_hits += outcomes[g].snapshot_hits;
        result.peak_resident_bytes =
            std::max(result.peak_resident_bytes,
                     outcomes[g].peak_resident_bytes);
        for (std::size_t j = 0; j < groups[g].size(); ++j) {
            const std::size_t i = groups[g][j];
            auto &cell_outcome = outcomes[g].cells[j];
            CellResult &out = result.cells[i];
            out.cell = cells[i];
            out.ok = cell_outcome.ok;
            out.error = std::move(cell_outcome.error);
            out.result = std::move(cell_outcome.result);
            out.wall_us = cell_outcome.wall_us;
        }
    }

    if (sweep_obs != nullptr) {
        // All updates happen here on the caller's thread, after the
        // pool has joined: gauges and distributions are not
        // thread-safe by design.
        sweep_obs->counter("sweep.cells").add(result.cells.size());
        sweep_obs->counter("sweep.failures").add(result.failures());
        auto &cell_wall =
            sweep_obs->distribution("host.sweep.cell_wall_us");
        for (const auto &c : result.cells)
            cell_wall.add(c.wall_us);
        sweep_obs->distribution("host.sweep.wall_us")
            .add(result.wall_us);
        sweep_obs->counter("host.sweep.pool.executed")
            .add(result.pool.executed);
        sweep_obs->counter("host.sweep.pool.steals")
            .add(result.pool.stolen);
        sweep_obs->gauge("host.sweep.jobs").set(result.jobs);
        sweep_obs->gauge("host.sweep.pool.utilization_pct")
            .set(static_cast<std::int64_t>(
                result.pool.utilization(result.wall_us) * 100.0));
        // Campaign throughput + fork-engine effectiveness.  host.*
        // wall-clock gauges, excluded from deterministic dumps.
        if (result.wall_us > 0.0) {
            sweep_obs->gauge("host.sweep.cells_per_sec")
                .set(static_cast<std::int64_t>(
                    static_cast<double>(result.cells.size())
                    / (result.wall_us / 1e6)));
        }
        sweep_obs->gauge("host.sweep.snapshot_hits")
            .set(static_cast<std::int64_t>(result.snapshot_hits));
        sweep_obs->gauge("host.sweep.snapshot_resident_bytes")
            .set(static_cast<std::int64_t>(
                result.peak_resident_bytes));
    }
    return result;
}

std::vector<bool>
parseModeList(const std::string &name)
{
    if (name == "on")
        return {true};
    if (name == "off")
        return {false};
    if (name == "both")
        return {false, true};
    fatal("bad mode '%s' (on|off|both)", name.c_str());
}

std::vector<std::string>
parseAppList(const std::string &csv)
{
    if (trim(csv) == "all")
        return workloads::evaluationApps();
    auto apps = splitCsv(csv);
    if (apps.empty())
        fatal("empty app list '%s'", csv.c_str());
    return apps;
}

std::vector<double>
parseScaleList(const std::string &csv)
{
    std::vector<double> out;
    for (const auto &item : splitCsv(csv)) {
        double v = 0.0;
        try {
            v = std::stod(item);
        } catch (...) {
            fatal("bad scale '%s'", item.c_str());
        }
        if (v <= 0.0)
            fatal("scale must be positive, got '%s'", item.c_str());
        out.push_back(v);
    }
    if (out.empty())
        fatal("empty scale list '%s'", csv.c_str());
    return out;
}

std::vector<tee::OverlapMode>
parseOverlapList(const std::string &csv)
{
    if (trim(csv) == "all")
        return {tee::OverlapMode::None, tee::OverlapMode::DoubleBuffer,
                tee::OverlapMode::Speculative};
    std::vector<tee::OverlapMode> out;
    for (const auto &item : splitCsv(csv)) {
        const auto mode = tee::parseOverlapMode(item);
        if (!mode)
            fatal("bad overlap mode '%s' "
                  "(none|double-buffer|speculative|all)",
                  item.c_str());
        out.push_back(*mode);
    }
    if (out.empty())
        fatal("empty overlap list '%s'", csv.c_str());
    return out;
}

std::vector<std::uint64_t>
parseSeedList(const std::string &csv)
{
    std::vector<std::uint64_t> out;
    for (const auto &item : splitCsv(csv)) {
        try {
            out.push_back(std::stoull(item));
        } catch (...) {
            fatal("bad seed '%s'", item.c_str());
        }
    }
    if (out.empty())
        fatal("empty seed list '%s'", csv.c_str());
    return out;
}

namespace {

/**
 * Throwing parse body: fatal() doubles as the parse-abort mechanism
 * so the shared list parsers (parseModeList, parseScaleList, ...)
 * need no error plumbing.  The public surface converts the throw to
 * a typed Status — callers never see the exception.
 */
GridSpec
parseGridSpecImpl(const std::string &text)
{
    GridSpec grid;
    bool have_apps = false;
    std::istringstream iss(text);
    std::string line;
    int lineno = 0;
    while (std::getline(iss, line)) {
        ++lineno;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trim(line);
        if (line.empty())
            continue;
        const auto eq = line.find('=');
        if (eq == std::string::npos)
            fatal("grid spec line %d: expected 'key = value', got "
                  "'%s'", lineno, line.c_str());
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        if (key == "apps") {
            grid.apps = parseAppList(value);
            have_apps = true;
        } else if (key == "cc") {
            grid.cc_modes = parseModeList(value);
        } else if (key == "uvm") {
            grid.uvm_modes = parseModeList(value);
        } else if (key == "scales") {
            grid.scales = parseScaleList(value);
        } else if (key == "seeds") {
            grid.seeds = parseSeedList(value);
        } else if (key == "overlap") {
            grid.overlaps = parseOverlapList(value);
        } else if (key == "crypto-workers") {
            int v = 0;
            try {
                v = std::stoi(value);
            } catch (...) {
                fatal("grid spec line %d: bad crypto-workers '%s'",
                      lineno, value.c_str());
            }
            if (v < 1)
                fatal("grid spec line %d: crypto-workers must be "
                      ">= 1", lineno);
            grid.crypto_workers = v;
        } else if (key == "fork-point") {
            const auto fp = snap::parseForkPoint(value);
            if (!fp.ok())
                fatal("grid spec line %d: %s", lineno,
                      fp.status().message().c_str());
            grid.fork_point = *fp;
        } else if (key == "snapshot") {
            if (value == "on")
                grid.no_snapshot = false;
            else if (value == "off")
                grid.no_snapshot = true;
            else
                fatal("grid spec line %d: snapshot must be on|off",
                      lineno);
        } else if (key == "snapshot-budget") {
            long long v = -1;
            try {
                v = std::stoll(value);
            } catch (...) {
                v = -1;
            }
            if (v < 0)
                fatal("grid spec line %d: snapshot-budget must be a "
                      "MiB count >= 0 (0 = unlimited), got '%s'",
                      lineno, value.c_str());
            grid.snapshot_budget_bytes =
                static_cast<std::size_t>(v) << 20;
        } else if (key == "tee-io") {
            if (value == "on")
                grid.tee_io = true;
            else if (value == "off")
                grid.tee_io = false;
            else
                fatal("grid spec line %d: tee-io must be on|off",
                      lineno);
        } else {
            fatal("grid spec line %d: unknown key '%s'", lineno,
                  key.c_str());
        }
    }
    if (!have_apps)
        fatal("grid spec is missing the 'apps' key");
    return grid;
}

} // namespace

Result<GridSpec>
parseGridSpec(const std::string &text)
{
    try {
        return parseGridSpecImpl(text);
    } catch (const FatalError &e) {
        return errorf(ErrorCode::ParseError, "%s", e.what());
    }
}

Result<GridSpec>
loadGridFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return errorf(ErrorCode::IoError,
                      "cannot open grid spec file '%s'", path.c_str());
    std::ostringstream oss;
    oss << in.rdbuf();
    if (in.bad())
        return errorf(ErrorCode::IoError,
                      "failed reading grid spec file '%s'",
                      path.c_str());
    return parseGridSpec(oss.str());
}

void
writeCellsCsv(const SweepResult &result, std::ostream &os)
{
    os << "index,label,app,cc,uvm,scale,seed,status,end_to_end_ps,"
          "launches,kernels,sum_klo_ps,sum_lqt_ps,sum_kqt_ps,"
          "sum_ket_ps,copy_h2d_ps,copy_d2h_ps,copy_d2d_ps,"
          "tdx_hypercalls,bottleneck,critical_path_ps,error\n";
    for (const auto &c : result.cells) {
        const auto &m = c.result.metrics;
        os << c.cell.index << ',' << csvField(c.cell.label()) << ','
           << csvField(c.cell.app) << ',' << (c.cell.cc ? 1 : 0)
           << ',' << (c.cell.uvm ? 1 : 0) << ','
           << formatScale(c.cell.scale) << ',' << c.cell.seed << ','
           << (c.ok ? "ok" : "failed") << ',';
        if (c.ok) {
            os << c.result.end_to_end << ',' << m.launches << ','
               << m.kernels << ',' << m.sumKlo() << ','
               << m.sumLqt() << ',' << m.sumKqt() << ','
               << m.sumKet() << ',' << m.copy_h2d << ','
               << m.copy_d2h << ',' << m.copy_d2d << ','
               << c.result.tdx.hypercalls << ','
               << trace::bottleneckName(c.result.critical.bottleneck)
               << ',' << c.result.critical.on_path_ps << ',';
        } else {
            os << ",,,,,,,,,,,,";
        }
        os << csvField(c.error) << '\n';
    }
}

void
writeCellsJson(const SweepResult &result, std::ostream &os)
{
    os << "[\n";
    bool first = true;
    for (const auto &c : result.cells) {
        os << (first ? "" : ",\n");
        first = false;
        os << "  {\"index\": " << c.cell.index << ", \"label\": \""
           << jsonEscape(c.cell.label()) << "\", \"app\": \""
           << jsonEscape(c.cell.app) << "\", \"cc\": "
           << (c.cell.cc ? "true" : "false") << ", \"uvm\": "
           << (c.cell.uvm ? "true" : "false") << ", \"scale\": "
           << formatScale(c.cell.scale) << ", \"seed\": "
           << c.cell.seed << ", \"ok\": "
           << (c.ok ? "true" : "false");
        if (c.ok) {
            const auto &m = c.result.metrics;
            os << ", \"end_to_end_ps\": " << c.result.end_to_end
               << ", \"launches\": " << m.launches
               << ", \"kernels\": " << m.kernels
               << ", \"sum_klo_ps\": " << m.sumKlo()
               << ", \"sum_lqt_ps\": " << m.sumLqt()
               << ", \"sum_kqt_ps\": " << m.sumKqt()
               << ", \"sum_ket_ps\": " << m.sumKet()
               << ", \"copy_h2d_ps\": " << m.copy_h2d
               << ", \"copy_d2h_ps\": " << m.copy_d2h
               << ", \"copy_d2d_ps\": " << m.copy_d2d
               << ", \"tdx_hypercalls\": "
               << c.result.tdx.hypercalls
               << ", \"bottleneck\": \""
               << trace::bottleneckName(c.result.critical.bottleneck)
               << "\", \"critical_path_ps\": "
               << c.result.critical.on_path_ps;
        } else {
            os << ", \"error\": \"" << jsonEscape(c.error) << "\"";
        }
        os << "}";
    }
    os << "\n]\n";
}

void
writeMergedStats(const SweepResult &result, std::ostream &os)
{
    obs::StatsSections sections;
    sections.reserve(result.cells.size());
    for (const auto &c : result.cells) {
        if (!c.ok)
            continue;
        sections.emplace_back("cell" + std::to_string(c.cell.index)
                                  + "." + c.cell.label() + ".",
                              c.result.stats.get());
    }
    obs::writeStatsJson(os, sections, /*include_host=*/false);
}

} // namespace hcc::sweep
