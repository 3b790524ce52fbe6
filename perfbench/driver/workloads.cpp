#include "workloads.hpp"

#include <algorithm>
#include <fstream>
#include <numeric>
#include <sstream>

#include "common/log.hpp"
#include "crypto/sha256.hpp"
#include "fault/campaign.hpp"
#include "obs/json.hpp"
#include "obs/stats_io.hpp"
#include "perfmodel/model.hpp"
#include "runtime/context.hpp"
#include "serve/serve.hpp"
#include "snap/fork.hpp"
#include "trace/critpath.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

using namespace hcc;

// ------------------------------------------------------------ digests

std::string
sha256Hex(const std::string &bytes)
{
    const auto d = crypto::Sha256::digest(
        {reinterpret_cast<const std::uint8_t *>(bytes.data()),
         bytes.size()});
    static const char *hex = "0123456789abcdef";
    std::string out;
    for (std::uint8_t b : d) {
        out += hex[b >> 4];
        out += hex[b & 15];
    }
    return out;
}

bool
Refs::load(const std::string &path, std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot open reference digests '" + path + "'";
        return false;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    obs::json::Value root;
    if (!obs::json::parse(ss.str(), root, error))
        return false;
    const obs::json::Value *d = root.find("digests");
    if (d == nullptr || !d->isObject()) {
        error = "'" + path + "' has no \"digests\" object";
        return false;
    }
    for (const auto &[key, value] : d->object)
        if (value.isString())
            digests[key] = value.string;
    return true;
}

bool
OutputCheck::check(const std::string &key, const std::string &output)
{
    const std::string digest = sha256Hex(output);
    if (seed_ == kReferenceSeed) {
        const auto it = refs_.digests.find(key);
        if (it == refs_.digests.end())
            return fail(key + ": no reference digest");
        if (it->second != digest)
            return fail(key + ": digest " + digest
                        + " differs from reference " + it->second);
    }
    const auto [it, fresh] = first_.emplace(key, digest);
    if (!fresh && it->second != digest)
        return fail(key + ": output differs from the first pass");
    return true;
}

bool
OutputCheck::fail(const std::string &what)
{
    // A broken build can fail every cell of every pass; the first
    // few messages say what is wrong.
    if (reported_++ < 20)
        log_ << "check failed: " << what << "\n";
    return false;
}

namespace {

double
msSince(std::int64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) / 1e6;
}

std::uint64_t
counterOf(const obs::Registry &reg, const std::string &name)
{
    const auto it = reg.entries().find(name);
    return it != reg.entries().end() && it->second.counter
        ? it->second.counter->value()
        : 0;
}

/** Simulated runtime API calls: each is one step of the simulation
 *  loop, so this counts its work independent of host speed. */
double
apiCalls(const obs::Registry &reg)
{
    std::uint64_t n = 0;
    for (const char *name :
         {"runtime.api.allocs", "runtime.api.frees", "runtime.api.launches",
          "runtime.api.memcpys", "runtime.api.syncs"})
        n += counterOf(reg, name);
    return static_cast<double>(n);
}

double
distributionSum(const obs::Registry &reg, const std::string &name)
{
    const auto it = reg.entries().find(name);
    return it != reg.entries().end() && it->second.distribution
        ? it->second.distribution->sum()
        : 0.0;
}

/** splitmix64: the benchmark's own seed derivation. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

const std::vector<tee::OverlapMode> kAllTiers = {
    tee::OverlapMode::None, tee::OverlapMode::DoubleBuffer,
    tee::OverlapMode::Speculative};

// ------------------------------------------------------ figure-cells

/**
 * The path of `hccsim run --stats-out` over every registered app x
 * {base, cc} x {plain, UVM where supported}, plus bigxfer under the
 * pipelined CC tiers; serial, one cell after another.
 */
class FigureCells : public BenchWorkload
{
  public:
    FigureCells(std::uint64_t seed, const Refs &refs, std::ostream &log)
        : seed_(seed), check_(refs, seed, log)
    {}

    void
    describeInputs(std::ostream &os) const override
    {
        os << "figure-cells: params.seed=" << seed_
           << " sys.seed=" << seed_ << " cells=" << cells_.size()
           << "\n";
        for (const Cell &c : cells_)
            os << "cell " << c.label << "\n";
    }

    void
    setup() override
    {
        for (const auto *w :
             workloads::WorkloadRegistry::instance().all()) {
            for (bool cc : {false, true}) {
                add(*w, cc, false, tee::OverlapMode::None);
                if (w->supportsUvm())
                    add(*w, cc, true, tee::OverlapMode::None);
            }
        }
        const auto &bigxfer =
            workloads::WorkloadRegistry::instance().get("bigxfer");
        add(bigxfer, true, false, tee::OverlapMode::DoubleBuffer);
        add(bigxfer, true, false, tee::OverlapMode::Speculative);
    }

    PassResult
    runPass(SpanRecorder &rec, int pass) override
    {
        PassResult r;
        double events = 0.0, queue_us = 0.0, stats_bytes = 0.0;
        for (std::size_t i = 0; i < cells_.size(); ++i) {
            const std::int64_t start = nowNs();
            Out out;
            {
                Scope span(rec, "cell", static_cast<std::int64_t>(i));
                out = runCell(cells_[i], rec,
                              static_cast<std::int64_t>(i));
            }
            const double ms = msSince(start);
            r.timed_s += ms / 1e3;
            r.cell_ms.push_back(ms);
            r.cell_id.push_back(i);
            ++r.attempted;
            if (!verify(cells_[i], out))
                ++r.failed;
            events += out.events;
            queue_us += out.event_queue_us;
            stats_bytes += static_cast<double>(out.stats_json.size());
        }
        if (rec.enabled()) {
            const double run_ms = rec.passMs("workloads.run", pass);
            r.layer = {
                {"runtime.context_ms",
                 rec.passMs("runtime.context", pass)},
                {"runtime.teardown_ms",
                 rec.passMs("runtime.teardown", pass)},
                {"workloads.run_ms", run_ms},
                {"sim.events", events},
                {"sim.events_per_s", events / (run_ms / 1e3)},
                {"sim.event_queue_run_ms", queue_us / 1e3},
                {"trace.analyze_ms", rec.passMs("trace.analyze", pass)},
                {"trace.publish_ms", rec.passMs("trace.publish", pass)},
                {"perfmodel.decompose_ms",
                 rec.passMs("perfmodel.decompose", pass)},
                {"obs.stats_json_ms", rec.passMs("obs.stats_json", pass)},
                {"obs.stats_bytes", stats_bytes},
            };
        }
        return r;
    }

  private:
    struct Cell
    {
        const workloads::Workload *workload = nullptr;
        bool cc = false;
        bool uvm = false;
        tee::OverlapMode overlap = tee::OverlapMode::None;
        std::string label;
    };

    /** What one cell hands to its checks. */
    struct Out
    {
        bool ok = false;
        std::string error;
        std::string stats_json;
        std::string decompose;
        bool shares_sum_to_e2e = false;
        double events = 0.0;
        double event_queue_us = 0.0;
    };

    void
    add(const workloads::Workload &w, bool cc, bool uvm,
        tee::OverlapMode overlap)
    {
        std::string label = w.name() + (cc ? ".cc" : ".base");
        if (uvm)
            label += ".uvm";
        if (overlap != tee::OverlapMode::None)
            label += std::string(".") + tee::overlapModeName(overlap);
        cells_.push_back({&w, cc, uvm, overlap, std::move(label)});
    }

    /** The calls `hccsim run --stats-out` makes, one span each. */
    Out
    runCell(const Cell &cell, SpanRecorder &rec, std::int64_t i) const
    {
        rt::SystemConfig sys;
        sys.cc = cell.cc;
        sys.seed = seed_;
        sys.channel.overlap = cell.overlap;
        workloads::WorkloadParams params;
        params.uvm = cell.uvm;
        params.seed = seed_;

        Out out;
        try {
            std::unique_ptr<rt::Context> ctx;
            {
                Scope s(rec, "runtime.context", i);
                ctx = std::make_unique<rt::Context>(sys);
            }
            {
                Scope s(rec, "workloads.run", i);
                cell.workload->run(*ctx, params);
            }
            auto tracer =
                std::make_unique<trace::Tracer>(std::move(ctx->tracer()));
            trace::CriticalAnalysis crit;
            {
                Scope s(rec, "trace.analyze", i);
                crit = trace::analyzeCritical(*tracer, &ctx->obs());
            }
            {
                Scope s(rec, "trace.publish", i);
                trace::publishCriticalPath(crit.path, ctx->obs());
            }
            std::shared_ptr<obs::Registry> stats = ctx->obsPtr();
            {
                Scope s(rec, "runtime.teardown", i);
                ctx.reset();
            }
            {
                Scope s(rec, "perfmodel.decompose", i);
                out.decompose = perfmodel::decompose(*tracer).report();
            }
            {
                Scope s(rec, "obs.stats_json", i);
                std::ostringstream json;
                obs::writeStatsJson(
                    json, {{"", stats.get()}}, /*include_host=*/false,
                    trace::criticalPathJsonMember(crit.path));
                out.stats_json = json.str();
            }
            const auto &shares = crit.path.shares;
            out.shares_sum_to_e2e =
                std::accumulate(shares.begin(), shares.end(), SimTime{0})
                == crit.path.end_to_end;
            out.events = apiCalls(*stats);
            out.event_queue_us = distributionSum(
                *stats, "host.profile.event_queue_run_us");
            Scope s(rec, "runtime.teardown", i);
            tracer.reset();
            stats.reset();
            crit = {};
            out.ok = true;
        } catch (const FatalError &e) {
            out.error = e.what();
        }
        return out;
    }

    bool
    verify(const Cell &cell, const Out &out)
    {
        if (!out.ok)
            return check_.fail(cell.label + ": " + out.error);
        bool good = true;
        if (!out.shares_sum_to_e2e)
            good = check_.fail(cell.label
                               + ": critical-path shares do not sum to "
                                 "end_to_end");
        good &= check_.check("figure-cells/" + cell.label + "/stats",
                             out.stats_json);
        good &= check_.check("figure-cells/" + cell.label
                                 + "/decompose",
                             out.decompose);
        return good;
    }

    std::uint64_t seed_;
    OutputCheck check_;
    std::vector<Cell> cells_;
};

// ---------------------------------------------------- fault-campaign

/** The 7-site x 3-tier llm fault campaign of `hccsim faults`, forked
 *  from snapshot trees on 2 workers. */
class FaultCampaign : public BenchWorkload
{
  public:
    static constexpr int kJobs = 2;
    static constexpr int kSeeds = 8;
    static constexpr int kRates = 12;
    static constexpr int kColdSamples = 16;

    FaultCampaign(std::uint64_t seed, const Refs &refs,
                  std::ostream &log)
        : seed_(seed), check_(refs, seed, log)
    {}

    bool parallelCells() const override { return true; }

    void
    describeInputs(std::ostream &os) const override
    {
        os << "fault-campaign: app=" << spec_.app
           << " fork_point=" << spec_.fork_point.str()
           << " cells=" << spec_.cellCount() << "\nseeds";
        for (auto s : spec_.seeds)
            os << " " << s;
        os << "\nrates";
        for (double r : spec_.rates)
            os << " " << r;
        os << "\ncold samples";
        for (auto i : cold_samples_)
            os << " " << i;
        os << "\n";
    }

    void
    setup() override
    {
        spec_.app = "llm";
        spec_.overlaps = kAllTiers;
        spec_.sites.assign(fault::allSites().begin(),
                           fault::allSites().end());
        for (int i = 1; i <= kRates; ++i)
            spec_.rates.push_back(i / 100.0);
        // The campaign's seeds, hence every fault draw, come from the
        // run's seed: 42 -> 42001..42008.
        for (int i = 1; i <= kSeeds; ++i)
            spec_.seeds.push_back(seed_ * 1000 + i);
        spec_.fork_point = snap::parseForkPoint("auto/0.99").take();
        const std::size_t n = spec_.cellCount();
        for (int k = 0; k < kColdSamples; ++k)
            cold_samples_.push_back(mix(seed_ + k) % n);
        workloads::WorkloadRegistry::instance();
    }

    PassResult
    runPass(SpanRecorder &rec, int pass) override
    {
        PassResult r;
        auto result = std::make_unique<fault::CampaignResult>();
        std::ostringstream csv, json, stats;
        std::int64_t start = nowNs();
        if (rec.enabled()) {
            Scope s(rec, "fault.expand");
            fault::expandCampaign(spec_);
        }
        {
            Scope s(rec, "fault.campaign");
            obs::Registry campaign_obs;
            *result = fault::runFaultCampaign(spec_, kJobs,
                                              &campaign_obs);
        }
        {
            Scope s(rec, "obs.writers");
            fault::writeCampaignCsv(*result, csv);
            fault::writeCampaignJson(*result, json);
            fault::writeCampaignStats(*result, stats);
        }
        r.timed_s = msSince(start) / 1e3;

        // Untimed: checks.
        std::vector<bool> bad(result->cells.size(), false);
        for (std::size_t i = 0; i < result->cells.size(); ++i) {
            const auto &c = result->cells[i];
            r.cell_ms.push_back(c.wall_us / 1e3);
            r.cell_id.push_back(i);
            if (!c.ok)
                bad[i] = !check_.fail(c.cell.label(spec_) + ": "
                                      + c.error);
        }
        const bool outputs_ok =
            check_.check("fault-campaign/csv", csv.str())
            & check_.check("fault-campaign/json", json.str())
            & check_.check("fault-campaign/stats", stats.str());
        if (!outputs_ok)
            std::fill(bad.begin(), bad.end(), true);
        if (pass == 0)
            coldCheck(*result, rec, bad);
        r.attempted = bad.size();
        r.failed = static_cast<std::size_t>(
            std::count(bad.begin(), bad.end(), true));

        if (rec.enabled()) {
            double injected = 0.0;
            for (const auto &c : result->cells)
                injected += static_cast<double>(c.injected);
            const auto cells =
                static_cast<double>(result->cells.size());
            r.layer = {
                {"fault.expand_ms", rec.passMs("fault.expand", pass)},
                {"fault.campaign_ms", rec.passMs("fault.campaign", pass)},
                {"fault.injected", injected},
                {"snap.snapshot_hits",
                 static_cast<double>(result->snapshot_hits)},
                {"snap.hit_ratio",
                 static_cast<double>(result->snapshot_hits) / cells},
                {"snap.peak_resident_bytes",
                 static_cast<double>(result->peak_resident_bytes)},
                {"sweep.pool.utilization_pct",
                 result->pool.utilization(result->wall_us) * 100.0},
                {"sweep.pool.steals",
                 static_cast<double>(result->pool.stolen)},
                {"obs.writers_ms", rec.passMs("obs.writers", pass)},
                {"obs.writers_bytes",
                 static_cast<double>(csv.str().size() + json.str().size()
                                     + stats.str().size())},
            };
        }

        // Timed again: dropping thousands of per-cell registries is
        // part of what a campaign costs.
        start = nowNs();
        {
            Scope s(rec, "runtime.teardown");
            result.reset();
        }
        r.timed_s += msSince(start) / 1e3;
        if (rec.enabled())
            r.layer["runtime.teardown_ms"] =
                rec.passMs("runtime.teardown", pass);
        return r;
    }

    void
    finishLayers(std::map<std::string, double> &layer,
                 double cell_ms_p50) const override
    {
        std::vector<double> ms = cold_ms_;
        if (ms.empty())
            return;
        std::sort(ms.begin(), ms.end());
        const double cold = ms[ms.size() / 2];
        layer["snap.cold_cell_ms"] = cold;
        layer["snap.fork_speedup"] = cold / cell_ms_p50;
    }

  private:
    /**
     * Re-run sampled cells cold (the --no-snapshot control: a fresh
     * Context simulates the whole prefix and arms the cell's faults at
     * the same fork point) and require byte-identical results.
     */
    void
    coldCheck(const fault::CampaignResult &result, SpanRecorder &rec,
              std::vector<bool> &bad)
    {
        for (std::size_t idx : cold_samples_) {
            const auto &forked = result.cells[idx];
            snap::ForkGroupSpec group;
            group.app = spec_.app;
            group.sys.cc = true;
            group.sys.channel.crypto_workers = spec_.crypto_workers;
            group.sys.channel.tee_io = spec_.tee_io;
            group.sys.channel.overlap = forked.cell.overlap;
            group.params.uvm = spec_.uvm;
            group.params.scale = spec_.scale;
            group.snapshot_budget_bytes = spec_.snapshot_budget_bytes;
            const std::uint64_t ident = snap::identitySeed(
                spec_.app, group.sys, group.params);
            group.sys.seed = ident;
            group.params.seed = ident;
            snap::ForkCell cell;
            snap::ForkArm arm;
            arm.kind = snap::ForkArm::Kind::Reseed;
            arm.seed = forked.cell.seed;
            cell.arms.push_back(arm);
            if (!forked.cell.baseline)
                cell.faults.set(forked.cell.site, forked.cell.rate);
            group.cells.push_back(cell);

            const std::int64_t start = nowNs();
            snap::ForkGroupOutcome cold;
            {
                Scope s(rec, "snap.cold_cell",
                        static_cast<std::int64_t>(idx));
                cold = snap::runForkGroup(group, spec_.fork_point,
                                          /*no_snapshot=*/true);
            }
            cold_ms_.push_back(msSince(start));

            const std::string label = forked.cell.label(spec_);
            const auto &c = cold.cells.at(0);
            if (!c.ok || !forked.ok) {
                bad[idx] = !check_.fail(label + ": cold re-run failed: "
                                        + c.error);
            } else if (c.result.end_to_end != forked.result.end_to_end
                       || trace::criticalPathJson(c.result.critical)
                           != trace::criticalPathJson(
                               forked.result.critical)
                       || obs::statsJson(*c.result.stats)
                           != obs::statsJson(*forked.result.stats)) {
                bad[idx] = !check_.fail(
                    label + ": cold re-run differs from the forked cell");
            }
        }
    }

    std::uint64_t seed_;
    OutputCheck check_;
    fault::CampaignSpec spec_;
    std::vector<std::size_t> cold_samples_;
    std::vector<double> cold_ms_;
};

// ------------------------------------------------------- serve-curve

/** `hccsim serve --loads 2,16,32 --requests 200 --jobs 1`: base and cc
 *  at each load, one cell after another. */
class ServeCurve : public BenchWorkload
{
  public:
    static constexpr int kRequests = 200;

    ServeCurve(std::uint64_t seed, const Refs &refs, std::ostream &log)
        : seed_(seed), check_(refs, seed, log)
    {}

    void
    describeInputs(std::ostream &os) const override
    {
        os << "serve-curve: spec.seed=" << spec_.seed
           << " requests=" << spec_.requests
           << " cells=" << cells_.size() << "\n";
        for (std::size_t l = 0; l < spec_.loads.size(); ++l) {
            std::int64_t prompt = 0;
            for (const auto &q : arrivals_[l])
                prompt += q.prompt_len;
            os << "load " << spec_.loads[l] << ": requests "
               << arrivals_[l].size() << " prompt_tokens " << prompt
               << " gen_tokens " << gen_tokens_[l] << " last_arrival_ps "
               << arrivals_[l].back().arrival << "\n";
        }
    }

    void
    setup() override
    {
        // Below the CC knee (2 req/s) and past it (16, 32).  Loads near
        // a knee (4 for cc, 8-16 for base) are left out: host time
        // there swings with the arrival trace, so with the seed.
        spec_.loads = {2.0, 16.0, 32.0};
        spec_.requests = kRequests;
        spec_.seed = seed_;
        cells_ = serve::expandServeCells(spec_);
        for (double load : spec_.loads) {
            arrivals_.push_back(serve::buildArrivalTrace(spec_, load));
            std::int64_t gen = 0;
            for (const auto &q : arrivals_.back())
                gen += q.gen_len;
            gen_tokens_.push_back(gen);
        }
    }

    PassResult
    runPass(SpanRecorder &rec, int pass) override
    {
        PassResult r;
        std::int64_t start = nowNs();
        serve::ServeResult result = rec.enabled()
            ? tracedServe(rec)
            : serve::runServe(spec_, /*jobs=*/1);
        std::ostringstream csv, json, stats;
        {
            Scope s(rec, "obs.writers");
            serve::writeServeCsv(result, csv);
            serve::writeServeJson(result, json);
            serve::writeServeStats(result, stats);
        }
        r.timed_s = msSince(start) / 1e3;

        std::vector<bool> bad(result.cells.size(), false);
        double events = 0.0, queue_us = 0.0, kv_batches = 0.0,
               kv_bytes = 0.0, preempted = 0.0;
        for (std::size_t i = 0; i < result.cells.size(); ++i) {
            const auto &c = result.cells[i];
            r.cell_ms.push_back(c.wall_us / 1e3);
            r.cell_id.push_back(i);
            const std::string label = c.cell.label();
            if (!c.ok) {
                bad[i] = !check_.fail(label + ": " + c.error);
                continue;
            }
            const auto l = static_cast<std::size_t>(
                std::find(spec_.loads.begin(), spec_.loads.end(),
                          c.cell.load)
                - spec_.loads.begin());
            const auto &p = c.point;
            if (p.completed != spec_.requests
                || p.requests != spec_.requests)
                bad[i] = !check_.fail(label
                                      + ": not every request completed");
            if (p.tokens != gen_tokens_[l])
                bad[i] = !check_.fail(
                    label + ": " + std::to_string(p.tokens)
                    + " tokens, arrival trace asks for "
                    + std::to_string(gen_tokens_[l]));
            events += apiCalls(*p.stats);
            queue_us += distributionSum(
                *p.stats, "host.profile.event_queue_run_us");
            kv_batches += static_cast<double>(p.kv_fault_batches);
            kv_bytes += static_cast<double>(p.kv_migrated_bytes);
            preempted += p.preempted;
        }
        const bool outputs_ok =
            check_.check("serve-curve/csv", csv.str())
            & check_.check("serve-curve/json", json.str())
            & check_.check("serve-curve/stats", stats.str());
        if (!outputs_ok)
            std::fill(bad.begin(), bad.end(), true);
        r.attempted = bad.size();
        r.failed = static_cast<std::size_t>(
            std::count(bad.begin(), bad.end(), true));

        if (rec.enabled()) {
            const double base = rec.passMs("serve.cell.base", pass);
            const double cc = rec.passMs("serve.cell.cc", pass);
            r.layer = {
                {"serve.arrivals_ms", rec.passMs("serve.arrivals", pass)},
                {"serve.cell_ms.base", base},
                {"serve.cell_ms.cc", cc},
                {"workloads.run_ms", base + cc},
                {"sim.events", events},
                {"sim.events_per_s", events / ((base + cc) / 1e3)},
                {"sim.event_queue_run_ms", queue_us / 1e3},
                {"serve.kv_fault_batches", kv_batches},
                {"serve.kv_migrated_bytes", kv_bytes},
                {"serve.preempted", preempted},
                {"obs.writers_ms", rec.passMs("obs.writers", pass)},
                {"obs.writers_bytes",
                 static_cast<double>(csv.str().size() + json.str().size()
                                     + stats.str().size())},
            };
        }

        start = nowNs();
        {
            Scope s(rec, "runtime.teardown");
            result = {};
        }
        r.timed_s += msSince(start) / 1e3;
        if (rec.enabled())
            r.layer["runtime.teardown_ms"] =
                rec.passMs("runtime.teardown", pass);
        return r;
    }

  private:
    /** runServe at --jobs 1, call by call: each load's arrival
     *  trace, then each cell. */
    serve::ServeResult
    tracedServe(SpanRecorder &rec) const
    {
        for (double load : spec_.loads) {
            Scope s(rec, "serve.arrivals");
            serve::buildArrivalTrace(spec_, load);
        }
        serve::ServeResult result;
        result.spec = spec_;
        result.jobs = 1;
        const std::int64_t start = nowNs();
        for (const auto &cell : cells_) {
            serve::ServeCellResult out;
            out.cell = cell;
            const std::int64_t cell_start = nowNs();
            try {
                Scope s(rec, cell.cc ? "serve.cell.cc" : "serve.cell.base",
                        static_cast<std::int64_t>(cell.index));
                out.point = serve::runServeCell(spec_, cell);
                out.ok = true;
            } catch (const FatalError &e) {
                out.error = e.what();
            }
            out.wall_us = msSince(cell_start) * 1e3;
            result.cells.push_back(std::move(out));
        }
        result.wall_us = msSince(start) * 1e3;
        return result;
    }

    std::uint64_t seed_;
    OutputCheck check_;
    serve::ServeSpec spec_;
    std::vector<serve::ServeCell> cells_;
    std::vector<std::vector<serve::Request>> arrivals_;
    std::vector<std::int64_t> gen_tokens_;
};

} // namespace

std::unique_ptr<BenchWorkload>
makeWorkload(const std::string &name, std::uint64_t seed,
             const Refs &refs, std::ostream &log)
{
    if (name == "figure-cells")
        return std::make_unique<FigureCells>(seed, refs, log);
    if (name == "fault-campaign")
        return std::make_unique<FaultCampaign>(seed, refs, log);
    if (name == "serve-curve")
        return std::make_unique<ServeCurve>(seed, refs, log);
    return nullptr;
}

} // namespace perfbench
