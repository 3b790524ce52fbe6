/**
 * @file
 * Sweep test: every registered workload (including the extra Rodinia
 * apps not in the paper's figure list) must run cleanly under base
 * and CC and satisfy the global invariants, and every workload's
 * Session must tile: a run cut at any steps issues the calls of a
 * whole run().
 */

#include <gtest/gtest.h>

#include <cctype>
#include <utility>

#include "obs/stats_io.hpp"
#include "trace/analysis.hpp"
#include "workloads/spec.hpp"
#include "workloads/workload.hpp"

namespace hcc::workloads {
namespace {

class AllWorkloads : public ::testing::TestWithParam<std::string>
{};

TEST_P(AllWorkloads, RunsUnderBaseAndCc)
{
    const auto &name = GetParam();
    WorkloadParams params;
    params.scale = 0.5;  // keep the sweep fast

    rt::SystemConfig base, cc;
    cc.cc = true;
    const auto rb = runWorkload(name, base, params);
    const auto rc = runWorkload(name, cc, params);

    EXPECT_GT(rb.end_to_end, 0);
    EXPECT_GT(rc.end_to_end, rb.end_to_end)
        << "CC must never be free";
    EXPECT_GT(rb.metrics.launches, 0);
    EXPECT_EQ(rb.metrics.launches, rc.metrics.launches)
        << "launch counts are structural, not mode-dependent";
    EXPECT_EQ(rb.metrics.kernels, rb.metrics.launches);

    // TDX accounting only under CC.
    EXPECT_EQ(rb.tdx.hypercalls, 0u);
    EXPECT_GT(rc.tdx.hypercalls, 0u);

    // Trace sanity.
    for (const auto &e : rc.trace.events()) {
        EXPECT_GE(e.duration(), 0);
        EXPECT_GE(e.queue_wait, 0);
    }
}

TEST_P(AllWorkloads, UvmVariantRunsWhereSupported)
{
    const auto &name = GetParam();
    const auto &w = WorkloadRegistry::instance().get(name);
    if (!w.supportsUvm())
        GTEST_SKIP() << name << " has no UVM variant";

    WorkloadParams params;
    params.uvm = true;
    params.scale = 0.5;
    rt::SystemConfig base, cc;
    cc.cc = true;
    const auto rb = runWorkload(name, base, params);
    const auto rc = runWorkload(name, cc, params);
    EXPECT_EQ(rb.metrics.copyTotal(), 0)
        << "UVM variants use no explicit copies";
    EXPECT_GE(rc.metrics.ket.sum(), rb.metrics.ket.sum())
        << "encrypted paging cannot make kernels faster";
}

/** @p name with every non-alphanumeric character as '_' (gtest
 *  parameter names allow nothing else). */
std::string
testName(std::string name)
{
    for (auto &c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return name;
}

std::vector<std::string>
allNames()
{
    std::vector<std::string> names;
    for (const auto *w : WorkloadRegistry::instance().all())
        names.push_back(w->name());
    return names;
}

INSTANTIATE_TEST_SUITE_P(
    Registry, AllWorkloads, ::testing::ValuesIn(allNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return testName(info.param);
    });

// ------------------------------------------------ session tiling

/** One tiling case: a workload under base or CC, UVM or not. */
struct TilingCase
{
    std::string app;
    bool cc = false;
    bool uvm = false;
};

std::vector<TilingCase>
allTilingCases()
{
    std::vector<TilingCase> cases;
    for (const auto *w : WorkloadRegistry::instance().all()) {
        for (const bool cc : {false, true}) {
            cases.push_back({w->name(), cc, false});
            if (w->supportsUvm())
                cases.push_back({w->name(), cc, true});
        }
    }
    return cases;
}

/** Every TraceEvent field of @p a and @p b, event by event. */
void
expectSameTrace(const trace::Tracer &a, const trace::Tracer &b,
                const std::string &tag)
{
    ASSERT_EQ(a.size(), b.size()) << tag;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const auto &x = a.events()[i];
        const auto &y = b.events()[i];
        const std::string at = tag + " event " + std::to_string(i);
        EXPECT_EQ(x.kind, y.kind) << at;
        EXPECT_EQ(x.label, y.label) << at;
        EXPECT_EQ(a.labelName(x.label), b.labelName(y.label)) << at;
        EXPECT_EQ(x.start, y.start) << at;
        EXPECT_EQ(x.end, y.end) << at;
        EXPECT_EQ(x.stream, y.stream) << at;
        EXPECT_EQ(x.correlation, y.correlation) << at;
        EXPECT_EQ(x.bytes, y.bytes) << at;
        EXPECT_EQ(x.queue_wait, y.queue_wait) << at;
        EXPECT_EQ(x.encrypted_paging, y.encrypted_paging) << at;
    }
}

class SessionTiling : public ::testing::TestWithParam<TilingCase>
{};

/** open; advance(a); advance(b); finish on a fresh Context issues
 *  exactly the calls of run(): same trace, same stats dump. */
TEST_P(SessionTiling, CutRunMatchesWholeRun)
{
    const TilingCase &tc = GetParam();
    const auto &w = WorkloadRegistry::instance().get(tc.app);
    WorkloadParams params;
    params.uvm = tc.uvm;
    params.scale = 0.5;  // keep the sweep fast
    rt::SystemConfig sys;
    sys.cc = tc.cc;

    rt::Context whole(sys);
    w.run(whole, params);
    const std::string want_stats = obs::statsJson(whole.obs(), false);

    const int total = w.makeSession(params)->totalSteps();
    ASSERT_GT(total, 0);
    const std::pair<int, int> cuts[] = {
        {0, 0}, {0, total}, {total / 3, 2 * total / 3}, {total, total}};
    for (const auto &[a, b] : cuts) {
        const std::string tag = tc.app + " cuts " + std::to_string(a)
            + "," + std::to_string(b);
        rt::Context ctx(sys);
        auto session = w.makeSession(params);
        session->open(ctx);
        EXPECT_EQ(session->cursor(), 0) << tag;
        session->advance(ctx, a);
        session->advance(ctx, b);
        EXPECT_EQ(session->cursor(), b) << tag;
        session->finish(ctx);
        expectSameTrace(whole.tracer(), ctx.tracer(), tag);
        EXPECT_EQ(obs::statsJson(ctx.obs(), false), want_stats) << tag;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, SessionTiling, ::testing::ValuesIn(allTilingCases()),
    [](const ::testing::TestParamInfo<TilingCase> &info) {
        return testName(info.param.app)
            + (info.param.cc ? "_cc" : "_base")
            + (info.param.uvm ? "_uvm" : "");
    });

/** A spec session's reseed at a mid cut switches its KET jitter
 *  stream: every event before the cut is untouched, the kernel
 *  durations after it change. */
TEST(SessionReseed, SpecReseedChangesOnlyKernelsAfterTheCut)
{
    const auto &w = WorkloadRegistry::instance().get("gaussian");
    ASSERT_NE(dynamic_cast<const SpecWorkload *>(&w), nullptr);
    WorkloadParams params;
    params.seed = 1;

    const auto runCut = [&](bool reseed, std::size_t &events_at_cut) {
        auto ctx = std::make_unique<rt::Context>(rt::SystemConfig{});
        auto session = w.makeSession(params);
        session->open(*ctx);
        session->advance(*ctx, session->totalSteps() / 2);
        events_at_cut = ctx->tracer().size();
        if (reseed)
            session->reseed(2);
        session->finish(*ctx);
        return ctx;
    };
    std::size_t cut_a = 0, cut_b = 0;
    const auto same = runCut(false, cut_a);
    const auto reseeded = runCut(true, cut_b);
    ASSERT_EQ(cut_a, cut_b);
    const auto &ea = same->tracer().events();
    const auto &eb = reseeded->tracer().events();
    ASSERT_EQ(same->tracer().size(), reseeded->tracer().size());

    for (std::size_t i = 0; i < cut_a; ++i) {
        EXPECT_EQ(ea[i].start, eb[i].start) << "event " << i;
        EXPECT_EQ(ea[i].end, eb[i].end) << "event " << i;
    }
    std::size_t kernels_after = 0, changed = 0;
    for (std::size_t i = cut_a; i < same->tracer().size(); ++i) {
        if (ea[i].kind != trace::EventKind::Kernel)
            continue;
        ++kernels_after;
        changed += ea[i].duration() != eb[i].duration() ? 1 : 0;
    }
    ASSERT_GT(kernels_after, 0u);
    EXPECT_EQ(changed, kernels_after)
        << "every jittered kernel after the cut draws from the new "
           "seed's stream";
}

} // namespace
} // namespace hcc::workloads
