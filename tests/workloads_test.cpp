/**
 * @file
 * Tests for the workload framework: registry, spec driver semantics,
 * per-app event-pattern anchors from the paper, and the Fig. 12
 * microbenchmarks.
 */

#include <gtest/gtest.h>

#include "common/log.hpp"
#include "workloads/micro.hpp"
#include "workloads/spec.hpp"
#include "workloads/workload.hpp"

namespace hcc::workloads {
namespace {

rt::SystemConfig
cfg(bool cc)
{
    rt::SystemConfig c;
    c.cc = cc;
    return c;
}

// ------------------------------------------------------- registry

TEST(Registry, AllEvaluationAppsRegistered)
{
    auto &reg = WorkloadRegistry::instance();
    for (const auto &app : evaluationApps())
        EXPECT_NE(reg.find(app), nullptr) << app;
}

TEST(Registry, UvmAppsAllSupportUvm)
{
    auto &reg = WorkloadRegistry::instance();
    for (const auto &app : uvmApps())
        EXPECT_TRUE(reg.get(app).supportsUvm()) << app;
}

TEST(Registry, UnknownNameIsFatal)
{
    EXPECT_THROW(WorkloadRegistry::instance().get("nonexistent"),
                 FatalError);
}

TEST(Registry, SuiteFilterWorks)
{
    auto &reg = WorkloadRegistry::instance();
    const auto poly = reg.ofSuite("polybench");
    EXPECT_GE(poly.size(), 10u);
    for (const auto *w : poly)
        EXPECT_EQ(w->suite(), "polybench");
}

TEST(Registry, DuplicateRegistrationIsFatal)
{
    AppSpec spec;
    spec.name = "2mm";  // already registered
    spec.suite = "test";
    spec.phases = {{"k", 1, time::us(1), 0.0, 0, false, 0}};
    EXPECT_THROW(registerSpec(std::move(spec)), FatalError);
}

// ------------------------------------------------ event anchors

TEST(EventAnchors, ScHas1611Launches)
{
    const auto res = runWorkload("sc", cfg(false));
    EXPECT_EQ(res.metrics.launches, 1611);
}

TEST(EventAnchors, Dwt2dHasTenLaunches)
{
    const auto res = runWorkload("dwt2d", cfg(false));
    EXPECT_EQ(res.metrics.launches, 10);
}

TEST(EventAnchors, ThreeDConvLaunchesOneKernel254Times)
{
    const auto res = runWorkload("3dconv", cfg(false));
    EXPECT_EQ(res.metrics.launches, 254);
    // All launches carry the same kernel symbol.
    for (const auto &e :
         res.trace.ofKind(trace::EventKind::Launch)) {
        EXPECT_EQ(res.trace.labelName(e.label),
                  "convolution3d_kernel");
    }
}

TEST(EventAnchors, TwoMmHasTwoLaunches)
{
    const auto res = runWorkload("2mm", cfg(false));
    EXPECT_EQ(res.metrics.launches, 2);
}

TEST(EventAnchors, CnnCopiesAreD2dDominated)
{
    const auto res = runWorkload("cnn", cfg(false));
    EXPECT_GT(res.metrics.copy_d2d,
              4 * (res.metrics.copy_h2d + res.metrics.copy_d2h));
}

TEST(EventAnchors, PinnedAppReclassifiedAsManagedUnderCc)
{
    // 2dconv uses pinned buffers: under CC its copies must show up
    // as (encrypted-paging) D2D, like Nsight reports them.
    const auto base = runWorkload("2dconv", cfg(false));
    const auto cc = runWorkload("2dconv", cfg(true));
    EXPECT_GT(base.metrics.copy_h2d + base.metrics.copy_d2h, 0);
    EXPECT_EQ(cc.metrics.copy_h2d, 0);
    EXPECT_EQ(cc.metrics.copy_d2h, 0);
    EXPECT_GT(cc.metrics.copy_d2d, 0);
}

// ------------------------------------------------- spec driver

TEST(SpecDriver, DeterministicAcrossRuns)
{
    const auto a = runWorkload("hotspot", cfg(false));
    const auto b = runWorkload("hotspot", cfg(false));
    EXPECT_EQ(a.end_to_end, b.end_to_end);
}

TEST(SpecDriver, KetsIdenticalAcrossModes)
{
    // Kernel durations are seeded identically so base/CC ratios are
    // pure CC effects (for non-UVM apps KET may only drift by the
    // small CC jitter).
    const auto base = runWorkload("gemm", cfg(false));
    const auto cc = runWorkload("gemm", cfg(true));
    ASSERT_EQ(base.metrics.kernels, cc.metrics.kernels);
    const double r = cc.metrics.ket.sum() / base.metrics.ket.sum();
    EXPECT_NEAR(r, 1.005, 0.02);
}

TEST(SpecDriver, ScaleGrowsFootprint)
{
    WorkloadParams small, big;
    small.scale = 1.0;
    big.scale = 2.0;
    const auto a = runWorkload("gemm", cfg(false), small);
    const auto b = runWorkload("gemm", cfg(false), big);
    EXPECT_GT(b.metrics.copyTotal(), a.metrics.copyTotal());
    EXPECT_GT(b.metrics.ket.sum(), a.metrics.ket.sum());
}

TEST(SpecDriver, UvmVariantHasNoExplicitCopies)
{
    WorkloadParams p;
    p.uvm = true;
    const auto res = runWorkload("gemm", cfg(false), p);
    EXPECT_EQ(res.metrics.copyTotal(), 0);
    EXPECT_GT(res.metrics.alloc_managed, 0);
    EXPECT_EQ(res.metrics.alloc_device, 0);
}

TEST(SpecDriver, UvmOnNonUvmAppIsFatal)
{
    WorkloadParams p;
    p.uvm = true;
    EXPECT_THROW(runWorkload("dwt2d", cfg(false), p), FatalError);
}

TEST(SpecDriver, NoLeaksAfterRun)
{
    rt::Context ctx(cfg(false));
    WorkloadRegistry::instance().get("kmeans").run(ctx,
                                                   WorkloadParams{});
    EXPECT_EQ(ctx.liveAllocations(), 0u);
}

/** A scale whose products overflow Bytes/SimTime fails with the app
 *  and the scale named, before the session issues any runtime call
 *  (2mm's 1 ms KET x 1e12 is 1e21 ps, past INT64_MAX). */
TEST(SpecDriver, ScaleOverflowIsFatalBeforeAnyCall)
{
    WorkloadParams p;
    p.scale = 1e12;
    try {
        runWorkload("2mm", cfg(true), p);
        FAIL() << "scale 1e12 must not run";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("'2mm'"), std::string::npos) << msg;
        EXPECT_NE(msg.find("1e+12"), std::string::npos) << msg;
    }

    rt::Context ctx(cfg(false));
    const std::size_t setup_events = ctx.tracer().size();
    EXPECT_THROW(WorkloadRegistry::instance().get("2mm").run(ctx, p),
                 FatalError);
    EXPECT_EQ(ctx.tracer().size(), setup_events);
    EXPECT_EQ(ctx.liveAllocations(), 0u);
}

TEST(SpecDriver, RejectsEmptySpec)
{
    AppSpec spec;
    spec.name = "empty";
    EXPECT_THROW(SpecWorkload{spec}, FatalError);
}

// ------------------------------------------------------- micro

TEST(Micro, LaunchIndexFirstLaunchesSpike)
{
    const auto r = runLaunchIndexMicro(true, 50);
    ASSERT_EQ(r.k0_klo.size(), 50u);
    ASSERT_EQ(r.k1_klo.size(), 50u);
    // First launch of each kernel far above its steady state.
    EXPECT_GT(r.k0_klo[0], 3 * r.k0_klo[40]);
    EXPECT_GT(r.k1_klo[0], 3 * r.k1_klo[40]);
    // K1's first launch also spikes even though K0 is warm.
    EXPECT_GT(r.k1_klo[0], 3 * r.k0_klo[49]);
}

TEST(Micro, FusionSweepKloGrowsWithLaunches)
{
    const auto pts = runFusionSweep(false, time::ms(50.0),
                                    {1, 8, 64});
    ASSERT_EQ(pts.size(), 3u);
    EXPECT_LT(pts[0].sum_klo, pts[2].sum_klo);
    EXPECT_LT(pts[0].sum_lqt, pts[2].sum_lqt);
}

TEST(Micro, FusionSweepRejectsBadCounts)
{
    EXPECT_THROW(runFusionSweep(false, time::ms(1.0), {0}),
                 FatalError);
}

TEST(Micro, OverlapAlphaRisesWithStreams)
{
    const auto one = runOverlapMicro(false, 1, size::mib(512),
                                     time::ms(1.0));
    const auto many = runOverlapMicro(false, 16, size::mib(512),
                                      time::ms(1.0));
    EXPECT_GT(many.alpha, one.alpha);
    // End-to-end cannot get worse (the copies serialize on the link
    // either way; only the exposed tail kernel remains).
    EXPECT_LE(many.end_to_end, one.end_to_end + time::ms(1.0));
}

TEST(Micro, OverlapHarderUnderCcWithShortKernels)
{
    // Observation 8: with short KETs there is not enough compute to
    // hide the (much longer) encrypted transfers.
    const auto base = runOverlapMicro(false, 16, size::gib(1),
                                      time::ms(1.0));
    const auto cc = runOverlapMicro(true, 16, size::gib(1),
                                    time::ms(1.0));
    EXPECT_LT(cc.alpha, base.alpha);
    EXPECT_GT(cc.end_to_end, base.end_to_end);
}

TEST(Micro, LongKernelsRestoreOverlapUnderCc)
{
    const auto short_k = runOverlapMicro(true, 16, size::mib(512),
                                         time::ms(1.0));
    const auto long_k = runOverlapMicro(true, 16, size::mib(512),
                                        time::ms(100.0));
    EXPECT_GT(long_k.alpha, short_k.alpha);
}

} // namespace
} // namespace hcc::workloads
