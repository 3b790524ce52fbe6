#include "workloads/spec.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>

#include "common/log.hpp"
#include "common/rng.hpp"

namespace hcc::workloads {

// Defined in the per-suite translation units.
void registerPolybench();
void registerRodinia();
void registerGraphSuites();
void registerMlApps();
void registerTransferApps();

void
ensureSuitesRegistered()
{
    // A recursive mutex: registration paths re-enter here on the
    // same thread (each suite's register function touches the
    // registry), while the lock keeps a second sweep worker from
    // racing the first caller's registration.
    static std::recursive_mutex mutex;
    static bool done = false;
    const std::lock_guard<std::recursive_mutex> lock(mutex);
    if (done)
        return;
    done = true;  // set first: registration paths re-enter here
    registerPolybench();
    registerRodinia();
    registerGraphSuites();
    registerMlApps();
    registerTransferApps();
}

Bytes
AppSpec::totalInputBytes() const
{
    return std::accumulate(inputs.begin(), inputs.end(), Bytes{0});
}

Bytes
AppSpec::totalOutputBytes() const
{
    return std::accumulate(outputs.begin(), outputs.end(), Bytes{0});
}

int
AppSpec::totalLaunches() const
{
    int n = 0;
    for (const auto &p : phases)
        n += p.launches;
    return n;
}

SpecWorkload::SpecWorkload(AppSpec spec)
    : spec_(std::move(spec))
{
    if (spec_.name.empty() || spec_.phases.empty())
        fatal("app spec needs a name and at least one phase");
}

namespace {

/** Deterministic KET jitter, identical across base and CC runs. */
Rng
ketRng(const AppSpec &spec, std::uint64_t seed)
{
    const std::uint64_t h = std::hash<std::string>{}(spec.name) ^ seed;
    return Rng(h, 0x4b45544a49545231ULL);
}

/**
 * An AppSpec run as a Session: allocations and input transfers on
 * open(), launches by ordinal on advance(), final sync, output
 * transfers and frees on finish().  The state is buffer handles
 * (plain ids into the Context's allocation map, which snapshots
 * restore), the KET jitter stream and the launch cursor, so a clone
 * replays against every cell restored from the same snapshot.  The
 * session borrows its workload's spec and must not outlive it.
 */
class SpecSession final : public Session
{
  public:
    SpecSession(const AppSpec &spec, const WorkloadParams &params)
        : spec_(&spec), params_(params), rng_(ketRng(spec, params.seed))
    {}

    int totalSteps() const override { return spec_->totalLaunches(); }
    int cursor() const override { return next_launch_; }
    void open(rt::Context &ctx) override;
    void advance(rt::Context &ctx, int to_step) override;
    void finish(rt::Context &ctx) override;
    void reseed(std::uint64_t seed) override
    {
        rng_ = ketRng(*spec_, seed);
    }

    std::unique_ptr<Session>
    clone() const override
    {
        return std::make_unique<SpecSession>(*this);
    }

  private:
    /** @p value as a T; fatal when it does not fit, where the cast
     *  would be undefined. */
    template <typename T>
    T
    checked(double value) const
    {
        // 2^digits is exact in a double; !(x < max) also rejects NaN.
        if (!(value >= 0.0)
            || !(value < std::ldexp(1.0,
                                    std::numeric_limits<T>::digits))) {
            fatal("workload '%s' at scale %g: a scaled buffer size or "
                  "kernel time overflows",
                  spec_->name.c_str(), params_.scale);
        }
        return static_cast<T>(value);
    }

    Bytes
    scaled(Bytes bytes) const
    {
        return checked<Bytes>(static_cast<double>(bytes) * params_.scale);
    }

    SimTime
    scaledTime(SimTime t) const
    {
        return checked<SimTime>(static_cast<double>(t) * params_.scale);
    }

    /** Every scaled size and nominal KET, before any runtime call. */
    void checkScale() const;

    const AppSpec *spec_;
    WorkloadParams params_;
    Rng rng_;
    std::vector<rt::Buffer> host_in_, host_out_, dev_in_, dev_out_;
    std::vector<rt::Buffer> d2d_bufs_;
    rt::Buffer scratch_, iter_dev_, iter_host_;
    rt::Buffer managed_;
    /** Managed bytes each kernel touches (UVM mode). */
    Bytes touch_ = 0;
    /** Ordinal of the next launch to issue. */
    int next_launch_ = 0;
};

void
SpecSession::checkScale() const
{
    const AppSpec &spec = *spec_;
    (void)scaled(spec.totalInputBytes() + spec.totalOutputBytes());
    (void)scaled(spec.scratch);
    (void)scaled(spec.uvm_touch_override);
    for (const auto *sizes : {&spec.inputs, &spec.outputs,
                              &spec.d2d_copies}) {
        for (Bytes b : *sizes)
            (void)scaled(b);
    }
    for (const auto &phase : spec.phases) {
        (void)scaledTime(phase.ket);
        (void)scaled(phase.mem_bytes);
    }
}

void
SpecSession::open(rt::Context &ctx)
{
    checkScale();
    const AppSpec &spec = *spec_;

    if (params_.uvm) {
        // One managed region covers inputs + outputs; pages fault
        // over on first kernel touch instead of explicit copies.
        const Bytes data_bytes =
            scaled(spec.totalInputBytes() + spec.totalOutputBytes());
        managed_ = ctx.mallocManaged(std::max<Bytes>(data_bytes, 4096));
        if (spec.scratch > 0)
            scratch_ = ctx.mallocDevice(scaled(spec.scratch));
        touch_ = spec.uvm_touch_override > 0
            ? scaled(spec.uvm_touch_override)
            : scaled(spec.totalInputBytes());
        return;
    }

    // Allocate host and device buffers.
    for (Bytes b : spec.inputs) {
        const Bytes n = scaled(b);
        host_in_.push_back(spec.pinned_host ? ctx.mallocHost(n)
                                            : ctx.hostPageable(n));
        dev_in_.push_back(ctx.mallocDevice(n));
    }
    for (Bytes b : spec.outputs) {
        const Bytes n = scaled(b);
        host_out_.push_back(spec.pinned_host ? ctx.mallocHost(n)
                                             : ctx.hostPageable(n));
        dev_out_.push_back(ctx.mallocDevice(n));
    }
    if (spec.scratch > 0)
        scratch_ = ctx.mallocDevice(scaled(spec.scratch));

    // Per-iteration streaming/readback staging, if any phase needs
    // it (one buffer serves both directions).
    Bytes iter_bytes = 0;
    for (const auto &p : spec.phases)
        iter_bytes = std::max({iter_bytes, p.d2h_per_iter,
                               p.h2d_per_iter});
    if (iter_bytes > 0) {
        iter_dev_ = ctx.mallocDevice(iter_bytes);
        iter_host_ = spec.pinned_host ? ctx.mallocHost(iter_bytes)
                                      : ctx.hostPageable(iter_bytes);
    }

    // Copy-then-execute: H2D inputs, optional D2D shuffles.
    for (std::size_t i = 0; i < dev_in_.size(); ++i)
        ctx.memcpy(dev_in_[i], host_in_[i], dev_in_[i].bytes);
    for (Bytes b : spec.d2d_copies) {
        const Bytes n = scaled(b);
        auto src = ctx.mallocDevice(n);
        auto dst = ctx.mallocDevice(n);
        ctx.memcpy(dst, src, n);
        d2d_bufs_.push_back(src);
        d2d_bufs_.push_back(dst);
    }
}

void
SpecSession::advance(rt::Context &ctx, int to_step)
{
    const int from = next_launch_;
    const int to_launch = std::max(to_step, from);
    int ordinal = 0;
    for (const auto &phase : spec_->phases) {
        const int phase_end = ordinal + phase.launches;
        for (int i = 0; i < phase.launches; ++i, ++ordinal) {
            if (ordinal < from || ordinal >= to_launch)
                continue;
            gpu::KernelDesc k;
            k.name = phase.kernel;
            k.module_bytes = phase.module_bytes;
            if (phase.ket > 0) {
                k.duration = checked<SimTime>(rng_.lognormal(
                    static_cast<double>(scaledTime(phase.ket)),
                    phase.jitter_sigma));
            } else {
                // Roofline phase: scale work, derive duration on
                // the device.
                k.gflops = phase.gflops * params_.scale;
                k.mem_bytes = scaled(phase.mem_bytes);
                k.dims.grid_x = static_cast<int>(phase.threads / 256);
                k.dims.block_x = 256;
            }
            if (params_.uvm) {
                k.uvm_alloc = managed_.uvm_handle;
                k.uvm_touch_bytes = std::min(touch_, managed_.bytes);
            }
            if (!params_.uvm && phase.h2d_per_iter > 0)
                ctx.memcpy(iter_dev_, iter_host_, phase.h2d_per_iter);
            ctx.launchKernel(k);
            if (!params_.uvm && phase.d2h_per_iter > 0)
                ctx.memcpy(iter_host_, iter_dev_, phase.d2h_per_iter);
        }
        // The phase barrier belongs to whichever range completed the
        // phase, so any split replays it exactly once.
        if (phase.sync_after && phase_end > from
            && phase_end <= to_launch)
            ctx.deviceSynchronize();
    }
    next_launch_ = std::min(to_launch, totalSteps());
}

void
SpecSession::finish(rt::Context &ctx)
{
    advance(ctx, totalSteps());
    ctx.deviceSynchronize();

    if (params_.uvm) {
        if (scratch_.valid())
            ctx.free(scratch_);
        ctx.free(managed_);
        return;
    }

    // Results home, then teardown.
    for (std::size_t i = 0; i < dev_out_.size(); ++i)
        ctx.memcpy(host_out_[i], dev_out_[i], dev_out_[i].bytes);
    for (auto &b : dev_in_)
        ctx.free(b);
    for (auto &b : dev_out_)
        ctx.free(b);
    for (auto &b : d2d_bufs_)
        ctx.free(b);
    if (scratch_.valid())
        ctx.free(scratch_);
    if (iter_dev_.valid())
        ctx.free(iter_dev_);
    if (iter_host_.valid())
        ctx.free(iter_host_);
    for (auto &b : host_in_)
        ctx.free(b);
    for (auto &b : host_out_)
        ctx.free(b);
}

} // namespace

std::unique_ptr<Session>
SpecWorkload::makeSession(const WorkloadParams &params) const
{
    if (params.uvm && !spec_.uvm_capable)
        fatal("workload '%s' has no UVM variant", spec_.name.c_str());
    return std::make_unique<SpecSession>(spec_, params);
}

void
registerSpec(AppSpec spec)
{
    WorkloadRegistry::instance().add(
        std::make_unique<SpecWorkload>(std::move(spec)));
}

} // namespace hcc::workloads
