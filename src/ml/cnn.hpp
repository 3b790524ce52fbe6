/**
 * @file
 * CNN training model (Sec. VII-B, Fig. 13).
 *
 * Six CIFAR-100 models are described by per-image compute cost and
 * per-step kernel count; a training step is driven through the real
 * runtime (batch H2D, layer kernel launches, loss readback), so the
 * CC launch and transfer taxes shape the step time exactly as they
 * shape the microbenchmarks.  Precision modes change the arithmetic
 * throughput, the kernel count (AMP inserts cast kernels) and the
 * transferred bytes (FP16 halves the input payload).
 */

#ifndef HCC_ML_CNN_HPP
#define HCC_ML_CNN_HPP

#include <optional>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "runtime/context.hpp"

namespace hcc::ml {

/** The six evaluated models. */
enum class CnnModel
{
    Vgg16,
    ResNet50,
    MobileNetV2,
    SqueezeNet,
    Attention92,
    InceptionV4,
};

/** Training numeric configuration. */
enum class Precision { Fp32, Amp, Fp16 };

std::string cnnModelName(CnnModel model);
std::string precisionName(Precision precision);
const std::vector<CnnModel> &allCnnModels();

/** Static per-model characteristics. */
struct CnnModelSpec
{
    /** Forward+backward compute per image (GFLOP, CIFAR-100 input). */
    double gflop_per_image = 0.0;
    /** Kernel launches per training step at FP32. */
    int kernels_per_step = 0;
    /** Parameter bytes (optimizer state update traffic). */
    Bytes param_bytes = 0;
};

/** Lookup of the calibrated model spec. */
const CnnModelSpec &cnnModelSpec(CnnModel model);

/** One training run's configuration. */
struct CnnTrainConfig
{
    CnnModel model = CnnModel::Vgg16;
    int batch_size = 64;
    Precision precision = Precision::Fp32;
    /** Steps to simulate (steady state is reached quickly). */
    int steps = 30;
};

/** Training measurement. */
struct CnnTrainResult
{
    /** Mean steady-state step time. */
    SimTime step_time = 0;
    /** Images per second. */
    double throughput = 0.0;
    /** Extrapolated time for 200 CIFAR-100 epochs. */
    SimTime train_time_200_epochs = 0;
};

/** Run @p config's training loop in @p ctx and measure. */
CnnTrainResult trainCnn(rt::Context &ctx, const CnnTrainConfig &config);

/**
 * Split-phase training, mirroring the llm trio (llm.hpp) and behind
 * the registry's "cnntrain" Session (workloads/mlapps.cpp): the
 * training loop's state across step boundaries.  The prefix issues
 * only the warm-up step; only cnnTrainSegment advances steady-state
 * steps.  trainCnn() is exactly
 * cnnTrainFinish(ctx, cfg, cnnTrainPrefix(ctx, cfg)).
 */
struct CnnTrainState
{
    /** Per-layer-kernel duration derived from the config. */
    SimTime per_kernel = 0;
    /** Layer (+ AMP cast) kernels per step. */
    int layer_kernels = 0;
    /** Input payload per step. */
    Bytes batch_bytes = 0;
    rt::Buffer images_host, images_dev_a, images_dev_b;
    rt::Buffer params, loss_dev, loss_host;
    /** Dataloader prefetch stream (optional: Stream has no default
     *  construction outside a Context). */
    std::optional<rt::Stream> copy_stream;
    /** Double-buffer flip: which staging buffer the next prefetch
     *  fills. */
    bool use_a = true;
    /** Start of the steady-state window (after the warm-up step). */
    SimTime steady_start = 0;
    /** Next steady-state step to run. */
    int next_step = 0;
};

/** Allocations and the warm-up step. */
CnnTrainState cnnTrainPrefix(rt::Context &ctx,
                             const CnnTrainConfig &config);

/** Advance the training loop in place: steady-state steps
 *  [state.next_step, to_step).  Prefix + segments + finish issues
 *  the identical call sequence as trainCnn(). */
void cnnTrainSegment(rt::Context &ctx, const CnnTrainConfig &config,
                     CnnTrainState &state, int to_step);

/** The remaining steps, result computation and frees. */
CnnTrainResult cnnTrainFinish(rt::Context &ctx,
                              const CnnTrainConfig &config,
                              CnnTrainState state);

/** One cell of a CNN batch sweep: a config and the system to run it
 *  under.  Each cell gets its own rt::Context, so cells are
 *  independent and safe to run on parallel workers. */
struct CnnSweepCell
{
    rt::SystemConfig sys;
    CnnTrainConfig config;
};

/**
 * Train every cell on @p jobs workers (<= 1 = inline on the calling
 * thread).  Results come back in input order regardless of worker
 * scheduling, so callers can index them like the cell list.
 */
std::vector<CnnTrainResult>
runCnnSweep(const std::vector<CnnSweepCell> &cells, int jobs);

/** CIFAR-100 training-set size (for epoch extrapolation). */
constexpr int kCifarTrainImages = 50000;

} // namespace hcc::ml

#endif // HCC_ML_CNN_HPP
