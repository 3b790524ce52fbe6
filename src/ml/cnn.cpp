#include "ml/cnn.hpp"

#include <algorithm>
#include <cmath>

#include "common/calibration.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"

namespace hcc::ml {

namespace {

/** CIFAR-100 input: 3 x 32 x 32 values per image. */
constexpr Bytes kImageValues = 3 * 32 * 32;

/** FP32 CUDA-core throughput at full occupancy (TFLOP/s). */
constexpr double kFp32PeakTflops = 60.0;

/**
 * Batch at which FP32 utilization reaches half of peak: small
 * batches cannot fill the device.
 */
constexpr double kFp32HalfUtilBatch = 48.0;

/**
 * Tensor-core speedup over FP32 saturates with batch (mixed
 * precision only pays off once the GEMMs are large enough).
 */
constexpr double kAmpMaxSpeedup = 2.6;
constexpr double kAmpHalfBatch = 256.0;

/** Extra kernels AMP inserts (precision casts, loss scaling). */
constexpr double kAmpKernelFactor = 1.35;

/** Per-cast-kernel execution time added by AMP. */
constexpr SimTime kAmpCastKernelKet = time::us(14.0);

/** FP16 end-to-end speedup over FP32 compute (weights + activations
 *  natively half precision). */
constexpr double kFp16ComputeSpeedup = 2.2;

/** Optimizer/loss kernels per step beyond the layer kernels. */
constexpr int kOptimizerKernels = 6;

double
fp32Utilization(int batch)
{
    const double b = static_cast<double>(batch);
    return b / (b + kFp32HalfUtilBatch);
}

double
ampSpeedup(int batch)
{
    const double b = static_cast<double>(batch);
    return 1.0 + (kAmpMaxSpeedup - 1.0) * b / (b + kAmpHalfBatch);
}

} // namespace

std::string
cnnModelName(CnnModel model)
{
    switch (model) {
      case CnnModel::Vgg16: return "VGG16";
      case CnnModel::ResNet50: return "ResNet50";
      case CnnModel::MobileNetV2: return "MobileNetV2";
      case CnnModel::SqueezeNet: return "SqueezeNet";
      case CnnModel::Attention92: return "Attention92";
      case CnnModel::InceptionV4: return "Inception-v4";
    }
    return "?";
}

std::string
precisionName(Precision precision)
{
    switch (precision) {
      case Precision::Fp32: return "FP32";
      case Precision::Amp: return "AMP";
      case Precision::Fp16: return "FP16";
    }
    return "?";
}

const std::vector<CnnModel> &
allCnnModels()
{
    static const std::vector<CnnModel> models = {
        CnnModel::Vgg16, CnnModel::ResNet50, CnnModel::MobileNetV2,
        CnnModel::SqueezeNet, CnnModel::Attention92,
        CnnModel::InceptionV4,
    };
    return models;
}

const CnnModelSpec &
cnnModelSpec(CnnModel model)
{
    // {fwd+bwd GFLOP/image on 32x32 input, kernels/step, params}.
    // fwd+bwd ~ 3x forward FLOPs.
    static const CnnModelSpec vgg{1.00, 180, size::mib(58)};
    static const CnnModelSpec resnet{0.39, 420, size::mib(94)};
    static const CnnModelSpec mobilenet{0.25, 360, size::mib(14)};
    static const CnnModelSpec squeezenet{0.22, 130, size::mib(5)};
    static const CnnModelSpec attention{0.72, 540, size::mib(200)};
    static const CnnModelSpec inception{0.90, 640, size::mib(160)};
    switch (model) {
      case CnnModel::Vgg16: return vgg;
      case CnnModel::ResNet50: return resnet;
      case CnnModel::MobileNetV2: return mobilenet;
      case CnnModel::SqueezeNet: return squeezenet;
      case CnnModel::Attention92: return attention;
      case CnnModel::InceptionV4: return inception;
    }
    panic("unreachable cnn model");
}

namespace {

/** One training step (warm-up and steady-state are identical). */
void
cnnStep(rt::Context &ctx, const CnnTrainConfig &config,
        CnnTrainState &state)
{
    // Prefetch the next batch while this step computes.
    auto &next = state.use_a ? state.images_dev_b
                             : state.images_dev_a;
    ctx.memcpyAsync(next, state.images_host, state.batch_bytes,
                    *state.copy_stream);
    state.use_a = !state.use_a;
    const std::string kname = cnnModelName(config.model) + "_layer";
    const std::string oname = cnnModelName(config.model) + "_opt";
    for (int k = 0; k < state.layer_kernels; ++k) {
        gpu::KernelDesc kd;
        kd.name = kname;
        kd.duration = state.per_kernel;
        ctx.launchKernel(kd);
    }
    for (int k = 0; k < kOptimizerKernels; ++k) {
        gpu::KernelDesc kd;
        kd.name = oname;
        kd.duration = time::us(25.0);
        ctx.launchKernel(kd);
    }
    ctx.deviceSynchronize();
    ctx.memcpy(state.loss_host, state.loss_dev, 4096);
}

} // namespace

void
cnnTrainSegment(rt::Context &ctx, const CnnTrainConfig &config,
                CnnTrainState &state, int to_step)
{
    for (int s = state.next_step; s < to_step; ++s)
        cnnStep(ctx, config, state);
    state.next_step = to_step;
}

CnnTrainState
cnnTrainPrefix(rt::Context &ctx, const CnnTrainConfig &config)
{
    if (config.batch_size <= 0 || config.steps <= 0)
        fatal("cnn training needs positive batch size and steps");
    const auto &spec = cnnModelSpec(config.model);

    CnnTrainState state;
    // Input payload: FP32 by default; FP16 halves it (quantized
    // pipeline feeds half-precision tensors end to end).
    const Bytes value_bytes = config.precision == Precision::Fp16
        ? 2 : 4;
    state.batch_bytes = kImageValues * value_bytes
        * static_cast<Bytes>(config.batch_size);

    // Step compute time from the throughput model.
    const double gflop = spec.gflop_per_image
        * static_cast<double>(config.batch_size);
    double tflops = kFp32PeakTflops * fp32Utilization(config.batch_size);
    state.layer_kernels = spec.kernels_per_step;
    SimTime cast_time = 0;
    if (config.precision == Precision::Amp) {
        tflops *= ampSpeedup(config.batch_size);
        const int cast_kernels = static_cast<int>(
            spec.kernels_per_step * (kAmpKernelFactor - 1.0));
        state.layer_kernels += cast_kernels;
        cast_time = kAmpCastKernelKet * cast_kernels;
    } else if (config.precision == Precision::Fp16) {
        tflops *= kFp16ComputeSpeedup;
    }
    const SimTime compute = time::sec(gflop / (tflops * 1e3));
    state.per_kernel =
        std::max<SimTime>(time::us(2.0),
                          (compute + cast_time) / state.layer_kernels);

    // Device-side state: double-buffered batch staging (the
    // dataloader prefetches the next batch over a copy stream while
    // the current step computes, PyTorch pin_memory+non_blocking
    // style).
    state.images_host = ctx.mallocHost(state.batch_bytes);
    state.images_dev_a = ctx.mallocDevice(state.batch_bytes);
    state.images_dev_b = ctx.mallocDevice(state.batch_bytes);
    state.params = ctx.mallocDevice(spec.param_bytes);
    state.loss_dev = ctx.mallocDevice(4096);
    state.loss_host = ctx.hostPageable(4096);
    state.copy_stream = ctx.createStream();

    // Warm-up step (first-launch effects excluded from steady state).
    cnnStep(ctx, config, state);

    state.steady_start = ctx.now();
    return state;
}

CnnTrainResult
cnnTrainFinish(rt::Context &ctx, const CnnTrainConfig &config,
               CnnTrainState state)
{
    cnnTrainSegment(ctx, config, state, config.steps);
    const SimTime steady = ctx.now() - state.steady_start;

    CnnTrainResult result;
    result.step_time = steady / config.steps;
    result.throughput = static_cast<double>(config.batch_size)
        / time::toSec(result.step_time);
    const double steps_per_epoch =
        std::ceil(static_cast<double>(kCifarTrainImages)
                  / config.batch_size);
    result.train_time_200_epochs = static_cast<SimTime>(
        static_cast<double>(result.step_time) * steps_per_epoch
        * 200.0);

    ctx.free(state.images_host);
    ctx.free(state.images_dev_a);
    ctx.free(state.images_dev_b);
    ctx.free(state.params);
    ctx.free(state.loss_dev);
    ctx.free(state.loss_host);
    return result;
}

CnnTrainResult
trainCnn(rt::Context &ctx, const CnnTrainConfig &config)
{
    return cnnTrainFinish(ctx, config, cnnTrainPrefix(ctx, config));
}

std::vector<CnnTrainResult>
runCnnSweep(const std::vector<CnnSweepCell> &cells, int jobs)
{
    std::vector<CnnTrainResult> results(cells.size());
    runIndexed(cells.size(), jobs, [&](std::size_t i) {
        rt::Context ctx(cells[i].sys);
        results[i] = trainCnn(ctx, cells[i].config);
    });
    return results;
}

} // namespace hcc::ml
