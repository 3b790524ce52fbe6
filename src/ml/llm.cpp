#include "ml/llm.hpp"

#include <algorithm>
#include <cmath>

#include "common/calibration.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"

namespace hcc::ml {

namespace {

/** Effective dense throughput (TFLOP/s) per backend/format. */
double
effTflops(LlmBackend backend, LlmQuant quant)
{
    const double base =
        backend == LlmBackend::Vllm ? 500.0 : 300.0;
    // AWQ pays a dequantization tax on every GEMM.
    return quant == LlmQuant::Awq4 ? base * 0.72 : base;
}

/** Fixed per-decode-step dequantization overhead for AWQ. */
constexpr SimTime kAwqDequantFixed = time::us(1200.0);

/** Kernel launches per decode step. */
int
launchesPerStep(LlmBackend backend)
{
    // 32 transformer layers: HF runs ~7 kernels per layer; vLLM's
    // fused attention/MLP kernels run ~3.
    return backend == LlmBackend::Vllm ? 96 : 224;
}

} // namespace

Bytes
llmWeightBytes(LlmQuant quant)
{
    if (quant == LlmQuant::Bf16)
        return static_cast<Bytes>(kLlamaParams * 2.0);
    // 4-bit weights + per-group scales/zeros.
    return static_cast<Bytes>(kLlamaParams * 0.5 * 1.12);
}

LlmStepModel
llmStepModel(LlmBackend backend, LlmQuant quant, int batch)
{
    LlmStepModel model;
    model.launches = launchesPerStep(backend);

    // Decode-step device time: memory-bound term (stream all weights
    // once per token) vs compute-bound term (2*P FLOPs per token per
    // sequence), plus AWQ's dequant overhead.
    const SimTime weight_stream =
        transferTime(llmWeightBytes(quant), calib::kHbmGBs);
    const double step_gflop = 2.0 * kLlamaParams * batch / 1e9;
    const double tflops = effTflops(backend, quant);
    const SimTime compute = time::sec(step_gflop / (tflops * 1e3));
    SimTime device_step = std::max(weight_stream, compute);
    if (quant == LlmQuant::Awq4)
        device_step += kAwqDequantFixed;
    model.per_kernel = std::max<SimTime>(
        time::us(2.0), device_step / model.launches);
    return model;
}

SimTime
llmPrefillTime(LlmBackend backend, LlmQuant quant,
               double prompt_tokens)
{
    const double prefill_gflop =
        2.0 * kLlamaParams * prompt_tokens / 1e9;
    const double tflops = effTflops(backend, quant);
    return time::sec(prefill_gflop / (tflops * 1e3));
}

SimTime
llmFrameworkStepCost(LlmBackend backend, int batch)
{
    if (backend == LlmBackend::Vllm) {
        // Continuous batching scheduler: cheap, mildly batch-dep.
        return time::us(400.0) + time::us(2.0) * batch;
    }
    // HF python loop + padding bookkeeping per element.
    return time::us(2500.0) + time::us(18.0) * batch;
}

std::string
llmBackendName(LlmBackend backend)
{
    return backend == LlmBackend::Vllm ? "vLLM" : "HF";
}

std::string
llmQuantName(LlmQuant quant)
{
    return quant == LlmQuant::Awq4 ? "AWQ" : "BF16";
}

void
llmServeSegment(rt::Context &ctx, const LlmConfig &config,
                LlmServeState &state, int to_step)
{
    gpu::KernelDesc decode_kd;
    decode_kd.name = llmBackendName(config.backend) + "_decode";
    decode_kd.duration = state.per_kernel;
    for (int step = state.next_step; step < to_step; ++step) {
        for (int k = 0; k < state.launches; ++k)
            ctx.launchKernel(decode_kd);
        ctx.deviceSynchronize();
        // Sampled token ids come back every step.
        ctx.memcpy(state.token_host, state.token_dev,
                   static_cast<Bytes>(config.batch) * 8);
        state.framework_total +=
            llmFrameworkStepCost(config.backend, config.batch);
    }
    state.next_step = to_step;
}

LlmServeState
llmServePrefix(rt::Context &ctx, const LlmConfig &config)
{
    if (config.batch <= 0 || config.gen_len <= 0)
        fatal("llm serving needs positive batch and generation len");

    const Bytes weights = llmWeightBytes(config.quant);

    LlmServeState state;
    const LlmStepModel step =
        llmStepModel(config.backend, config.quant, config.batch);
    state.launches = step.launches;
    state.per_kernel = step.per_kernel;

    // Device state: weights + KV cache.
    state.weights_dev = ctx.mallocDevice(weights);
    const Bytes kv_bytes = static_cast<Bytes>(config.batch)
        * static_cast<Bytes>(config.prompt_len + config.gen_len)
        * size::kib(128.0) / 1024;  // ~128 B/token/layer x 32 layers
    state.kv_dev = ctx.mallocDevice(std::max<Bytes>(kv_bytes, 4096));

    // Request ingress: prompts cross the host-device boundary.
    const Bytes prompt_bytes = static_cast<Bytes>(config.batch)
        * static_cast<Bytes>(config.prompt_len) * 4;
    state.prompt_host =
        ctx.hostPageable(std::max<Bytes>(prompt_bytes, 4096));
    state.prompt_dev =
        ctx.mallocDevice(std::max<Bytes>(prompt_bytes, 4096));
    state.token_dev = ctx.mallocDevice(4096);
    state.token_host = ctx.hostPageable(4096);

    state.serve_start = ctx.now();
    ctx.memcpy(state.prompt_dev, state.prompt_host,
               state.prompt_dev.bytes);

    // Prefill: one compute-bound pass over the prompt.
    const SimTime prefill = llmPrefillTime(
        config.backend, config.quant,
        static_cast<double>(config.batch) * config.prompt_len);
    {
        gpu::KernelDesc kd;
        kd.name = llmBackendName(config.backend) + "_prefill";
        kd.duration = prefill;
        ctx.launchKernel(kd);
        ctx.deviceSynchronize();
    }
    return state;
}

LlmResult
llmServeFinish(rt::Context &ctx, const LlmConfig &config,
               LlmServeState state)
{
    llmServeSegment(ctx, config, state, config.gen_len);
    const SimTime total =
        (ctx.now() - state.serve_start) + state.framework_total;

    LlmResult result;
    result.step_time = total / config.gen_len;
    result.tokens_per_s =
        static_cast<double>(config.batch) * config.gen_len
        / time::toSec(total);

    ctx.free(state.weights_dev);
    ctx.free(state.kv_dev);
    ctx.free(state.prompt_host);
    ctx.free(state.prompt_dev);
    ctx.free(state.token_dev);
    ctx.free(state.token_host);
    return result;
}

LlmResult
serveLlm(rt::Context &ctx, const LlmConfig &config)
{
    return llmServeFinish(ctx, config, llmServePrefix(ctx, config));
}

std::vector<LlmResult>
runLlmSweep(const std::vector<LlmSweepCell> &cells, int jobs)
{
    std::vector<LlmResult> results(cells.size());
    runIndexed(cells.size(), jobs, [&](std::size_t i) {
        rt::Context ctx(cells[i].sys);
        results[i] = serveLlm(ctx, cells[i].config);
    });
    return results;
}

} // namespace hcc::ml
