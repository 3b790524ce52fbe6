/**
 * @file
 * LLM serving model (Sec. VII-B, Fig. 14): Llama-3-8B inference on
 * two backends (HuggingFace, vLLM) with BF16 or AWQ 4-bit weights.
 *
 * Decode steps are memory-bound at small batch (every token streams
 * the full weight set from HBM — where AWQ's 4x smaller weights win)
 * and compute-bound at large batch (where AWQ's dequantization
 * overhead makes BF16 win back, the paper's batch-64/128 crossover).
 * The serving loop runs through the real runtime so CC launch and
 * I/O taxes apply per decode step; vLLM's fused kernels and
 * continuous batching give it fewer launches and less per-step
 * framework overhead than HF in every configuration.
 */

#ifndef HCC_ML_LLM_HPP
#define HCC_ML_LLM_HPP

#include <string>
#include <vector>

#include "common/units.hpp"
#include "runtime/context.hpp"

namespace hcc::ml {

/** Serving frameworks compared in Fig. 14. */
enum class LlmBackend { HuggingFace, Vllm };

/** Weight formats compared in Fig. 14. */
enum class LlmQuant { Bf16, Awq4 };

std::string llmBackendName(LlmBackend backend);
std::string llmQuantName(LlmQuant quant);

/** One serving configuration. */
struct LlmConfig
{
    LlmBackend backend = LlmBackend::HuggingFace;
    LlmQuant quant = LlmQuant::Bf16;
    /** Concurrent request batch size. */
    int batch = 1;
    /** Prompt tokens per request. */
    int prompt_len = 512;
    /** Generated tokens per request. */
    int gen_len = 64;
};

/** Measured serving throughput. */
struct LlmResult
{
    /** Generated tokens per second across the batch. */
    double tokens_per_s = 0.0;
    /** Mean decode step time. */
    SimTime step_time = 0;
};

// ------------------------------------------------------ model terms
//
// The analytical pieces of the serving model, exposed so the
// closed-loop trio below and the open-loop continuous-batching
// scheduler (serve/) derive decode-step costs from the *same*
// arithmetic: a scheduler iteration at batch b prices exactly like a
// closed-loop decode step at batch b.

/** Weight footprint per format (BF16, or 4-bit + group scales). */
Bytes llmWeightBytes(LlmQuant quant);

/** Per-decode-step launch plan derived from the config. */
struct LlmStepModel
{
    /** Duration of each decode kernel. */
    SimTime per_kernel = 0;
    /** Kernel launches per decode step. */
    int launches = 0;
};

/**
 * Decode-step device time at batch @p batch: memory-bound term
 * (every token streams the full weight set from HBM) vs
 * compute-bound term (2*P FLOPs per token per sequence), plus AWQ's
 * fixed dequantization overhead, split across the backend's launch
 * count (>= 2 us per kernel).
 */
LlmStepModel llmStepModel(LlmBackend backend, LlmQuant quant,
                          int batch);

/** Prefill device time for @p prompt_tokens total prompt tokens
 *  (across the whole batch): one compute-bound pass. */
SimTime llmPrefillTime(LlmBackend backend, LlmQuant quant,
                       double prompt_tokens);

/** Framework (CPU-side scheduling) overhead per decode step. */
SimTime llmFrameworkStepCost(LlmBackend backend, int batch);

/** Run the serving loop for @p config inside @p ctx. */
LlmResult serveLlm(rt::Context &ctx, const LlmConfig &config);

/**
 * Split-phase serving, the step API behind the registry's "llm"
 * Session (workloads/mlapps.cpp): the serving loop's state across
 * decode-step boundaries.  The prefix issues no decode step; only
 * llmServeSegment advances.  serveLlm() is exactly
 * llmServeFinish(ctx, cfg, llmServePrefix(ctx, cfg)).
 */
struct LlmServeState
{
    /** Per-decode-kernel duration derived from the config. */
    SimTime per_kernel = 0;
    /** Kernel launches per decode step. */
    int launches = 0;
    rt::Buffer weights_dev, kv_dev, prompt_host, prompt_dev;
    rt::Buffer token_dev, token_host;
    SimTime serve_start = 0;
    SimTime framework_total = 0;
    /** Next decode step to run. */
    int next_step = 0;
};

/** Allocations, prompt ingress and prefill. */
LlmServeState llmServePrefix(rt::Context &ctx, const LlmConfig &config);

/**
 * Advance the serving loop in place: decode steps
 * [state.next_step, to_step).  Chained fork points cut the session
 * at several step boundaries; prefix + segments + finish issues the
 * identical call sequence as serveLlm().
 */
void llmServeSegment(rt::Context &ctx, const LlmConfig &config,
                     LlmServeState &state, int to_step);

/** The remaining decode steps, result computation and frees. */
LlmResult llmServeFinish(rt::Context &ctx, const LlmConfig &config,
                         LlmServeState state);

/** One cell of an LLM serving sweep (own rt::Context per cell). */
struct LlmSweepCell
{
    rt::SystemConfig sys;
    LlmConfig config;
};

/** Serve every cell on @p jobs workers; results in input order. */
std::vector<LlmResult>
runLlmSweep(const std::vector<LlmSweepCell> &cells, int jobs);

/** Llama-3-8B parameter count. */
constexpr double kLlamaParams = 8.03e9;

} // namespace hcc::ml

#endif // HCC_ML_LLM_HPP
