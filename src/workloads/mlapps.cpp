/**
 * @file
 * ML apps in the workload registry, written as Sessions (session.hpp)
 * over the ml:: split-phase trios, so whole runs, the fork engine and
 * the snapshot TreeRunner drive them through the same step-cursor
 * API.
 *
 * "llm" mirrors the fig14 microbench's slowest column — Llama-3-8B
 * on HuggingFace with BF16 weights at batch 8 (224 launches per
 * decode step) — so `hccsim run/critical --app llm` reproduces the
 * cell whose CPU-GPU serialization the paper's Sec. VII-B dissects.
 * "cnntrain" is the fig13 training loop (ResNet50/FP32/batch 64):
 * launch-dominated, so like llm nearly all of it is shareable warmup.
 */

#include <algorithm>
#include <memory>

#include "common/log.hpp"
#include "ml/cnn.hpp"
#include "ml/llm.hpp"
#include "workloads/workload.hpp"

namespace hcc::workloads {
namespace {

/** The llm trio as a Session. */
class LlmSession final : public Session
{
  public:
    explicit LlmSession(const ml::LlmConfig &config)
        : config_(config)
    {}

    int totalSteps() const override { return config_.gen_len; }
    int cursor() const override { return state_.next_step; }

    void
    open(rt::Context &ctx) override
    {
        state_ = ml::llmServePrefix(ctx, config_);
    }

    void
    advance(rt::Context &ctx, int to_step) override
    {
        ml::llmServeSegment(ctx, config_, state_,
                            std::max(to_step, state_.next_step));
    }

    void
    finish(rt::Context &ctx) override
    {
        result_ = ml::llmServeFinish(ctx, config_, state_);
    }

    std::unique_ptr<Session>
    clone() const override
    {
        return std::make_unique<LlmSession>(*this);
    }

    const ml::LlmResult &result() const { return result_; }

  private:
    ml::LlmConfig config_;
    ml::LlmServeState state_;
    ml::LlmResult result_;
};

class LlmWorkload final : public Workload
{
  public:
    std::string name() const override { return "llm"; }
    std::string suite() const override { return "ml"; }
    bool supportsUvm() const override { return false; }

    std::unique_ptr<Session>
    makeSession(const WorkloadParams &params) const override
    {
        ml::LlmConfig cfg;
        cfg.backend = ml::LlmBackend::HuggingFace;
        cfg.quant = ml::LlmQuant::Bf16;
        cfg.batch = 8;
        // scale stretches the serving session, not the model.
        cfg.gen_len = std::max(
            1, static_cast<int>(static_cast<double>(cfg.gen_len)
                                * params.scale));
        return std::make_unique<LlmSession>(cfg);
    }
};

/** The cnn trio as a Session. */
class CnnSession final : public Session
{
  public:
    explicit CnnSession(const ml::CnnTrainConfig &config)
        : config_(config)
    {}

    int totalSteps() const override { return config_.steps; }
    int cursor() const override { return state_.next_step; }

    void
    open(rt::Context &ctx) override
    {
        state_ = ml::cnnTrainPrefix(ctx, config_);
    }

    void
    advance(rt::Context &ctx, int to_step) override
    {
        ml::cnnTrainSegment(ctx, config_, state_,
                            std::max(to_step, state_.next_step));
    }

    void
    finish(rt::Context &ctx) override
    {
        result_ = ml::cnnTrainFinish(ctx, config_, state_);
    }

    std::unique_ptr<Session>
    clone() const override
    {
        return std::make_unique<CnnSession>(*this);
    }

    const ml::CnnTrainResult &result() const { return result_; }

  private:
    ml::CnnTrainConfig config_;
    ml::CnnTrainState state_;
    ml::CnnTrainResult result_;
};

class CnnTrainWorkload final : public Workload
{
  public:
    std::string name() const override { return "cnntrain"; }
    std::string suite() const override { return "ml"; }
    bool supportsUvm() const override { return false; }

    std::unique_ptr<Session>
    makeSession(const WorkloadParams &params) const override
    {
        ml::CnnTrainConfig cfg;
        cfg.model = ml::CnnModel::ResNet50;
        cfg.batch_size = 64;
        cfg.precision = ml::Precision::Fp32;
        // scale stretches the measured window, not the model.
        cfg.steps = std::max(
            1, static_cast<int>(static_cast<double>(cfg.steps)
                                * params.scale));
        return std::make_unique<CnnSession>(cfg);
    }
};

} // namespace

void
registerMlApps()
{
    WorkloadRegistry::instance().add(
        std::make_unique<LlmWorkload>());
    WorkloadRegistry::instance().add(
        std::make_unique<CnnTrainWorkload>());
}

} // namespace hcc::workloads
