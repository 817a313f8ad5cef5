// End-to-end: RAD trains and compresses a model, ACE compiles and runs it
// on the device, FLEX carries it through harvested power — the full Fig. 1
// flow — and the baselines run beside it.

#include <gtest/gtest.h>

#include "core/ace/compiled_model.h"
#include "core/flex/executor.h"
#include "core/rad/pipeline.h"
#include "power/capacitor.h"
#include "power/continuous.h"
#include "power/monitor.h"
#include "quant/qexec.h"
#include "quant/quantize.h"
#include "train/loss.h"

namespace ehdnn {
namespace {

class FullStack : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rng_ = new Rng(2024);
    rad::RadConfig cfg;
    cfg.task = models::Task::kMnist;
    cfg.train_samples = 220;
    cfg.test_samples = 60;
    cfg.epochs = 2;
    cfg.admm.admm_iters = 1;
    cfg.admm.epochs_per_iter = 1;
    cfg.admm.finetune_epochs = 1;
    result_ = new rad::RadResult(rad::run_rad(cfg, *rng_));
  }
  static void TearDownTestSuite() {
    delete result_;
    delete rng_;
  }

  static Rng* rng_;
  static rad::RadResult* result_;
};

Rng* FullStack::rng_ = nullptr;
rad::RadResult* FullStack::result_ = nullptr;

TEST_F(FullStack, TrainedModelBeatsChance) {
  EXPECT_GT(result_->float_accuracy, 0.3f);
  EXPECT_GT(result_->quant_accuracy, 0.25f);
}

TEST_F(FullStack, DeviceAgreesWithSoftwareExecutor) {
  dev::Device dev;
  power::ContinuousPower supply;
  dev.attach_supply(&supply);
  const auto cm = ace::compile(result_->qmodel, dev);
  const auto policy = flex::make_ace_policy();
  flex::IntermittentExecutor ex(*policy);
  for (int i = 0; i < 3; ++i) {
    const auto qin =
        quant::quantize_input(result_->qmodel, result_->data.test.x[static_cast<std::size_t>(i)]);
    const auto ref = quant::qforward(result_->qmodel, qin);
    const auto st = ex.run(dev, cm, qin);
    ASSERT_TRUE(st.completed());
    EXPECT_EQ(st.output, ref);
  }
}

TEST_F(FullStack, FlexCompletesUnderHarvestedPowerBitExact) {
  const auto qin = quant::quantize_input(result_->qmodel, result_->data.test.x[0]);

  // Continuous oracle.
  dev::Device dc;
  power::ContinuousPower cs;
  dc.attach_supply(&cs);
  const auto cmc = ace::compile(result_->qmodel, dc);
  const auto policy = flex::make_flex_policy();
  flex::IntermittentExecutor ex(*policy);
  const auto cont = ex.run(dc, cmc, qin);
  ASSERT_TRUE(cont.completed());

  // Harvested: the paper's 100 uF capacitor, square-wave source.
  dev::Device di;
  power::SquareSource src(8e-3, 0.5e-3, /*period=*/0.08, /*duty=*/0.5);
  power::CapacitorConfig ccfg;  // 100 uF defaults
  power::CapacitorSupply supply(src, ccfg);
  di.attach_supply(&supply);
  const auto cmi = ace::compile(result_->qmodel, di);
  flex::RunOptions opts;
  opts.flex_v_warn =
      power::flex_warn_voltage(ccfg, flex::worst_checkpoint_energy(cmi, di.cost()));
  const auto inter = ex.run(di, cmi, qin, opts);
  ASSERT_TRUE(inter.completed());
  EXPECT_EQ(inter.output, cont.output);
}

TEST_F(FullStack, PredictionsSurviveTheWholeStack) {
  // Class decisions on-device match the float model on most test samples.
  dev::Device dev;
  power::ContinuousPower supply;
  dev.attach_supply(&supply);
  const auto cm = ace::compile(result_->qmodel, dev);
  const auto policy = flex::make_ace_policy();
  flex::IntermittentExecutor ex(*policy);
  int agree = 0;
  constexpr int kN = 20;
  for (int i = 0; i < kN; ++i) {
    const auto& x = result_->data.test.x[static_cast<std::size_t>(i)];
    const nn::Tensor fy = result_->model.forward(x);
    const auto qin = quant::quantize_input(result_->qmodel, x);
    const auto st = ex.run(dev, cm, qin);
    const auto out16 = std::vector<float>(st.output.begin(), st.output.end());
    if (train::argmax(fy.data()) == train::argmax(out16)) ++agree;
  }
  EXPECT_GE(agree, kN * 3 / 4);
}

TEST_F(FullStack, CheckpointOverheadIsSmallFraction) {
  const auto qin = quant::quantize_input(result_->qmodel, result_->data.test.x[0]);
  dev::Device di;
  power::ConstantSource src(4e-3);
  power::CapacitorConfig ccfg;
  power::CapacitorSupply supply(src, ccfg);
  di.attach_supply(&supply);
  const auto cm = ace::compile(result_->qmodel, di);
  const auto policy = flex::make_flex_policy();
  flex::IntermittentExecutor ex(*policy);
  flex::RunOptions opts;
  opts.flex_v_warn =
      power::flex_warn_voltage(ccfg, flex::worst_checkpoint_energy(cm, di.cost()));
  const auto st = ex.run(di, cm, qin, opts);
  ASSERT_TRUE(st.completed());
  // SSIV-A.5: total checkpoint overhead is ~1% of inference energy.
  EXPECT_LT(st.checkpoint_energy_j, 0.05 * st.energy_j);
}

}  // namespace
}  // namespace ehdnn
