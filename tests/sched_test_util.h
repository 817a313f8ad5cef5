// Shared fixtures for the scheduling tests (sched_test.cpp and
// sched_property_test.cpp): the tiny co-resident model pair
// (tiny_models.h), continuous oracles, and income-sample synthesis for
// the forecaster tests — so the unit suite and the property suite
// construct their inputs one way.
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "core/ace/compiled_model.h"
#include "core/flex/executor.h"
#include "device/device.h"
#include "power/continuous.h"
#include "power/harvest.h"
#include "quant/quantize.h"
#include "sched/forecast.h"
#include "tiny_models.h"

namespace ehdnn::sched::testutil {

using ehdnn::testutil::dense_model;
using ehdnn::testutil::mixed_model;
using ehdnn::testutil::random_tensor;

// Continuous-power reference output for one model (any runtime: the
// bit-exactness contract makes them all agree per model). Flags a
// failed reference run at the source rather than as a downstream
// output mismatch.
inline std::vector<fx::q15_t> continuous_oracle(const quant::QuantModel& qm,
                                                const std::vector<fx::q15_t>& input) {
  dev::Device dev;
  power::ContinuousPower supply;
  dev.attach_supply(&supply);
  const auto cm = ace::compile(qm, dev);
  const auto policy = flex::make_flex_policy();
  const flex::RunStats st = flex::IntermittentExecutor(*policy).run(dev, cm, input);
  EXPECT_TRUE(st.completed()) << "continuous oracle run did not complete";
  return st.output;
}

// Income-sample synthesis: what a device whose recharge gaps tick every
// `dt_s` would hand its forecaster when harvesting from `src` — sample i
// is the source's power at t = i * dt_s. The one way both test suites
// build forecaster inputs.
inline std::vector<double> income_samples(const power::HarvestSource& src, double dt_s,
                                          int n) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(src.power_at(static_cast<double>(i) * dt_s));
  return out;
}

// Replays `samples[i]` at t = i * dt_s into the forecaster.
inline void record_samples(HarvestForecaster& fc, const std::vector<double>& samples,
                           double dt_s) {
  for (std::size_t i = 0; i < samples.size(); ++i) {
    fc.record_at(samples[i], static_cast<double>(i) * dt_s);
  }
}

// Records the same value n times (the repeated-sample construction the
// forecaster unit tests kept duplicating inline).
inline void record_n(HarvestForecaster& fc, double income_w, int n) {
  for (int i = 0; i < n; ++i) fc.record(income_w);
}

}  // namespace ehdnn::sched::testutil
