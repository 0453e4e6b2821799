// Common gtest fixture: a Runtime with helpers for building WAN topologies.
#pragma once

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "src/fargo.h"
#include "tests/support/comlets.h"

namespace fargo::testing {

class FargoTest : public ::testing::Test {
 protected:
  /// `localities` pins the scheduling engine: -1 (default) follows the
  /// FARGO_PARALLEL environment variable — the whole suite runs under the
  /// locality engine when CI exports it — 0 forces the deterministic sim,
  /// N forces N workers.
  explicit FargoTest(int localities = -1)
      : rt(core::RuntimeOptions{localities}) {
    RegisterTestComlets();
  }

  /// On failure, dumps the runtime's span buffers as Chrome-trace JSON next
  /// to the test binary (<Suite>_<Test>.trace.json) so CI can attach the
  /// causal trace to the red job's artifacts. Tests that want a rich trace
  /// opt in with rt.SetTracing(true); the dump itself is unconditional.
  void TearDown() override {
    if (!HasFailure()) return;
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    const std::string path = std::string(info->test_suite_name()) + "_" +
                             info->name() + ".trace.json";
    std::ofstream os(path);
    if (!os) return;
    const std::size_t spans = rt.WriteTrace(os);
    std::fprintf(stderr, "[fixture] wrote %s (%zu spans)\n", path.c_str(),
                 spans);
  }

  /// Creates `n` cores named "core0".."core{n-1}" with a uniform link model.
  std::vector<core::Core*> MakeCores(
      int n, SimTime latency = Millis(5),
      double bytes_per_sec = 1.25e6 /* 10 Mbit/s */) {
    std::vector<core::Core*> cores;
    for (int i = 0; i < n; ++i)
      cores.push_back(&rt.CreateCore("core" + std::to_string(i)));
    rt.network().SetDefaultLink(
        net::LinkModel{latency, bytes_per_sec, true});
    return cores;
  }

  core::Runtime rt;
};

}  // namespace fargo::testing
