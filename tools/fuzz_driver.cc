// Differential scenario fuzzer driver.
//
// Modes:
//   fuzz_driver --cases=N --seed=S [--fault-rate=R] [--out=DIR]
//       Generates N scenarios from seed S and runs each through the
//       differential oracle (MCCIO vs two-phase vs independent, plus the
//       auditor and the absolute pattern check). Every failure is shrunk
//       by the minimizer and written to DIR as a self-contained repro
//       (scenario text; replayable with --replay). Exit 0 = all clean.
//
//   fuzz_driver --replay=FILE
//       Re-runs one repro file through the oracle and prints the verdict.
//
//   fuzz_driver --cases=N --seed=S --expect-failure
//       Oracle self-test mode (run against a -DMCIO_FUZZ_BUG=ON build
//       with MCIO_FUZZ_BUG_SEED set): asserts that the oracle catches at
//       least one failure, that the minimizer shrinks it to <= 4 ranks,
//       and that the emitted repro reproduces from its serialized form
//       alone. Exit 0 = the bug was caught and minimized.
//
// `--fault-rate=R` overrides each scenario's sampled fault schedule with
// denial=R, delay=R/2, revoke=R/2, exhaust=R/10 (the sweep the CI fuzz
// job runs at R in {0, 0.05, 0.2}).
//
// `--threads=N` runs the pre-generated cases on N host threads (the
// oracle is reentrant; failures are minimized sequentially afterwards,
// in case order). It changes no verdict.
#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fuzz/minimizer.h"
#include "fuzz/oracle.h"
#include "fuzz/scenario.h"
#include "fuzz/scenario_gen.h"
#include "util/check.h"
#include "util/cli.h"

namespace {

using mcio::fuzz::DiffResult;
using mcio::fuzz::MinimizeOptions;
using mcio::fuzz::MinimizeResult;
using mcio::fuzz::Scenario;
using mcio::fuzz::ScenarioGen;

/// Runs fn(0..n-1) on up to `threads` host threads; threads <= 1 is a
/// plain sequential loop. Exceptions abort (a fuzz-harness bug, not a
/// verdict).
void for_each_case(int threads, std::uint64_t n,
                   const std::function<void(std::uint64_t)>& fn) {
  if (threads <= 1 || n <= 1) {
    for (std::uint64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::uint64_t> next{0};
  auto worker = [&] {
    for (;;) {
      const std::uint64_t i = next.fetch_add(1);
      if (i >= n) return;
      fn(i);
    }
  };
  std::vector<std::thread> pool;
  const std::uint64_t width =
      std::min<std::uint64_t>(static_cast<std::uint64_t>(threads), n);
  for (std::uint64_t t = 0; t < width; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
}

void apply_fault_rate(Scenario& s, double rate) {
  s.fault_denial = rate;
  s.fault_delay = rate / 2;
  s.fault_revoke = rate / 2;
  s.fault_exhaust = rate / 10;
}

Scenario load_scenario(const std::string& path) {
  std::ifstream in(path);
  MCIO_CHECK_MSG(in.good(), "cannot open repro file " << path);
  return Scenario::from_text(in);
}

std::string write_repro(const std::string& out_dir, const Scenario& s,
                        const std::string& verdict) {
  std::filesystem::create_directories(out_dir);
  std::ostringstream name;
  name << "repro_seed" << s.gen_seed << "_case" << s.gen_case << ".txt";
  const std::filesystem::path path =
      std::filesystem::path(out_dir) / name.str();
  std::ofstream out(path);
  out << "# verdict: " << verdict << "\n";
  s.to_text(out);
  MCIO_CHECK_MSG(out.good(), "cannot write repro file " << path.string());
  return path.string();
}

int replay(const std::string& path) {
  const Scenario s = load_scenario(path);
  const DiffResult result = mcio::fuzz::run_differential(s);
  if (result.ok()) {
    std::cout << "replay " << path << ": ok (" << s.nranks << " ranks, "
              << s.total_bytes() << " bytes)\n";
    return 0;
  }
  std::cout << "replay " << path << ": FAIL\n" << result.describe();
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  mcio::util::Cli cli(argc, argv);
  const std::string replay_path = cli.get_string("replay", "");
  const auto cases = static_cast<std::uint64_t>(cli.get_int("cases", 100));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const bool has_fault_rate = cli.has("fault-rate");
  const double fault_rate = cli.get_double("fault-rate", 0.0);
  const std::string out_dir = cli.get_string("out", "fuzz_repros");
  const bool expect_failure = cli.get_bool("expect-failure", false);
  const auto max_failures =
      static_cast<std::uint64_t>(cli.get_int("max-failures", 5));
  const int shrink_evals =
      static_cast<int>(cli.get_int("shrink-evals", 250));
  // Self-test mode keeps the classic sequential loop (it stops at the
  // first caught bug); the other modes honor --threads.
  const int threads = expect_failure
                          ? 1
                          : static_cast<int>(cli.get_int("threads", 1));
  cli.check_unused();

  if (!replay_path.empty()) return replay(replay_path);

  // Scenarios are pre-generated sequentially (the generator owns the
  // case ordering); the oracle runs are what parallelize.
  const ScenarioGen gen(seed);
  std::vector<Scenario> scenarios;
  scenarios.reserve(cases);
  for (std::uint64_t i = 0; i < cases; ++i) {
    Scenario s = gen.generate(i);
    if (has_fault_rate) apply_fault_rate(s, fault_rate);
    scenarios.push_back(std::move(s));
  }

  const auto still_fails = [&](const Scenario& s) {
    return !mcio::fuzz::run_differential(s).ok();
  };

  // Phase 1: verdicts, possibly case-parallel.
  std::vector<std::optional<DiffResult>> failed(scenarios.size());
  for_each_case(threads, scenarios.size(), [&](std::uint64_t i) {
    const DiffResult result = mcio::fuzz::run_differential(scenarios[i]);
    if (!result.ok()) failed[i] = result;
  });

  // Phase 2: report + minimize sequentially, in case order, so output
  // and repro files are identical for every --threads value.
  std::uint64_t failures = 0;
  bool self_test_ok = false;
  for (std::uint64_t i = 0; i < scenarios.size(); ++i) {
    if (!failed[i]) continue;
    if (failures >= max_failures) break;
    const DiffResult& result = *failed[i];

    ++failures;
    std::cout << "case " << i << ": " << result.classify() << "\n"
              << result.describe();

    MinimizeOptions opts;
    opts.max_evals = shrink_evals;
    const MinimizeResult min =
        mcio::fuzz::minimize(scenarios[i], still_fails, opts);
    const DiffResult min_result =
        mcio::fuzz::run_differential(min.scenario);
    const std::string path =
        write_repro(out_dir, min.scenario, min_result.classify());
    std::cout << "  minimized to " << min.scenario.nranks << " ranks / "
              << min.scenario.total_bytes() << " bytes in " << min.evals
              << " evals (" << min.accepted << " shrinks): " << path
              << "\n";

    if (expect_failure) {
      // The self-test contract: small repro, reproducible from the file
      // alone (not from any in-process state).
      const DiffResult from_disk =
          mcio::fuzz::run_differential(load_scenario(path));
      const bool small = min.scenario.nranks <= 4;
      const bool replays = !from_disk.ok();
      if (!small) {
        std::cout << "  self-test: minimizer left " << min.scenario.nranks
                  << " ranks (want <= 4)\n";
      }
      if (!replays) {
        std::cout << "  self-test: repro file does not reproduce\n";
      }
      self_test_ok = small && replays;
      break;  // one caught-and-minimized bug proves the oracle
    }
    if (failures >= max_failures) {
      std::cout << "stopping after " << failures << " failures\n";
    }
  }

  std::cout << "fuzz: seed=" << seed << " cases=" << scenarios.size()
            << " failures=" << failures;
  if (has_fault_rate) std::cout << " fault-rate=" << fault_rate;
  std::cout << "\n";

  if (expect_failure) {
    if (failures == 0) {
      std::cout << "expected a failure (is the build -DMCIO_FUZZ_BUG=ON "
                   "and MCIO_FUZZ_BUG_SEED set?)\n";
      return 1;
    }
    return self_test_ok ? 0 : 1;
  }
  return failures == 0 ? 0 : 1;
}
