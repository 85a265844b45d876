// The three benchmark workloads and their seeded input streams.
//
//   plan_ea         1 closed-loop client, 8-instance EA PlanRequests with
//                   stratified |S| x |I| x |Td| draws; no spec ever repeats.
//   plan_small_mix  2 closed-loop clients, 4-instance jsr/greedy requests on
//                   small machines; a fixed share comes from a hot set of 32
//                   specs (skewed draw), the rest are unique.
//   session_repl    2 closed-loop SessionStream clients on a primary with a
//                   quorum standby; every 4th mutation deferred, every 16th
//                   operation a replay read.
//
// The daemons only ever see the generated requests; the seed stays here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "service/protocol.hpp"
#include "service/session.hpp"
#include "spans.hpp"
#include "util/rng.hpp"

namespace perfbench {

bool isPlanWorkload(const std::string& workload);
bool isKnownWorkload(const std::string& workload);

/// One client's stream of plan requests.
class PlanGenerator {
 public:
  /// `workload` is plan_ea or plan_small_mix.
  PlanGenerator(std::string workload, std::uint64_t seed, int client);

  rfsm::service::PlanRequest next();

  /// Untimed warm-up traffic: each hot spec twice (plan_small_mix, so the
  /// plan cache holds the hot set), or one small request (plan_ea).
  std::vector<rfsm::service::PlanRequest> warmup() const;

 private:
  /// The next request of a stratified block: every shape of the
  /// workload's grid once per block, in seeded order, each with a fresh
  /// seed.  Blocks give every run the same size mix, which keeps medians
  /// steady across seeds.
  rfsm::service::BatchSpec nextStratified();

  std::string workload_;
  rfsm::Rng rng_;
  std::uint64_t index_ = 0;
  std::vector<rfsm::service::BatchSpec> hot_;    // plan_small_mix
  std::vector<double> hotCumulative_;            // skewed draw weights
  std::vector<rfsm::service::BatchSpec> block_;  // rest of the current block
};

/// One step of a session client: a mutation or a replay read.
struct SessionOp {
  bool replay = false;
  rfsm::service::MutationRecord record;  ///< when !replay
  std::uint64_t fromSeq = 0, toSeq = 0;  ///< when replay
};

/// One client's session and its operation stream.  A client's successive
/// sessions are its generations 0, 1, ...; each has its own seeded stream.
class SessionGenerator {
 public:
  SessionGenerator(std::uint64_t seed, int client, int generation);

  const rfsm::service::SessionConfig& config() const { return config_; }
  SessionOp next();
  /// A non-deferred mutation after the last one issued (flushes a pending
  /// deferred run so the transcript is complete).
  rfsm::service::MutationRecord flush();

 private:
  rfsm::service::MutationRecord mutation(bool defer);

  rfsm::service::SessionConfig config_;
  rfsm::Rng rng_;
  std::uint64_t ops_ = 0;
  std::uint64_t seq_ = 0;
};

rfsm::service::SessionOpenRequest openRequest(
    const rfsm::service::SessionConfig& config);
rfsm::service::SessionMutateRequest mutateRequest(
    const rfsm::service::SessionConfig& config,
    const rfsm::service::MutationRecord& record);

/// Output check of one planned range: every program parses against its
/// regenerated instance, validates, and has |Td| <= |Z| <= 3(|Td|+1).
/// Returns "" when all hold, else the first violation.  Appends |Z| of each
/// program to `steps` when non-null.
std::string checkPrograms(const rfsm::service::BatchSpec& spec,
                          std::uint64_t lo,
                          const std::vector<std::string>& programs,
                          std::vector<double>* steps = nullptr);

/// |Z| from an rfsm-program text's "steps <n>" line; -1 when absent.
int programSteps(const std::string& text);

/// Runs the workload (setups, the measured closed loop, output checks) and,
/// on traced runs, its traced repeat and the ladder.
void runWorkload(const Args& args, Report& report, Spans& spans);

/// The layer-by-layer ladder (ladder.cpp).
void runLadder(const Args& args, Report& report, Spans& spans);

}  // namespace perfbench
