// The benchmark's workloads. Each builds its inputs from the seed, sets up
// the system before and several times during its timed phase (setup_s is
// the best), measures for args.seconds, verifies every result against a
// reference, and fills the report: end-to-end metrics untraced, per-layer
// metrics with --trace 1.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "engine/query_engine.h"
#include "harness.h"

namespace perfbench {

/// One query of a workload mix, named "<set>.<query>".
struct NamedQuery {
  std::string name;
  std::string sparql;
};

/// The 6 LUBM-original queries ("orig.Q2" ...) followed, when `modified`,
/// by the 12 LUBM-modified ones ("mod.Q1" ...).
std::vector<NamedQuery> LubmQueries(bool modified);

/// Times ExtractCharacteristicSets and ExtractExtendedCharacteristicSets
/// (best of three) on the parsed `text`, after the same dedup sort
/// Database::Build performs, and sets cs.extract_ms / ecs.extract_ms.
void MeasureExtraction(const std::string& text, Report* report);

/// Set-up phase times: N-Triples parse, Database::Build, then whatever
/// else the workload needs before it can serve (server start, save and
/// durable open). Each workload sets up once before its timed phase and
/// again whenever Due() says so during it; setup_s is the best of these.
/// A shared host has slow and fast phases that last seconds, so set-ups
/// spread over the run catch a fast one as the queries' best-of does,
/// where set-ups back to back all land in the same phase.
struct SetupTimes {
  std::vector<double> total_s, parse_ms, build_ms;
  void Add(Clock::time_point t0, Clock::time_point parsed,
           Clock::time_point built, Clock::time_point ready) {
    total_s.push_back(MsBetween(t0, ready) / 1e3);
    parse_ms.push_back(MsBetween(t0, parsed));
    build_ms.push_back(MsBetween(parsed, built));
    if (every != Clock::duration::zero()) next = Clock::now() + every;
  }
  /// Starts the schedule: the next set-up is due `every_s` from now, and
  /// each later one `every_s` after the previous set-up ends.
  void Start(double every_s) {
    every = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(every_s));
    next = Clock::now() + every;
  }
  bool Due() const { return Clock::now() >= next; }
  /// setup_s (best) untraced; rdf.parse_ms and engine.build_ms (best)
  /// traced.
  void Publish(const Args& args, Report* report) const;

  Clock::duration every{};
  Clock::time_point next = Clock::time_point::max();
};

int RunLubmPaged(const Args& args, Report* report);
int RunSp2bHttp(const Args& args, Report* report);
int RunLubmUpdate(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
