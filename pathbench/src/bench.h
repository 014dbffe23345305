// Measurement core of the benchmark: one closed-loop client driving a
// Database through its public API, with an optional layer clock that
// times each call into a layer's public function from outside the
// library (the traced run).

#ifndef PATHBENCH_BENCH_H_
#define PATHBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gen.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "query/database.h"

namespace pathbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// How much of a workload one pass runs. The measured run is bounded by
/// time; a traced pass runs a fixed op window so its counts repeat.
struct Plan {
  int setup_reps = 1;
  int recovery_reps = 1;
  double seconds = 10;
  /// 0: loop until `seconds` have passed; else exactly this many ops.
  size_t window = 0;
  bool traced = false;
  uint64_t seed = 1;
  std::string workdir;  ///< scratch space for snapshots and WAL dirs

  bool Done(size_t ops, double elapsed_ms) const {
    return window > 0 ? ops >= window : elapsed_ms >= seconds * 1000.0;
  }
};

/// The layers a traced pass charges time to; main.cc reports each under
/// its module's name.
enum Layer {
  kGen,       ///< the benchmark's own input generation
  kParser,    ///< ParseProgram / ParseQuery / ParseRef
  kStore,     ///< LoadProgram (with its WAL commit, when durable)
  kRecover,   ///< Database::Open / LoadSnapshotFile
  kWal,       ///< Checkpoint
  kEngine,    ///< Materialize (with its WAL commit)
  kActive,    ///< FireTriggers (with its WAL commit)
  kPlanner,   ///< PlanConjunction
  kDatabase,  ///< RunQuery / Eval / Holds
  kNumLayers,
};

/// Everything one pass measured.
struct Run {
  // End-to-end samples.
  std::vector<double> setup_s, query_ms, materialize_s, update_ms,
      recovery_s;
  /// Facts added per second by each full materialisation.
  std::vector<double> derived_facts_per_s;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  ///< the first few, for the log

  // Traced pass only: layer busy time (ms) over the window, per-op
  // coverage, counters, and per-family read latencies.
  double layer_ms[kNumLayers] = {};
  double layer_total_ms = 0;
  /// Per op type: layer time inside it, and its wall time (both passes
  /// record wall time; the untraced one is the overhead baseline).
  std::map<std::string, std::pair<double, double>> coverage;
  std::map<std::string, double> counts;
  std::map<std::string, std::pair<double, uint64_t>> family_ms;  ///< sum, n

  void Charge(Layer layer, double ms) {
    layer_ms[layer] += ms;
    layer_total_ms += ms;
  }
  void Fail(const std::string& what);
  /// Records `st` as a failed operation when it is not OK.
  bool Check(const pathlog::Status& st, const std::string& what);
};

/// Times one end-to-end operation; in a traced pass it also charges the
/// layer time spent inside it to the op type's coverage.
class OpTimer {
 public:
  OpTimer(Run* run, const char* type);
  /// Wall time of the op in ms.
  double Stop();

 private:
  Run* run_;
  const char* type_;
  Clock::time_point t0_;
  double layer0_;
};

/// A database session as a user drives it. Untraced, every call goes
/// straight to the convenience API (Load, Query, Eval, Holds); traced,
/// each call is split into the layers it crosses (ParseProgram +
/// LoadProgram, ParseQuery + PlanConjunction + RunQuery) with each
/// piece timed, plus the engine, trigger, WAL and route counters.
class Session {
 public:
  Session(pathlog::Database* db, Run* run, bool traced);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  bool Load(const std::string& text);
  bool Materialize(bool full);
  bool Fire();
  bool Checkpoint();
  /// Runs one read, checks it against `q.expected`, and (when
  /// `entails`) re-checks its answers under Definition 5. Returns the
  /// latency in ms.
  double Read(const QuerySpec& q, bool entails);
  /// Rows of a check query (not timed as a read); -1 on error.
  int64_t Count(const std::string& query);
  /// A digest of the answers to `queries`, for before/after compares.
  uint64_t Digest(const std::vector<std::string>& queries);

  /// The run to charge layer time to: null when untraced.
  Run* trace() const { return traced_ ? run_ : nullptr; }

 private:
  bool EntailsCheck(const QuerySpec& q, const pathlog::ResultSet* rs,
                    const std::vector<pathlog::Oid>* oids, bool holds);

  pathlog::Database* db_;
  Run* run_;
  bool traced_;
  void Charge(Layer layer, double ms);

  pathlog::Profiler profiler_;
  pathlog::MetricsRegistry metrics_;
};

/// Charges the wall time of a scope to `layer` in a traced pass; a
/// no-op when `run` is null (the measured run).
class Span {
 public:
  Span(Run* run, Layer layer) : run_(run), layer_(layer), t0_(Clock::now()) {}
  ~Span() {
    if (run_ != nullptr) run_->Charge(layer_, MsSince(t0_));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Run* run_;
  Layer layer_;
  Clock::time_point t0_;
};

// Statistics.
double Median(std::vector<double> v);
double Percentile(std::vector<double> v, double p);
/// The highest of p50/p75/p90/p99 with at least ten samples beyond it;
/// `*p` receives the percentile. The rungs are far apart so a run's
/// sample count sits well inside one rung's range and does not flip
/// the percentile from run to run.
double Tail(const std::vector<double>& v, double* p);
double PeakRssMb();

// Workloads. Each runs one pass under `plan`, appending to `run`.
void RunCompanyQuery(const Plan& plan, Run* run);
void RunKinshipClosure(const Plan& plan, Run* run);
void RunDurableUpdates(const Plan& plan, Run* run);

}  // namespace pathbench

#endif  // PATHBENCH_BENCH_H_
