#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <optional>

#include "parser/parser.h"
#include "query/planner.h"
#include "semantics/structure.h"
#include "semantics/valuation.h"

namespace pathbench {

using pathlog::Database;
using pathlog::Oid;
using pathlog::ResultSet;
using pathlog::Status;

void Run::Fail(const std::string& what) {
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

bool Run::Check(const Status& st, const std::string& what) {
  if (st.ok()) return true;
  Fail(what + ": " + st.ToString());
  return false;
}

OpTimer::OpTimer(Run* run, const char* type)
    : run_(run),
      type_(type),
      t0_(Clock::now()),
      layer0_(run->layer_total_ms) {}

double OpTimer::Stop() {
  const double wall = MsSince(t0_);
  auto& [layer, total] = run_->coverage[type_];
  layer += run_->layer_total_ms - layer0_;
  total += wall;
  return wall;
}

Session::Session(Database* db, Run* run, bool traced)
    : db_(db), run_(run), traced_(traced) {
  if (traced_) {
    pathlog::ObsSinks sinks;
    sinks.metrics = &metrics_;
    sinks.profiler = &profiler_;
    db_->SetObsSinks(sinks);
  }
}

Session::~Session() {
  if (!traced_) return;
  db_->SetObsSinks(pathlog::ObsSinks{});
  // The WAL and checkpoint counters this session's commits produced.
  for (const char* name :
       {"pathlog_wal_append_bytes_total", "pathlog_wal_fsyncs_total",
        "pathlog_checkpoints_total"}) {
    run_->counts[name] +=
        static_cast<double>(metrics_.GetCounter(name)->value());
  }
}

void Session::Charge(Layer layer, double ms) {
  if (traced_) run_->Charge(layer, ms);
}

bool Session::Load(const std::string& text) {
  if (!traced_) return run_->Check(db_->Load(text), "load");
  run_->counts["parser.bytes"] += static_cast<double>(text.size());
  run_->counts["store.user_bytes"] += static_cast<double>(text.size());
  std::optional<pathlog::Result<pathlog::Program>> program;
  {
    Span span(trace(), kParser);
    program.emplace(pathlog::ParseProgram(text));
  }
  if (!run_->Check(program->status(), "parse")) return false;
  Status st;
  {
    Span span(trace(), kStore);
    st = db_->LoadProgram(**program);
  }
  {
    // Freeing the parsed program is the parser's cost too.
    Span span(trace(), kParser);
    program.reset();
  }
  return run_->Check(st, "load program");
}

bool Session::Materialize(bool full) {
  auto t0 = Clock::now();
  Status st = db_->Materialize();
  const double ms = MsSince(t0);
  Charge(kEngine, ms);
  if (!run_->Check(st, "materialize")) return false;
  const pathlog::EngineStats& es = db_->engine_stats();
  if (full) {
    run_->materialize_s.push_back(ms / 1000.0);
    run_->derived_facts_per_s.push_back(
        static_cast<double>(es.facts_added) / (ms / 1000.0));
  }
  if (traced_) {
    run_->counts["eval.engine.iterations"] +=
        static_cast<double>(es.iterations);
    run_->counts["eval.engine.rule_evaluations"] +=
        static_cast<double>(es.rule_evaluations);
    run_->counts["eval.engine.delta_passes"] +=
        static_cast<double>(es.delta_passes);
    run_->counts["eval.engine.derivations"] +=
        static_cast<double>(es.derivations);
    run_->counts["eval.engine.facts_added"] +=
        static_cast<double>(es.facts_added);
  }
  return true;
}

bool Session::Fire() {
  const pathlog::TriggerStats before = db_->trigger_stats();
  Status st;
  {
    Span span(trace(), kActive);
    st = db_->FireTriggers();
  }
  if (traced_) {
    run_->counts["active.firings"] +=
        static_cast<double>(db_->trigger_stats().firings - before.firings);
    run_->counts["active.rounds"] +=
        static_cast<double>(db_->trigger_stats().rounds - before.rounds);
  }
  return run_->Check(st, "fire triggers");
}

bool Session::Checkpoint() {
  Span span(trace(), kWal);
  return run_->Check(db_->Checkpoint(), "checkpoint");
}

double Session::Read(const QuerySpec& q, bool entails) {
  ++run_->attempted;
  OpTimer op(run_, "query");
  const pathlog::Profiler::RouteTotals routes0 =
      traced_ ? profiler_.routes() : pathlog::Profiler::RouteTotals{};
  Status st;
  uint64_t got = 0;
  std::string got_name;
  ResultSet rs;
  std::vector<Oid> oids;
  bool holds = false;
  auto t0 = Clock::now();
  if (q.kind == OpKind::kQuery) {
    auto run_query = [&]() -> pathlog::Result<ResultSet> {
      if (!traced_) return db_->Query(q.text);
      auto tp = Clock::now();
      pathlog::Result<pathlog::Query> parsed = pathlog::ParseQuery(q.text);
      Charge(kParser, MsSince(tp));
      if (!parsed.ok()) return parsed.status();
      std::vector<pathlog::Literal> body = parsed->body;
      tp = Clock::now();
      Status planned = pathlog::PlanConjunction(&body, db_->store());
      Charge(kPlanner, MsSince(tp));
      run_->counts["query.planner.calls"] += 1;
      if (!planned.ok()) return planned;
      Span span(trace(), kDatabase);
      return db_->RunQuery(*parsed);
    };
    pathlog::Result<ResultSet> r = run_query();
    if (r.ok()) {
      rs = std::move(r).value();
      got = rs.size();
    } else {
      st = r.status();
    }
  } else {
    if (traced_) {
      auto tp = Clock::now();
      pathlog::Result<pathlog::RefPtr> parsed = pathlog::ParseRef(q.text);
      Charge(kParser, MsSince(tp));
      if (!parsed.ok()) st = parsed.status();
    }
    Span span(trace(), kDatabase);
    if (!st.ok()) {
    } else if (q.kind == OpKind::kEval) {
      pathlog::Result<std::vector<Oid>> r = db_->Eval(q.text);
      if (r.ok()) {
        oids = std::move(r).value();
        got = oids.size();
        if (got == 1) got_name = db_->DisplayName(oids[0]);
      } else {
        st = r.status();
      }
    } else {
      pathlog::Result<bool> r = db_->Holds(q.text);
      if (r.ok()) {
        holds = *r;
        got = holds ? 1 : 0;
      } else {
        st = r.status();
      }
    }
  }
  const double ms = MsSince(t0);
  op.Stop();
  run_->query_ms.push_back(ms);
  if (traced_) {
    auto& [sum, n] = run_->family_ms[q.family];
    sum += ms;
    ++n;
    const pathlog::Profiler::RouteTotals routes = profiler_.routes();
    run_->counts["query.reads"] += 1;
    run_->counts["parser.bytes"] += static_cast<double>(q.text.size());
    run_->counts["query.rows"] += static_cast<double>(got);
    run_->counts["eval.ref_eval.inverted_probes"] +=
        static_cast<double>(routes.inverted_probes - routes0.inverted_probes);
    run_->counts["eval.ref_eval.extent_scans"] +=
        static_cast<double>(routes.extent_scans - routes0.extent_scans);
    run_->counts["eval.ref_eval.universe_scans"] +=
        static_cast<double>(routes.universe_scans - routes0.universe_scans);
    run_->counts["rows." + q.family] += static_cast<double>(got);
  }
  if (!run_->Check(st, q.text)) return ms;
  if (got != q.expected ||
      (!q.expected_name.empty() && got_name != q.expected_name)) {
    run_->Fail(q.text + ": got " + std::to_string(got) + " " + got_name +
               ", expected " + std::to_string(q.expected) + " " +
               q.expected_name);
    return ms;
  }
  if (entails && !EntailsCheck(q, &rs, &oids, holds)) {
    run_->Fail(q.text + ": answer not entailed under Definition 5");
  }
  return ms;
}

bool Session::EntailsCheck(const QuerySpec& q, const ResultSet* rs,
                           const std::vector<Oid>* oids, bool holds) {
  const pathlog::SemanticStructure structure(db_->store());
  if (q.kind == OpKind::kQuery) {
    pathlog::Result<pathlog::Query> parsed = pathlog::ParseQuery(q.text);
    if (!parsed.ok()) return false;
    const size_t rows = std::min<size_t>(rs->size(), 8);
    for (size_t r = 0; r < rows; ++r) {
      pathlog::VarValuation nu;
      for (size_t c = 0; c < rs->vars().size(); ++c) {
        nu[rs->vars()[c]] = rs->rows()[r][c];
      }
      for (const pathlog::Literal& lit : parsed->body) {
        pathlog::Result<bool> e = pathlog::Entails(structure, *lit.ref, nu);
        if (!e.ok() || *e == lit.negated) return false;
      }
    }
    return true;
  }
  pathlog::Result<pathlog::RefPtr> ref = pathlog::ParseRef(q.text);
  if (!ref.ok()) return false;
  if (q.kind == OpKind::kHolds) {
    pathlog::Result<bool> e = pathlog::Entails(structure, **ref, {});
    return e.ok() && *e == holds;
  }
  pathlog::Result<std::vector<Oid>> denoted =
      pathlog::Valuate(structure, **ref, {});
  std::vector<Oid> got = *oids;
  std::sort(got.begin(), got.end());
  return denoted.ok() && *denoted == got;
}

int64_t Session::Count(const std::string& query) {
  pathlog::Result<ResultSet> r = db_->Query(query);
  if (!run_->Check(r.status(), query)) return -1;
  return static_cast<int64_t>(r->size());
}

uint64_t Session::Digest(const std::vector<std::string>& queries) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) h = (h ^ c) * 1099511628211ull;
    h = (h ^ 0xff) * 1099511628211ull;
  };
  for (const std::string& query : queries) {
    pathlog::Result<ResultSet> r = db_->Query(query);
    if (!run_->Check(r.status(), query)) return 0;
    std::vector<std::string> rows;
    for (const std::vector<Oid>& row : r->rows()) {
      std::string line;
      for (Oid o : row) line += db_->DisplayName(o) + ",";
      rows.push_back(std::move(line));
    }
    std::sort(rows.begin(), rows.end());
    mix(query);
    for (const std::string& row : rows) mix(row);
  }
  return h;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // Nearest rank.
  const double n = static_cast<double>(v.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Tail(const std::vector<double>& v, double* p) {
  static const double kLadder[] = {99, 90, 75, 50};
  for (double q : kLadder) {
    const double n = static_cast<double>(v.size());
    if (n - std::ceil(q / 100.0 * n) >= 10) {
      *p = q;
      return Percentile(v, q);
    }
  }
  *p = 50;
  return Percentile(v, 50);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace pathbench
