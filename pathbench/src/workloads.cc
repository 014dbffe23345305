// The three workloads. Each is one closed-loop client on one thread.
//
//   company-query    read path: parser -> planner -> ref_eval over a
//                    10k-employee company with the paper's views; the
//                    few new-hire batches run after the reads.
//   kinship-closure  fixpoint engine: one graph after another under the
//                    `desc` and generic `(M.tc)` rules, then edge batches
//                    that force re-closure.
//   durable-updates  write path: small fsynced batches (Load, Materialize,
//                    FireTriggers) beside selective reads, checkpoints
//                    every cycle, recovery by reopening the directory.

#include <filesystem>
#include <memory>
#include <utility>

#include "bench.h"

namespace pathbench {

using pathlog::Database;
using pathlog::DatabaseOptions;
using pathlog::DurabilityOptions;

namespace {

struct Weighted {
  const char* family;
  uint32_t per_10k;  ///< reads of this family in every 10000
};

// The unselective families (E1.1, and E2.3, whose nested path is
// evaluated per employee) are 0.55% of the reads: each costs as much as
// fifty selective ones. The shares put each reported percentile inside
// one family's latencies, not on the border between two: the p50 inside
// E1.4/2.1 (above the 33% point reads), the p99 among the slowest
// E2.man and bound-target reads (the 10% just below the 0.55%).
constexpr Weighted kCompanyMix[] = {
    {"e1_1_path", 25},      {"e1_1_conj", 25},    {"e2_3_nested", 5},
    {"e1_4_path", 2800},    {"e1_4_conj", 2800},  {"e2_man", 500},
    {"bound_target", 500},  {"point_eval", 1115}, {"point_holds", 1115},
    {"view_eval", 1115},
};
constexpr Weighted kDurableMix[] = {
    {"e1_4_path", 1500},  {"e2_man", 1000},      {"bound_target", 1500},
    {"point_eval", 1500}, {"point_holds", 1500}, {"address", 1500},
    {"grandkids", 1500},
};
constexpr Weighted kKinshipMix[] = {
    {"desc_of", 4000}, {"tc_ancestors", 2000}, {"desc_holds", 4000}};

/// Deals query families in the exact shares of a mix: every block of
/// 10000 reads holds each family per_10k times, in seeded order. Exact
/// shares keep the costly families' count, and so the totals, the same
/// from seed to seed.
class Deck {
 public:
  template <size_t N>
  explicit Deck(const Weighted (&mix)[N]) {
    for (const Weighted& w : mix) {
      cards_.insert(cards_.end(), w.per_10k, w.family);
    }
    pos_ = cards_.size();
  }
  const char* Next(Rng* rng) {
    if (pos_ == cards_.size()) {
      for (size_t i = cards_.size() - 1; i > 0; --i) {
        std::swap(cards_[i], cards_[rng->Pick(static_cast<uint32_t>(i + 1))]);
      }
      pos_ = 0;
    }
    return cards_[pos_++];
  }

 private:
  std::vector<const char*> cards_;
  size_t pos_;
};

/// One in this many reads is re-checked under Definition 5.
constexpr uint32_t kEntailsEvery = 20;

void Expect(Run* run, int64_t got, uint64_t want, const std::string& what) {
  ++run->attempted;
  if (got != static_cast<int64_t>(want)) {
    run->Fail(what + ": got " + std::to_string(got) + ", expected " +
              std::to_string(want));
  }
}

/// One write batch as the issue defines an update: Load, Materialize,
/// FireTriggers, each committed (and fsynced, when durable).
bool Update(Session* s, Run* run, const std::string& batch) {
  ++run->attempted;
  OpTimer op(run, "update");
  const bool ok = s->Load(batch) && s->Materialize(false) && s->Fire();
  run->update_ms.push_back(op.Stop());
  return ok;
}

/// Restores a database the way its user would after a restart, runs the
/// first query, and checks the facts and answers survived. `open` does
/// the reopening (snapshot file or durable directory).
template <typename OpenFn>
void Recover(const Plan& plan, Run* run, OpenFn open,
             const std::vector<std::string>& digest_queries, uint64_t digest,
             size_t facts) {
  for (int rep = 0; rep < plan.recovery_reps; ++rep) {
    ++run->attempted;
    OpTimer op(run, "recovery");
    std::unique_ptr<Database> db;
    {
      Span span(plan.traced ? run : nullptr, kRecover);
      pathlog::Result<Database> r = open();
      if (!run->Check(r.status(), "recover")) return;
      db = std::make_unique<Database>(std::move(r).value());
    }
    Session s(db.get(), run, plan.traced);
    if (!s.Materialize(false)) return;
    {
      Span span(s.trace(), kDatabase);
      if (s.Count(digest_queries[0]) < 0) return;
    }
    run->recovery_s.push_back(op.Stop() / 1000.0);
    Expect(run, static_cast<int64_t>(db->store().FactCount()), facts,
           "facts after recovery");
    Expect(run, static_cast<int64_t>(s.Digest(digest_queries)), digest,
           "answer digest after recovery");
  }
}

/// Store size at the end of a traced pass (counts, so set, not added).
void RecordStore(const Plan& plan, Run* run, const Database& db) {
  if (!plan.traced) return;
  run->counts["store.facts"] = static_cast<double>(db.store().FactCount());
  run->counts["store.objects"] =
      static_cast<double>(db.store().UniverseSize());
  run->counts["store.bytes"] = static_cast<double>(db.store().ApproxBytes());
}

/// Reads until the time (or window) is up, then a few new-hire batches.
/// The batches come after the reads: each re-materialises the views
/// over the whole company, and interleaved they would give the engine a
/// large share of the read loop.
bool CompanyLoop(const Plan& plan, Run* run, Session* s, Company* company) {
  Expect(run, s->Count("?- X:automobile[power->P]."),
         company->Automobiles(false), "power view");
  Expect(run, s->Count("?- X.boss2[worksFor->D]."),
         company->employees().size(), "virtual boss view");
  Rng rng(SubSeed(plan.seed, 2));
  Deck deck(kCompanyMix);
  const auto t0 = Clock::now();
  for (size_t ops = 0; !plan.Done(ops, MsSince(t0)); ++ops) {
    QuerySpec q = company->Draw(deck.Next(&rng), &rng);
    s->Read(q, rng.Pick(kEntailsEvery) == 0);
  }
  constexpr int kHireBatches = 9;
  for (int b = 0; b < kHireBatches; ++b) {
    if (!Update(s, run, company->Hire(5, false, &rng))) return false;
  }
  Expect(run, s->Count("?- X.boss2[worksFor->D]."),
         company->employees().size(), "virtual boss view after hires");
  return true;
}

/// Batches in checkpoint cycles until the time (or window) is up, then
/// half a cycle more, so recovery replays a WAL tail on top of the
/// last snapshot.
bool DurableLoop(const Plan& plan, Run* run, Session* s, Company* company,
                 const std::string& dir) {
  constexpr size_t kCycle = 16;
  constexpr int kReadsPerBatch = 4;
  Rng rng(SubSeed(plan.seed, 4));
  Deck deck(kDurableMix);
  auto batch = [&]() {
    if (!Update(s, run, company->Hire(4, true, &rng))) return false;
    for (int i = 0; i < kReadsPerBatch; ++i) {
      QuerySpec q = company->Draw(deck.Next(&rng), &rng);
      s->Read(q, rng.Pick(kEntailsEvery) == 0);
    }
    return true;
  };
  const auto t0 = Clock::now();
  for (size_t cycles = 0; !plan.Done(cycles, MsSince(t0)); ++cycles) {
    for (size_t b = 0; b < kCycle; ++b) {
      if (!batch()) return false;
    }
    ++run->attempted;
    OpTimer op(run, "checkpoint");
    if (!s->Checkpoint()) return false;
    op.Stop();
    if (plan.traced) {
      run->counts["store.wal.snapshot_bytes"] += static_cast<double>(
          std::filesystem::file_size(dir + "/snapshot.plgdb"));
    }
  }
  for (size_t b = 0; b < kCycle / 2; ++b) {
    if (!batch()) return false;
  }
  return true;
}

}  // namespace

void RunCompanyQuery(const Plan& plan, Run* run) {
  CompanyConfig config;
  config.employees = 10000;
  std::unique_ptr<Company> company;
  std::unique_ptr<Database> db;
  for (int rep = 0; rep < plan.setup_reps; ++rep) {
    db.reset();
    company.reset();
    ++run->attempted;
    OpTimer op(run, "setup");
    {
      Span span(plan.traced ? run : nullptr, kStore);
      db = std::make_unique<Database>();
    }
    Session s(db.get(), run, plan.traced);
    std::string text;
    {
      Span span(s.trace(), kGen);
      company = std::make_unique<Company>(config, SubSeed(plan.seed, 1));
      text = company->Text();
      text += kCompanyViews;
    }
    if (!s.Load(text) || !s.Materialize(true)) return;
    run->setup_s.push_back(op.Stop() / 1000.0);
  }
  const std::vector<std::string> digest_queries = {
      "?- X:automobile[power->P].", "?- X.boss2[worksFor->D].",
      "?- X:manager..vehicles[color->red].producedBy[president->X]."};
  uint64_t digest = 0;
  {
    Session s(db.get(), run, plan.traced);
    if (!CompanyLoop(plan, run, &s, company.get())) return;
    digest = s.Digest(digest_queries);
    RecordStore(plan, run, *db);
  }
  const size_t facts = db->store().FactCount();
  const std::string snapshot = plan.workdir + "/company.plgdb";
  if (!run->Check(db->SaveSnapshotFile(snapshot), "save snapshot")) return;
  db.reset();
  Recover(plan, run, [&] { return Database::LoadSnapshotFile(snapshot); },
          digest_queries, digest, facts);
}

void RunKinshipClosure(const Plan& plan, Run* run) {
  const KinshipConfig config;
  constexpr int kReadsPerGraph = 25;
  constexpr int kUpdatesPerGraph = 3;
  const std::vector<std::string> digest_queries = {
      "?- X[desc->>{Y}].", "?- X[(kids.tc)->>{Y}]."};
  Rng rng(SubSeed(plan.seed, 3));
  Deck deck(kKinshipMix);
  std::unique_ptr<Database> db;
  std::unique_ptr<Kinship> graph;
  const auto t0 = Clock::now();
  // A timed run may stop inside a graph, between two ops: a graph is a
  // second's work, and stopping only between graphs would make the
  // sample counts jump with the number of whole graphs that fit.
  auto out_of_time = [&] {
    return plan.window == 0 && plan.Done(0, MsSince(t0));
  };
  for (size_t graphs = 0; graphs == 0 || !plan.Done(graphs, MsSince(t0));
       ++graphs) {
    db.reset();
    ++run->attempted;
    OpTimer op(run, "setup");
    {
      Span span(plan.traced ? run : nullptr, kStore);
      db = std::make_unique<Database>();
    }
    Session s(db.get(), run, plan.traced);
    std::string text;
    {
      Span span(s.trace(), kGen);
      graph = std::make_unique<Kinship>(config,
                                        SubSeed(plan.seed, 100 + graphs));
      text = graph->Text();
    }
    if (!s.Load(text)) return;
    run->setup_s.push_back(op.Stop() / 1000.0);

    ++run->attempted;
    OpTimer mat(run, "materialize");
    if (!s.Materialize(true)) return;
    mat.Stop();
    for (const std::string& q : digest_queries) {
      Expect(run, s.Count(q), graph->ClosurePairs(), q);
    }
    for (int i = 0; i < kReadsPerGraph && !out_of_time(); ++i) {
      QuerySpec q = graph->Draw(deck.Next(&rng), &rng);
      s.Read(q, rng.Pick(kEntailsEvery) == 0);
    }
    for (int u = 0; u < kUpdatesPerGraph && !out_of_time(); ++u) {
      if (!Update(&s, run, graph->Grow(3, &rng))) return;
    }
    for (const std::string& q : digest_queries) {
      Expect(run, s.Count(q), graph->ClosurePairs(), q + " after updates");
    }
  }

  uint64_t digest = 0;
  {
    Session s(db.get(), run, false);
    digest = s.Digest(digest_queries);
  }
  RecordStore(plan, run, *db);
  const size_t facts = db->store().FactCount();
  const std::string snapshot = plan.workdir + "/kinship.plgdb";
  if (!run->Check(db->SaveSnapshotFile(snapshot), "save snapshot")) return;
  db.reset();
  Recover(plan, run, [&] { return Database::LoadSnapshotFile(snapshot); },
          digest_queries, digest, facts);
}

void RunDurableUpdates(const Plan& plan, Run* run) {
  CompanyConfig config;
  // Every batch re-materialises the views over all persons, so the
  // universe is kept small enough for batches of tens of milliseconds.
  config.employees = 2000;
  config.persons = true;
  DatabaseOptions options;
  // Every commit is fsynced before the mutating call returns.
  options.durability.fsync_policy = DurabilityOptions::FsyncPolicy::kAlways;
  std::unique_ptr<Company> company;
  std::unique_ptr<Database> db;
  std::string dir;
  for (int rep = 0; rep < plan.setup_reps; ++rep) {
    db.reset();
    company.reset();
    dir = plan.workdir + "/durable-" + std::to_string(rep);
    std::filesystem::remove_all(dir);
    ++run->attempted;
    OpTimer op(run, "setup");
    {
      Span span(plan.traced ? run : nullptr, kRecover);
      pathlog::Result<Database> r = Database::Open(dir, options);
      if (!run->Check(r.status(), "open")) return;
      db = std::make_unique<Database>(std::move(r).value());
    }
    Session s(db.get(), run, plan.traced);
    std::string text;
    {
      Span span(s.trace(), kGen);
      company = std::make_unique<Company>(config, SubSeed(plan.seed, 1));
      text = company->Text();
      text += kDurableRules;
    }
    if (!s.Load(text) || !s.Materialize(true) || !s.Fire()) return;
    run->setup_s.push_back(op.Stop() / 1000.0);
  }
  const std::vector<std::string> digest_queries = {
      "?- hot[is->>{V}].", "?- X:employee[city->detroit].address[street->S].",
      "?- X[grandkids->>{Z}]."};
  uint64_t digest = 0;
  {
    Session s(db.get(), run, plan.traced);
    if (!DurableLoop(plan, run, &s, company.get(), dir)) return;
    Expect(run, s.Count(digest_queries[0]), company->Automobiles(true),
           "active rule: red automobiles");
    Expect(run, s.Count("?- X:person.address[city->C]."),
           company->employees().size(), "address view");
    digest = s.Digest(digest_queries);
  }
  RecordStore(plan, run, *db);
  const size_t facts = db->store().FactCount();
  db.reset();
  Recover(plan, run, [&] { return Database::Open(dir, options); },
          digest_queries, digest, facts);
}

}  // namespace pathbench
