// Seeded input generators for the benchmark. Everything the database
// under test receives is PathLog program text produced here; the
// generators also keep the tuples they emitted, so the expected answer
// of every generated query is computed independently of the database.

#ifndef PATHBENCH_GEN_H_
#define PATHBENCH_GEN_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace pathbench {

/// Integer draws only: std::mt19937_64 is fully specified, so one seed
/// gives the same text with every standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : g_(seed) {}
  uint32_t Pick(uint32_t n) { return static_cast<uint32_t>(g_() % n); }
  bool Percent(uint32_t p) { return g_() % 100 < p; }

 private:
  std::mt19937_64 g_;
};

/// Mixes a stream id into a seed so independent streams never overlap.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

enum class OpKind { kQuery, kEval, kHolds };

/// One generated read: its family id (a paper example), the text, and
/// the answer the generator's own tuples predict.
struct QuerySpec {
  std::string family;
  OpKind kind = OpKind::kQuery;
  std::string text;
  /// Rows for kQuery, denoted objects for kEval, 0/1 for kHolds.
  uint64_t expected = 0;
  /// kEval with one expected object: its name.
  std::string expected_name;
};

// ---------------------------------------------------------------------
// The company universe of the paper's running examples, with the
// distributions of src/workload/company.cc: 10% managers, ages 20-65,
// 10 cities, 15 departments, 0-3 vehicles per employee of which 70% are
// automobiles with 4/6/8 cylinders, 8 colours, one company per 50
// employees whose president is a manager, and half of the presidents
// owning a red car of their own company. Automobiles also get an engine
// object carrying `power` (the paper's intensional `power` view reads
// it), and employees a street (the E2.4 address view reads it).

struct Employee {
  uint32_t age = 0;
  uint32_t city = 0;
  uint32_t street = 0;
  uint32_t dept = 0;
  int32_t boss = -1;  ///< -1 for managers
  bool manager = false;
  std::vector<uint32_t> vehicles;
};

struct Vehicle {
  uint32_t color = 0;
  uint32_t company = 0;
  bool automobile = false;
  uint32_t cylinders = 0;  ///< automobiles only
  uint32_t power = 0;      ///< automobiles only (their engine's power)
};

struct Firm {
  uint32_t city = 0;
  uint32_t president = 0;
};

struct CompanyConfig {
  uint32_t employees = 10000;
  /// Emit `employee :: person` and a street per employee (durable
  /// workload: the E2.4 address view ranges over persons).
  bool persons = false;
};

class Company {
 public:
  static constexpr uint32_t kCities = 10;
  static constexpr uint32_t kColors = 8;
  static constexpr uint32_t kDepts = 15;
  static constexpr uint32_t kStreets = 50;

  Company(const CompanyConfig& config, uint64_t seed);

  /// The whole universe as facts (class hierarchy first).
  std::string Text() const;

  /// Appends `n` new employees (non-managers with a boss) and their
  /// vehicles to the universe and returns their facts. With `kids`,
  /// each new employee also becomes a kid of a random earlier one.
  std::string Hire(uint32_t n, bool kids, Rng* rng);

  /// Draws one read of `family` with the answer the tuples predict.
  QuerySpec Draw(const std::string& family, Rng* rng) const;

  /// Grandkids of employee `e` through the `kids` edges Hire() added.
  uint64_t GrandkidCount(uint32_t e) const;

  const std::vector<Employee>& employees() const { return employees_; }
  /// Automobiles in the universe (only red ones with `red_only`).
  size_t Automobiles(bool red_only) const;

  static std::string CityName(uint32_t c);
  static std::string ColorName(uint32_t c);

 private:
  uint32_t NewVehicle(Rng* rng, uint32_t color, uint32_t company,
                      bool automobile);
  void AppendEmployee(uint32_t e, std::string* out) const;
  void AppendVehicles(uint32_t e, std::string* out) const;

  CompanyConfig config_;
  std::vector<Employee> employees_;
  std::vector<uint32_t> managers_;
  std::vector<Vehicle> vehicles_;
  std::vector<Firm> firms_;
  std::vector<std::vector<uint32_t>> kids_;  ///< per employee
  std::vector<uint32_t> assistants_pairs_;   ///< manager, assistant, ...
};

/// The paper's non-recursive views over the company: `power` (E6.pow)
/// and the virtual boss of rule (6.1), on a fresh method `boss2` so the
/// existing scalar `boss` facts are left alone.
extern const char* const kCompanyViews;

/// The durable workload's rules: the E2.4 virtual address objects, a
/// view over `kids`, and an active rule on red automobiles.
extern const char* const kDurableRules;

// ---------------------------------------------------------------------
// Kinship graphs (paper section 6): a layered DAG plus a chain, under the
// `desc` rules and the generic `(M.tc)` rules. Every graph has the same
// shape; the seed draws the names, and so the order of the facts.

struct KinshipConfig {
  uint32_t layers = 6;
  uint32_t width = 30;
  uint32_t kids_per_node = 3;
  uint32_t chain = 12;
};

class Kinship {
 public:
  Kinship(const KinshipConfig& config, uint64_t seed);

  /// Facts of the graph plus the closure rules.
  std::string Text() const;

  /// Adds `n` new nodes, each a kid of a random node of the DAG's last
  /// layer, and returns the new facts.
  std::string Grow(uint32_t n, Rng* rng);

  /// Number of (ancestor, descendant) pairs: a BFS from every node.
  uint64_t ClosurePairs() const;

  QuerySpec Draw(const std::string& family, Rng* rng) const;

 private:
  std::vector<uint32_t> Reach(uint32_t from) const;
  std::string Name(uint32_t v) const;

  std::vector<std::vector<uint32_t>> kids_;
  std::vector<uint32_t> last_layer_;  ///< the DAG's bottom layer
};

extern const char* const kClosureRules;

}  // namespace pathbench

#endif  // PATHBENCH_GEN_H_
