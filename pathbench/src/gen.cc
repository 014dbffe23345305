#include "gen.h"

#include <algorithm>
#include <set>

namespace pathbench {

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 finaliser over (seed, stream).
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {

/// `prefix` followed by `i`. (Not "e" + std::to_string(i): GCC 12 warns
/// falsely on that form under -O2 -Wrestrict.)
std::string Named(char prefix, uint32_t i) {
  std::string out(1, prefix);
  out += std::to_string(i);
  return out;
}

std::string E(uint32_t i) { return Named('e', i); }
std::string V(uint32_t i) { return Named('v', i); }

const uint32_t kCylinders[] = {4, 6, 8};

}  // namespace

const char* const kCompanyViews =
    "X[power->Y] <- X:automobile.engine[power->Y].\n"
    "X.boss2[worksFor->D] <- X : employee[worksFor->D].\n";

const char* const kDurableRules =
    "X.address[street->X.street; city->X.city] <- X : person.\n"
    "X[grandkids->>{Z}] <- X..kids[kids->>{Z}].\n"
    "hot[is->>{V}] <~ V:automobile[color->red].\n";

const char* const kClosureRules =
    "X[desc->>{Y}] <- X[kids->>{Y}].\n"
    "X[desc->>{Y}] <- X..desc[kids->>{Y}].\n"
    "X[(M.tc)->>{Y}] <- X[M->>{Y}].\n"
    "X[(M.tc)->>{Y}] <- X..(M.tc)[M->>{Y}].\n";

std::string Company::CityName(uint32_t c) {
  return c == 0 ? "newYork" : c == 1 ? "detroit" : "city" + std::to_string(c);
}

std::string Company::ColorName(uint32_t c) {
  return c == 0 ? "red" : "color" + std::to_string(c);
}

Company::Company(const CompanyConfig& config, uint64_t seed)
    : config_(config) {
  Rng rng(seed);
  const uint32_t n = config.employees;
  const uint32_t num_firms = std::max<uint32_t>(2, n / 50);
  for (uint32_t i = 0; i < num_firms; ++i) {
    firms_.push_back({rng.Pick(kCities), 0});
  }
  const uint32_t num_managers = std::max<uint32_t>(1, n / 10);
  employees_.resize(n);
  kids_.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    Employee& e = employees_[i];
    e.manager = i < num_managers;
    if (e.manager) managers_.push_back(i);
    e.age = 20 + rng.Pick(46);
    e.city = rng.Pick(kCities);
    e.street = rng.Pick(kStreets);
    e.dept = rng.Pick(kDepts);
  }
  for (uint32_t i = num_managers; i < n; ++i) {
    employees_[i].boss =
        static_cast<int32_t>(managers_[rng.Pick(num_managers)]);
  }
  for (uint32_t m : managers_) {
    for (int k = 0; k < 3; ++k) {
      uint32_t a = rng.Pick(n);
      if (a == m) continue;
      assistants_pairs_.push_back(m);
      assistants_pairs_.push_back(a);
    }
  }
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t count = rng.Pick(4);
    for (uint32_t k = 0; k < count; ++k) {
      const uint32_t color = rng.Pick(kColors);
      const uint32_t firm = rng.Pick(num_firms);
      const bool automobile = rng.Percent(70);
      employees_[i].vehicles.push_back(
          NewVehicle(&rng, color, firm, automobile));
    }
  }
  for (uint32_t f = 0; f < num_firms; ++f) {
    const uint32_t president = managers_[rng.Pick(num_managers)];
    firms_[f].president = president;
    if (rng.Percent(50)) {
      employees_[president].vehicles.push_back(
          NewVehicle(&rng, 0, f, true));
    }
  }
}

uint32_t Company::NewVehicle(Rng* rng, uint32_t color, uint32_t company,
                             bool automobile) {
  Vehicle v;
  v.color = color;
  v.company = company;
  v.automobile = automobile;
  if (automobile) {
    v.cylinders = kCylinders[rng->Pick(3)];
    v.power = 50 + rng->Pick(250);
  }
  vehicles_.push_back(v);
  return static_cast<uint32_t>(vehicles_.size() - 1);
}

void Company::AppendEmployee(uint32_t i, std::string* out) const {
  const Employee& e = employees_[i];
  *out += E(i);
  *out += e.manager ? " : manager[age->" : " : employee[age->";
  *out += std::to_string(e.age);
  *out += "; city->" + CityName(e.city);
  *out += "; salary->" + std::to_string(1000 + 100 * ((i * 7 + e.age) % 50));
  *out += "; worksFor->dept" + std::to_string(e.dept);
  if (config_.persons) *out += "; street->st" + std::to_string(e.street);
  if (e.boss >= 0) *out += "; boss->" + E(static_cast<uint32_t>(e.boss));
  *out += "].\n";
}

void Company::AppendVehicles(uint32_t i, std::string* out) const {
  const Employee& e = employees_[i];
  if (e.vehicles.empty()) return;
  *out += E(i) + "[vehicles->>{";
  for (size_t k = 0; k < e.vehicles.size(); ++k) {
    if (k > 0) *out += ", ";
    *out += V(e.vehicles[k]);
  }
  *out += "}].\n";
  for (uint32_t id : e.vehicles) {
    const Vehicle& v = vehicles_[id];
    *out += V(id);
    *out += v.automobile ? " : automobile[color->" : " : vehicle[color->";
    *out += ColorName(v.color);
    *out += "; producedBy->comp" + std::to_string(v.company);
    if (v.automobile) {
      *out += "; cylinders->" + std::to_string(v.cylinders);
      *out += "; engine->g" + std::to_string(id);
      *out += "].\ng" + std::to_string(id) +
              "[power->" + std::to_string(v.power) + "].\n";
    } else {
      *out += "].\n";
    }
  }
}

std::string Company::Text() const {
  std::string out;
  out.reserve(employees_.size() * 220);
  out += "manager :: employee.\nautomobile :: vehicle.\n";
  if (config_.persons) out += "employee :: person.\n";
  for (size_t f = 0; f < firms_.size(); ++f) {
    out += "comp" + std::to_string(f) + " : company[city->" +
           CityName(firms_[f].city) + "; president->" +
           E(firms_[f].president) + "].\n";
  }
  for (uint32_t i = 0; i < employees_.size(); ++i) AppendEmployee(i, &out);
  for (size_t k = 0; k + 1 < assistants_pairs_.size(); k += 2) {
    out += E(assistants_pairs_[k]) + "[assistants->>{" +
           E(assistants_pairs_[k + 1]) + "}].\n";
  }
  for (uint32_t i = 0; i < employees_.size(); ++i) AppendVehicles(i, &out);
  return out;
}

std::string Company::Hire(uint32_t n, bool kids, Rng* rng) {
  std::string out;
  for (uint32_t k = 0; k < n; ++k) {
    const uint32_t i = static_cast<uint32_t>(employees_.size());
    Employee e;
    e.age = 20 + rng->Pick(46);
    e.city = rng->Pick(kCities);
    e.street = rng->Pick(kStreets);
    e.dept = rng->Pick(kDepts);
    e.boss = static_cast<int32_t>(
        managers_[rng->Pick(static_cast<uint32_t>(managers_.size()))]);
    const uint32_t count = rng->Pick(4);
    for (uint32_t c = 0; c < count; ++c) {
      const uint32_t color = rng->Pick(kColors);
      const uint32_t firm = rng->Pick(static_cast<uint32_t>(firms_.size()));
      const bool automobile = rng->Percent(70);
      e.vehicles.push_back(NewVehicle(rng, color, firm, automobile));
    }
    employees_.push_back(std::move(e));
    kids_.emplace_back();
    AppendEmployee(i, &out);
    AppendVehicles(i, &out);
    if (kids) {
      const uint32_t parent = rng->Pick(i);
      kids_[parent].push_back(i);
      out += E(parent) + "[kids->>{" + E(i) + "}].\n";
    }
  }
  return out;
}

uint64_t Company::GrandkidCount(uint32_t e) const {
  std::set<uint32_t> out;
  for (uint32_t k : kids_[e]) out.insert(kids_[k].begin(), kids_[k].end());
  return out.size();
}

size_t Company::Automobiles(bool red_only) const {
  size_t n = 0;
  for (const Vehicle& v : vehicles_) {
    n += v.automobile && (!red_only || v.color == 0);
  }
  return n;
}

QuerySpec Company::Draw(const std::string& family, Rng* rng) const {
  QuerySpec q;
  q.family = family;
  const uint32_t n = static_cast<uint32_t>(employees_.size());
  const uint32_t age = 20 + rng->Pick(46);
  const uint32_t city = rng->Pick(kCities);
  const uint32_t cyl = kCylinders[rng->Pick(3)];
  const uint32_t color = rng->Pick(kColors);
  const uint32_t who = rng->Pick(n);
  const std::string a = std::to_string(age);
  const std::string c = CityName(city);
  const std::string k = std::to_string(cyl);
  uint64_t count = 0;
  if (family == "e1_1_path" || family == "e1_1_conj") {
    q.text = family == "e1_1_path"
                 ? "?- X:employee..vehicles[Y]:automobile.color[Z]."
                 : "?- X:employee, X[vehicles->>{Y:automobile}], Y.color[Z].";
    for (const Employee& e : employees_) {
      for (uint32_t v : e.vehicles) count += vehicles_[v].automobile;
    }
  } else if (family == "e1_4_path" || family == "e1_4_conj") {
    q.text = family == "e1_4_path"
                 ? "?- X:employee[age->" + a + "; city->" + c +
                       "]..vehicles[Y]:automobile[cylinders->" + k +
                       "].color[Z]."
                 : "?- X:employee[age->" + a + "], X[city->" + c +
                       "], X[vehicles->>{Y:automobile}], Y[cylinders->" + k +
                       "], Y.color[Z].";
    for (const Employee& e : employees_) {
      if (e.age != age || e.city != city) continue;
      for (uint32_t v : e.vehicles) {
        count += vehicles_[v].automobile && vehicles_[v].cylinders == cyl;
      }
    }
  } else if (family == "e2_3_nested") {
    q.text = "?- X:employee[age->" + a + "; city->X.boss.city].";
    for (const Employee& e : employees_) {
      count += e.age == age && e.boss >= 0 &&
               employees_[static_cast<uint32_t>(e.boss)].city == e.city;
    }
  } else if (family == "e2_man") {
    q.text = "?- X:manager..vehicles[color->red].producedBy[city->" + c +
             "; president->X].";
    for (uint32_t m : managers_) {
      bool hit = false;
      for (uint32_t v : employees_[m].vehicles) {
        const Firm& f = firms_[vehicles_[v].company];
        hit = hit || (vehicles_[v].color == 0 && f.city == city &&
                      f.president == m);
      }
      count += hit;
    }
  } else if (family == "bound_target") {
    q.text = "?- " + ColorName(color) + "[self->Y:automobile[cylinders->" +
             k + "].color], X:employee[city->" + c + "; vehicles->>{Y}].";
    for (const Employee& e : employees_) {
      if (e.city != city) continue;
      for (uint32_t v : e.vehicles) {
        const Vehicle& veh = vehicles_[v];
        count += veh.automobile && veh.cylinders == cyl && veh.color == color;
      }
    }
  } else if (family == "point_eval") {
    q.kind = OpKind::kEval;
    q.text = E(who) + ".boss.city";
    const Employee& e = employees_[who];
    if (e.boss >= 0) {
      count = 1;
      const Employee& boss = employees_[static_cast<uint32_t>(e.boss)];
      q.expected_name = CityName(boss.city);
    }
  } else if (family == "point_holds") {
    q.kind = OpKind::kHolds;
    q.text = E(who) + ".boss[city->" + c + "]";
    const Employee& e = employees_[who];
    count = e.boss >= 0 &&
            employees_[static_cast<uint32_t>(e.boss)].city == city;
  } else if (family == "view_eval") {
    q.kind = OpKind::kEval;
    q.text = E(who) + ".boss2.worksFor";
    count = 1;
    q.expected_name = "dept" + std::to_string(employees_[who].dept);
  } else if (family == "address") {
    q.text = "?- " + E(who) + ".address[street->S; city->C].";
    count = 1;
  } else if (family == "grandkids") {
    q.text = "?- " + E(who) + "[grandkids->>{Z}].";
    count = GrandkidCount(who);
  }
  q.expected = count;
  return q;
}

// ---------------------------------------------------------------------

Kinship::Kinship(const KinshipConfig& config, uint64_t seed) {
  Rng rng(seed);
  const uint32_t dag = config.layers * config.width;
  const uint32_t n = dag + config.chain;
  // Every graph has the same shape, so every seed costs the same: node
  // (layer, c) has kids (layer + 1, c .. c + kids_per_node - 1 mod
  // width). The seed draws which name each node gets.
  std::vector<uint32_t> id(n);
  for (uint32_t v = 0; v < n; ++v) id[v] = v;
  for (uint32_t v = n - 1; v > 0; --v) std::swap(id[v], id[rng.Pick(v + 1)]);
  kids_.resize(n);
  for (uint32_t layer = 0; layer < config.layers; ++layer) {
    for (uint32_t c = 0; c < config.width; ++c) {
      const uint32_t v = id[layer * config.width + c];
      if (layer + 1 == config.layers) {
        last_layer_.push_back(v);
        continue;
      }
      for (uint32_t k = 0; k < config.kids_per_node; ++k) {
        kids_[v].push_back(
            id[(layer + 1) * config.width + (c + k) % config.width]);
      }
    }
  }
  for (uint32_t i = 0; i < config.chain; ++i) {
    const uint32_t v = id[dag + i];
    if (i + 1 < config.chain) kids_[v].push_back(id[dag + i + 1]);
  }
}

std::string Kinship::Name(uint32_t v) const { return Named('k', v); }

std::string Kinship::Text() const {
  std::string out;
  for (uint32_t v = 0; v < kids_.size(); ++v) {
    if (kids_[v].empty()) continue;
    out += Name(v) + "[kids->>{";
    for (size_t k = 0; k < kids_[v].size(); ++k) {
      if (k > 0) out += ", ";
      out += Name(kids_[v][k]);
    }
    out += "}].\n";
  }
  out += kClosureRules;
  return out;
}

std::string Kinship::Grow(uint32_t n, Rng* rng) {
  std::string out;
  for (uint32_t k = 0; k < n; ++k) {
    // A new kid of a last-layer node: every such node has the same
    // ancestors, so every batch grows the closure by the same amount.
    const uint32_t parent =
        last_layer_[rng->Pick(static_cast<uint32_t>(last_layer_.size()))];
    const uint32_t v = static_cast<uint32_t>(kids_.size());
    kids_.emplace_back();
    kids_[parent].push_back(v);
    out += Name(parent) + "[kids->>{" + Name(v) + "}].\n";
  }
  return out;
}

std::vector<uint32_t> Kinship::Reach(uint32_t from) const {
  std::vector<char> seen(kids_.size(), 0);
  std::vector<uint32_t> stack(kids_[from].begin(), kids_[from].end());
  std::vector<uint32_t> out;
  while (!stack.empty()) {
    const uint32_t v = stack.back();
    stack.pop_back();
    if (seen[v]) continue;
    seen[v] = 1;
    out.push_back(v);
    stack.insert(stack.end(), kids_[v].begin(), kids_[v].end());
  }
  return out;
}

uint64_t Kinship::ClosurePairs() const {
  uint64_t pairs = 0;
  for (uint32_t v = 0; v < kids_.size(); ++v) pairs += Reach(v).size();
  return pairs;
}

QuerySpec Kinship::Draw(const std::string& family, Rng* rng) const {
  QuerySpec q;
  q.family = family;
  const uint32_t n = static_cast<uint32_t>(kids_.size());
  const uint32_t a = rng->Pick(n);
  const uint32_t b = rng->Pick(n);
  if (family == "desc_of") {
    q.text = "?- " + Name(a) + "[desc->>{X}].";
    q.expected = Reach(a).size();
  } else if (family == "tc_ancestors") {
    q.text = "?- X[(kids.tc)->>{" + Name(a) + "}].";
    for (uint32_t u = 0; u < n; ++u) {
      std::vector<uint32_t> r = Reach(u);
      q.expected += std::find(r.begin(), r.end(), a) != r.end();
    }
  } else if (family == "desc_holds") {
    q.kind = OpKind::kHolds;
    q.text = Name(a) + "[desc->>{" + Name(b) + "}]";
    std::vector<uint32_t> r = Reach(a);
    q.expected = std::find(r.begin(), r.end(), b) != r.end();
  }
  return q;
}

}  // namespace pathbench
