#include "eval/serialize.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <variant>

#include "common/check.h"

// gcc 12 emits spurious -Warray-bounds through the inlined realloc path of
// vector<pair<string, Value>>::emplace_back (GCC PR 104475); every
// emplacement here targets a local vector, so the diagnostic is noise.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Warray-bounds"
#endif

namespace jf::eval {

namespace {

using json::Array;
using json::Object;
using json::Value;

[[noreturn]] void schema_error(const std::string& ctx, const std::string& msg) {
  throw std::invalid_argument(ctx + ": " + msg);
}

// Strict object walker: every key must be consumed via get()/require()
// before done(), which rejects leftovers by name.
class ObjectReader {
 public:
  ObjectReader(const Value& v, std::string ctx) : ctx_(std::move(ctx)) {
    if (!v.is_object()) {
      schema_error(ctx_, "expected object, got " +
                             std::string(Value::kind_name(v.kind())));
    }
    obj_ = &v.as_object();
    used_.assign(obj_->size(), false);
  }

  const std::string& ctx() const { return ctx_; }

  const Value* get(std::string_view key) {
    for (std::size_t i = 0; i < obj_->size(); ++i) {
      if ((*obj_)[i].first == key) {
        used_[i] = true;
        return &(*obj_)[i].second;
      }
    }
    return nullptr;
  }

  void done() {
    for (std::size_t i = 0; i < obj_->size(); ++i) {
      if (!used_[i]) schema_error(ctx_, "unknown key '" + (*obj_)[i].first + "'");
    }
  }

  // Typed readers; an absent key keeps the caller's default and returns
  // false. Kind mismatches are rethrown with the field's context path
  // ("scenario.topologies[0].switches: json: expected number, got string").
  bool read(std::string_view key, std::string& out) {
    const Value* v = get(key);
    if (v != nullptr) out = located(key, [&] { return v->as_string(); });
    return v != nullptr;
  }
  bool read(std::string_view key, int& out) {
    const Value* v = get(key);
    if (v == nullptr) return false;
    out = located(key, [&] {
      const std::int64_t x = v->as_int();
      if (x < std::numeric_limits<int>::min() || x > std::numeric_limits<int>::max()) {
        throw std::runtime_error("json: integer " + std::to_string(x) + " out of int range");
      }
      return static_cast<int>(x);
    });
    return true;
  }
  bool read(std::string_view key, double& out) {
    const Value* v = get(key);
    if (v != nullptr) out = located(key, [&] { return v->as_number(); });
    return v != nullptr;
  }
  bool read(std::string_view key, std::int64_t& out) {
    const Value* v = get(key);
    if (v != nullptr) out = located(key, [&] { return v->as_int(); });
    return v != nullptr;
  }

 private:
  template <typename Fn>
  auto located(std::string_view key, Fn&& fn) -> decltype(fn()) {
    try {
      return fn();
    } catch (const std::runtime_error& e) {
      schema_error(ctx_ + "." + std::string(key), e.what());
    }
  }

  std::string ctx_;
  const Object* obj_ = nullptr;
  std::vector<bool> used_;
};

// Runs fn, rethrowing JSON accessor errors with the context path prepended
// (for array/element reads that don't go through ObjectReader::read).
template <typename Fn>
auto with_ctx(const std::string& ctx, Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const std::runtime_error& e) {
    schema_error(ctx, e.what());
  }
}

// --- the scenario-field table ---
//
// Every key of every scenario struct is one Field row: its JSON key, value
// kind and member, plus — for sweepable fields — its place in
// sweep_fields() and its sweep bounds. The rows drive the canonical writer,
// the strict loader, sweep_fields() and apply_sweep_value(). The writer
// emits keys in row order and the result store's cell digests hash those
// bytes, so reordering or renaming a row orphans every stored cell.

using expansion::GrowthSchedule;
using expansion::GrowthStep;
using expansion::InitialBuild;

// What a field accepts. Only kFraction and kEnum are range-checked on load
// (a 0 count in a file means "unused by this family"); swept values are
// checked against every kind.
enum class Kind {
  kCount,     // integer; swept values >= 1
  kInt,       // integer (int or int64 member); swept values >= Sweep::min
  kReal,      // number; swept values >= Sweep::min
  kFraction,  // number in [0, 1]
  kString,
  kEnum,      // one of Field::choices; enum members hold the spelling's index
  kObject,    // nested object or array, through the row's Nested functions
};

struct Choices {
  std::string_view what;  // "unknown <what> '<name>'"
  std::span<const std::string_view> names;
  bool empty_ok = false;  // string members: "" is accepted too
};

template <class S>
struct Nested {
  Value (*write)(const S&);
  void (*read)(S&, const Value&, const std::string& ctx);
};

template <class S>
using Member = std::variant<int S::*, std::int64_t S::*, double S::*, std::string S::*,
                            TrafficSpec::Kind S::*, sim::Transport S::*,
                            layout::PlacementStyle S::*, Nested<S>>;

// Where a swept value lands beyond the row's own struct instances.
enum class Reach {
  kRow,
  kGenerator,  // a growth generator field: refused over explicit steps, which ignore it
  kAllSteps,   // also the same-keyed field of every explicit growth step
};

struct Sweep {
  int order = 0;  // 1-based position in sweep_fields(); 0 = not sweepable
  double min = -std::numeric_limits<double>::infinity();  // kInt/kReal lower bound
  Reach reach = Reach::kRow;
};

template <class S>
struct Field {
  std::string_view key;
  Kind kind;
  Member<S> member;
  Sweep sweep = {};
  const Choices* choices = nullptr;  // kEnum
};

// Schema<S>::rows lists S's fields in canonical order. The sweepable
// structs also name their sweep path prefix and the instances a swept
// value sets (targets() throws when there are none).
template <class S>
struct Schema;

// --- table-driven JSON ---

std::size_t choice_index(const Choices& c, const std::string& name, const std::string& ctx) {
  for (std::size_t i = 0; i < c.names.size(); ++i) {
    if (c.names[i] == name) return i;
  }
  if (c.empty_ok && name.empty()) return c.names.size();
  schema_error(ctx, "unknown " + std::string(c.what) + " '" + name + "'");
}

template <class S>
Value to_json(const S& x) {
  Object o;
  for (const Field<S>& f : Schema<S>::rows) {
    std::visit(
        [&](auto m) {
          if constexpr (std::is_same_v<decltype(m), Nested<S>>) {
            o.emplace_back(f.key, m.write(x));
          } else if constexpr (std::is_enum_v<std::remove_cvref_t<decltype(x.*m)>>) {
            o.emplace_back(f.key, std::string(f.choices->names[static_cast<std::size_t>(x.*m)]));
          } else {
            o.emplace_back(f.key, x.*m);
          }
        },
        f.member);
  }
  return Value(std::move(o));
}

template <class T>
Value to_json(const std::vector<T>& xs) {
  Array out;
  for (const T& x : xs) out.push_back(to_json(x));
  return Value(std::move(out));
}

Value to_json(const std::vector<Metric>& metrics) {
  Array out;
  for (Metric m : metrics) out.emplace_back(std::string(metric_info(m).name));
  return Value(std::move(out));
}

Value to_json(const std::vector<std::uint64_t>& seeds) {
  Array out;
  for (std::uint64_t seed : seeds) out.emplace_back(seed);
  return Value(std::move(out));
}

// Reads every present row of S; the caller runs done().
template <class S>
void read_fields(ObjectReader& r, S& x) {
  for (const Field<S>& f : Schema<S>::rows) {
    const auto field_ctx = [&] { return r.ctx() + "." + std::string(f.key); };
    std::visit(
        [&](auto m) {
          if constexpr (std::is_same_v<decltype(m), Nested<S>>) {
            if (const Value* v = r.get(f.key)) m.read(x, *v, field_ctx());
          } else {
            using V = std::remove_cvref_t<decltype(x.*m)>;
            if constexpr (std::is_enum_v<V>) {
              std::string name;
              if (r.read(f.key, name)) {
                x.*m = static_cast<V>(choice_index(*f.choices, name, field_ctx()));
              }
            } else if (r.read(f.key, x.*m)) {
              if constexpr (std::is_same_v<V, std::string>) {
                if (f.choices != nullptr) choice_index(*f.choices, x.*m, field_ctx());
              } else if (f.kind == Kind::kFraction && (x.*m < 0.0 || x.*m > 1.0)) {
                schema_error(field_ctx(), "must be in [0, 1]");
              }
            }
          }
        },
        f.member);
  }
}

template <class S>
void validate(const S&, const std::string&) {}

// Structural validation (generator consistency, field ranges) happens in
// resolve_growth_steps; run it here so a bad schedule fails at load time
// with the file's context path instead of mid-run.
void validate(const GrowthSchedule& g, const std::string& ctx) {
  try {
    expansion::resolve_growth_steps(g);
  } catch (const std::invalid_argument& e) {
    schema_error(ctx, e.what());
  }
}

template <class S>
void from_json(const Value& v, const std::string& ctx, S& out) {
  ObjectReader r(v, ctx);
  read_fields(r, out);
  r.done();
  validate(out, ctx);
}

template <class T>
void from_json(const Value& v, const std::string& ctx, std::vector<T>& out) {
  const Array& arr = with_ctx(ctx, [&]() -> const Array& { return v.as_array(); });
  out.assign(arr.size(), T{});
  for (std::size_t i = 0; i < arr.size(); ++i) {
    from_json(arr[i], ctx + "[" + std::to_string(i) + "]", out[i]);
  }
}

void from_json(const Value& v, const std::string& ctx, std::vector<Metric>& out) {
  out.clear();
  with_ctx(ctx, [&] {
    for (const auto& m : v.as_array()) {
      try {
        out.push_back(metric_from_name(m.as_string()));
      } catch (const std::invalid_argument& e) {
        throw std::runtime_error(e.what());
      }
    }
  });
  if (out.empty()) schema_error(ctx, "must be non-empty");
}

void from_json(const Value& v, const std::string& ctx, std::vector<std::uint64_t>& out) {
  out.clear();
  with_ctx(ctx, [&] {
    for (const auto& seed : v.as_array()) out.push_back(seed.as_uint());
  });
  if (out.empty()) schema_error(ctx, "must be non-empty");
}

// The Nested row for member M (an object, or an array of them).
template <class S, class T>
S struct_of(T S::*);
template <auto M>
constexpr auto nested() {
  using S = decltype(struct_of(M));
  return Nested<S>{[](const S& s) { return to_json(s.*M); },
                   [](S& s, const Value& v, const std::string& ctx) { from_json(v, ctx, s.*M); }};
}

template <class T>
std::vector<T*> all_of(std::vector<T>& xs) {
  std::vector<T*> out;
  for (T& x : xs) out.push_back(&x);
  return out;
}

constexpr std::string_view kTrafficKindNames[] = {"permutation", "all_to_all", "hotspot"};
constexpr Choices kTrafficKinds{"traffic kind", kTrafficKindNames};
constexpr std::string_view kTransportNames[] = {"tcp", "mptcp"};
constexpr Choices kTransports{"transport", kTransportNames};
constexpr std::string_view kPlacementNames[] = {"tor-in-rack", "switch-cluster"};
constexpr Choices kPlacements{"cabling placement", kPlacementNames};
constexpr std::string_view kPolicyNames[] = {"jellyfish", "clos"};
constexpr Choices kPolicies{"growth policy", kPolicyNames};
// A topology row's policy override; empty keeps the schedule's policy.
constexpr Choices kPolicyOverrides{"growth policy", kPolicyNames, /*empty_ok=*/true};

template <>
struct Schema<TopologySpec> {
  using T = TopologySpec;
  static constexpr std::string_view prefix = "topology";
  static constexpr Field<T> rows[] = {
      {"family", Kind::kString, &T::family},
      {"label", Kind::kString, &T::label},
      {"switches", Kind::kCount, &T::switches, {1}},
      {"ports", Kind::kCount, &T::ports, {2}},
      {"servers", Kind::kCount, &T::servers, {3}},
      {"fattree_k", Kind::kCount, &T::fattree_k, {4}},
      {"degree", Kind::kCount, &T::degree, {5}},
      {"servers_per_switch", Kind::kCount, &T::servers_per_switch, {6}},
      {"containers", Kind::kCount, &T::containers, {7}},
      {"switches_per_container", Kind::kCount, &T::switches_per_container, {8}},
      {"network_degree", Kind::kCount, &T::network_degree, {9}},
      {"local_fraction", Kind::kReal, &T::local_fraction, {10}},
      {"grow_from", Kind::kCount, &T::grow_from, {11}},
      {"grow_step", Kind::kCount, &T::grow_step, {12}},
      {"fail_links", Kind::kFraction, &T::fail_links, {13}},
      {"growth_policy", Kind::kEnum, &T::growth_policy, {}, &kPolicyOverrides},
  };
  static std::vector<T*> targets(Scenario& s, const AxisEntry& e) {
    std::vector<T*> out;
    for (T& t : s.topologies) {
      if (topology_matches(t, e.only)) out.push_back(&t);
    }
    check(!out.empty(),
          "sweep field '" + e.field + "': filter '" + e.only + "' matches no topology");
    return out;
  }
};

template <>
struct Schema<routing::RoutingSpec> {
  using T = routing::RoutingSpec;
  static constexpr std::string_view prefix = "routing";
  static constexpr Field<T> rows[] = {
      {"scheme", Kind::kString, &T::scheme},
      {"width", Kind::kCount, &T::width, {14}},
  };
  static std::vector<T*> targets(Scenario& s, const AxisEntry& e) {
    check(!s.routings.empty(), "sweep field '" + e.field + "': scenario has no routings");
    return all_of(s.routings);
  }
};

template <>
struct Schema<TrafficSpec> {
  using T = TrafficSpec;
  static constexpr std::string_view prefix = "traffic";
  static constexpr Field<T> rows[] = {
      {"kind", Kind::kEnum, &T::kind, {}, &kTrafficKinds},
      {"demand", Kind::kReal, &T::demand, {15}},
      {"num_hot", Kind::kCount, &T::num_hot, {16}},
      {"fan_in", Kind::kCount, &T::fan_in, {17}},
  };
  static std::vector<T*> targets(Scenario& s, const AxisEntry&) { return {&s.traffic}; }
};

template <>
struct Schema<flow::McfOptions> {
  using T = flow::McfOptions;
  static constexpr Field<T> rows[] = {
      {"epsilon", Kind::kReal, &T::epsilon},
      {"max_phases", Kind::kInt, &T::max_phases},
      {"convergence_tol", Kind::kReal, &T::convergence_tol},
      {"convergence_window", Kind::kInt, &T::convergence_window},
      {"decide_threshold", Kind::kReal, &T::decide_threshold},
      {"link_capacity", Kind::kReal, &T::link_capacity},
  };
};

template <>
struct Schema<sim::SimConfig> {
  using T = sim::SimConfig;
  static constexpr Field<T> rows[] = {
      {"link_rate_bps", Kind::kReal, &T::link_rate_bps},
      {"link_delay_ns", Kind::kInt, &T::link_delay_ns},
      {"queue_capacity_pkts", Kind::kInt, &T::queue_capacity_pkts},
      {"payload_bytes", Kind::kInt, &T::payload_bytes},
      {"ack_bytes", Kind::kInt, &T::ack_bytes},
      {"initial_cwnd_pkts", Kind::kReal, &T::initial_cwnd_pkts},
      {"min_rto_ns", Kind::kInt, &T::min_rto_ns},
      {"initial_rto_ns", Kind::kInt, &T::initial_rto_ns},
      {"max_rto_ns", Kind::kInt, &T::max_rto_ns},
      {"loss_feedback_floor_ns", Kind::kInt, &T::loss_feedback_floor_ns},
  };
};

// WorkloadConfig::routing has no row: the engine routes each cell through
// its RoutingSpec's provider and ignores that field.
template <>
struct Schema<sim::WorkloadConfig> {
  using T = sim::WorkloadConfig;
  static constexpr std::string_view prefix = "sim";
  static constexpr Field<T> rows[] = {
      {"transport", Kind::kEnum, &T::transport, {}, &kTransports},
      {"parallel_connections", Kind::kCount, &T::parallel_connections, {19}},
      {"subflows", Kind::kCount, &T::subflows, {20}},
      {"shards", Kind::kCount, &T::shards, {21}},
      {"warmup_ns", Kind::kInt, &T::warmup_ns},
      {"measure_ns", Kind::kInt, &T::measure_ns},
      {"start_jitter_ns", Kind::kInt, &T::start_jitter_ns},
      {"flow_size_bytes", Kind::kInt, &T::flow_size_bytes},
      {"telemetry_epoch_ns", Kind::kInt, &T::telemetry_epoch_ns},
      {"net", Kind::kObject, nested<&T::sim>()},
  };
  static std::vector<T*> targets(Scenario& s, const AxisEntry&) { return {&s.sim}; }
};

template <>
struct Schema<flow::CapacitySearchOptions> {
  using T = flow::CapacitySearchOptions;
  static constexpr Field<T> rows[] = {
      {"matrices_per_check", Kind::kInt, &T::matrices_per_check},
      {"threshold", Kind::kReal, &T::threshold},
      {"verify_matrices", Kind::kInt, &T::verify_matrices},
  };
};

template <>
struct Schema<InitialBuild> {
  using T = InitialBuild;
  static constexpr Field<T> rows[] = {
      {"switches", Kind::kInt, &T::switches},
      {"ports", Kind::kInt, &T::ports_per_switch},
      {"servers", Kind::kInt, &T::servers},
  };
};

template <>
struct Schema<GrowthStep> {
  using T = GrowthStep;
  static constexpr std::string_view prefix = "growth";
  static constexpr Field<T> rows[] = {
      {"add_switches", Kind::kInt, &T::add_switches},
      {"min_servers", Kind::kInt, &T::min_servers},
      {"budget", Kind::kReal, &T::budget, {.order = 25, .min = 0.0}},
      {"rewire_limit", Kind::kInt, &T::rewire_limit},
  };
  static std::vector<T*> targets(Scenario& s, const AxisEntry& e) {
    check(!s.growth.steps.empty(),
          "sweep field '" + e.field + "': schedule has no explicit steps");
    return all_of(s.growth.steps);
  }
};

template <>
struct Schema<GrowthSchedule> {
  using T = GrowthSchedule;
  static constexpr std::string_view prefix = "growth";
  static constexpr Field<T> rows[] = {
      {"policy", Kind::kEnum, &T::policy, {}, &kPolicies},
      {"initial", Kind::kObject, nested<&T::initial>()},
      {"network_degree", Kind::kInt, &T::network_degree},
      {"steps", Kind::kObject, nested<&T::steps>()},
      {"target_switches", Kind::kCount, &T::target_switches,
       {.order = 23, .reach = Reach::kGenerator}},
      {"step_switches", Kind::kCount, &T::step_switches,
       {.order = 22, .reach = Reach::kGenerator}},
      // -1 means "no cap", so this is the one integer sweep field that may
      // go below 1.
      {"rewire_limit", Kind::kInt, &T::rewire_limit,
       {.order = 24, .min = -1.0, .reach = Reach::kAllSteps}},
  };
  static std::vector<T*> targets(Scenario& s, const AxisEntry&) { return {&s.growth}; }
};

template <>
struct Schema<Scenario> {
  using T = Scenario;
  static constexpr std::string_view prefix = "";
  static constexpr Field<T> rows[] = {
      {"name", Kind::kString, &T::name},
      {"topologies", Kind::kObject, nested<&T::topologies>()},
      {"routings", Kind::kObject, nested<&T::routings>()},
      {"traffic", Kind::kObject, nested<&T::traffic>()},
      {"metrics", Kind::kObject, nested<&T::metrics>()},
      {"seeds", Kind::kObject, nested<&T::seeds>()},
      {"samples_per_seed", Kind::kCount, &T::samples_per_seed, {18}},
      {"mcf", Kind::kObject, nested<&T::mcf>()},
      {"sim", Kind::kObject, nested<&T::sim>()},
      {"capacity", Kind::kObject, nested<&T::capacity>()},
      {"growth", Kind::kObject, nested<&T::growth>()},
      {"cabling_placement", Kind::kEnum, &T::cabling_placement, {}, &kPlacements},
  };
  static std::vector<T*> targets(Scenario& s, const AxisEntry&) { return {&s}; }
};

// The structs with sweepable rows.
template <class... S>
struct Sections {};
using SweepSections = Sections<TopologySpec, routing::RoutingSpec, TrafficSpec, Scenario,
                               sim::WorkloadConfig, GrowthSchedule, GrowthStep>;

// --- table-driven sweeps ---

template <class S>
std::string sweep_path(const Field<S>& f) {
  if (Schema<S>::prefix.empty()) return std::string(f.key);
  return std::string(Schema<S>::prefix) + "." + std::string(f.key);
}

template <class S>
const Field<S>& field_named(std::string_view key) {
  for (const Field<S>& f : Schema<S>::rows) {
    if (f.key == key) return f;
  }
  ensure(false, "no field '" + std::string(key) + "'");
  return Schema<S>::rows[0];
}

// Rejects a swept value outside the row's kind and bounds.
void check_sweep_value(const std::string& field, Kind kind, double min, double v) {
  const std::string needs = "sweep field '" + field + "' needs ";
  if (kind == Kind::kCount || kind == Kind::kInt) {
    check(v == std::floor(v) && std::abs(v) < 2e9, needs + "an integer value");
  }
  if (kind == Kind::kCount) {
    check(v >= 1.0, needs + "a positive value, got " + json::number_to_string(v));
  } else if (kind == Kind::kFraction) {
    check(v >= 0.0 && v <= 1.0, needs + "a value in [0, 1], got " + json::number_to_string(v));
  } else if (v < min) {
    check(false, needs + "a value >= " + json::number_to_string(min));
  }
}

template <class S>
void set_number(S& x, const Field<S>& f, double v) {
  std::visit(
      [&](auto m) {
        if constexpr (!std::is_same_v<decltype(m), Nested<S>>) {
          using V = std::remove_cvref_t<decltype(x.*m)>;
          if constexpr (std::is_arithmetic_v<V>) x.*m = static_cast<V>(v);
        }
      },
      f.member);
}

// Applies the entry if S has its row; false when it does not.
template <class S>
bool apply_rows(Scenario& s, const AxisEntry& e, double v) {
  for (const Field<S>& f : Schema<S>::rows) {
    if (f.sweep.order == 0 || sweep_path(f) != e.field) continue;
    check(e.only.empty() || std::is_same_v<S, TopologySpec>,
          "sweep field '" + e.field + "': 'only' applies to topology.* fields");
    check(f.sweep.reach != Reach::kGenerator || s.growth.steps.empty(),
          "sweep field '" + e.field + "': schedule has explicit steps (sweep "
          "growth.budget or growth.rewire_limit instead)");
    const std::vector<S*> targets = Schema<S>::targets(s, e);
    check_sweep_value(e.field, f.kind, f.sweep.min, v);
    for (S* x : targets) set_number(*x, f, v);
    if (f.sweep.reach == Reach::kAllSteps) {
      const Field<GrowthStep>& step_field = field_named<GrowthStep>(f.key);
      for (GrowthStep& step : s.growth.steps) set_number(step, step_field, v);
    }
    return true;
  }
  return false;
}

template <class... S>
bool apply_sweep(Sections<S...>, Scenario& s, const AxisEntry& e, double v) {
  return (apply_rows<S>(s, e, v) || ...);
}

template <class... S>
std::vector<std::pair<int, std::string>> sweep_rows(Sections<S...>) {
  std::vector<std::pair<int, std::string>> out;
  (
      [&] {
        for (const Field<S>& f : Schema<S>::rows) {
          if (f.sweep.order > 0) out.emplace_back(f.sweep.order, sweep_path(f));
        }
      }(),
      ...);
  return out;
}

// --- sweep axes ---

AxisEntry axis_entry_from_json(const Value& v, const std::string& ctx) {
  ObjectReader r(v, ctx);
  AxisEntry entry;
  r.read("field", entry.field);
  if (entry.field.empty()) schema_error(ctx, "missing required key 'field'");
  {
    bool known = false;
    for (const auto& f : sweep_fields()) known = known || f == entry.field;
    if (!known) schema_error(ctx, "unknown sweep field '" + entry.field + "'");
  }
  r.read("only", entry.only);

  const Value* values = r.get("values");
  const Value* from = r.get("from");
  const Value* to = r.get("to");
  const Value* step = r.get("step");
  if (values != nullptr) {
    if (from || to || step) {
      schema_error(ctx, "'values' and 'from'/'to'/'step' are mutually exclusive");
    }
    with_ctx(ctx + ".values", [&] {
      for (const auto& x : values->as_array()) entry.values.push_back(x.as_number());
    });
    if (entry.values.empty()) schema_error(ctx, "'values' must be non-empty");
  } else {
    if (!from || !to || !step) {
      schema_error(ctx, "need either 'values' or all of 'from'/'to'/'step'");
    }
    const double lo = with_ctx(ctx + ".from", [&] { return from->as_number(); });
    const double hi = with_ctx(ctx + ".to", [&] { return to->as_number(); });
    const double by = with_ctx(ctx + ".step", [&] { return step->as_number(); });
    if (by == 0.0) schema_error(ctx, "bad range: step must be non-zero");
    if ((hi - lo) * by < 0.0) {
      schema_error(ctx, "bad range: step moves away from 'to'");
    }
    // Inclusive expansion; the epsilon absorbs float drift on e.g. 0.1
    // steps. The cap is enforced on the double — casting an out-of-range
    // double to integer is UB.
    const double raw_count = std::floor((hi - lo) / by + 1e-9) + 1;
    if (raw_count > 1'000'000) schema_error(ctx, "bad range: more than 1e6 points");
    const long long count = static_cast<long long>(raw_count);
    for (long long i = 0; i < count; ++i) {
      entry.values.push_back(lo + static_cast<double>(i) * by);
    }
  }
  r.done();
  return entry;
}

SweepAxis axis_from_json(const Value& v, const std::string& ctx) {
  SweepAxis axis;
  if (v.is_object() && v.find("entries") != nullptr) {
    ObjectReader r(v, ctx);
    const Value* entries = r.get("entries");
    r.done();
    const Array& arr = with_ctx(ctx + ".entries",
                                [&]() -> const Array& { return entries->as_array(); });
    if (arr.empty()) schema_error(ctx, "'entries' must be non-empty");
    for (std::size_t i = 0; i < arr.size(); ++i) {
      axis.entries.push_back(
          axis_entry_from_json(arr[i], ctx + ".entries[" + std::to_string(i) + "]"));
    }
  } else {
    axis.entries.push_back(axis_entry_from_json(v, ctx));
  }
  const std::size_t n = axis.entries.front().values.size();
  for (const auto& e : axis.entries) {
    if (e.values.size() != n) {
      schema_error(ctx, "zipped entries disagree on length: '" + e.field + "' has " +
                            std::to_string(e.values.size()) + " values, expected " +
                            std::to_string(n));
    }
  }
  return axis;
}

Value axis_to_json(const SweepAxis& axis) {
  Array entries;
  for (const auto& e : axis.entries) {
    Object o;
    o.emplace_back("field", e.field);
    if (!e.only.empty()) o.emplace_back("only", e.only);
    Array values;
    for (double v : e.values) values.emplace_back(v);
    o.emplace_back("values", Value(std::move(values)));
    entries.emplace_back(Value(std::move(o)));
  }
  Object axis_obj;
  axis_obj.emplace_back("entries", Value(std::move(entries)));
  return Value(std::move(axis_obj));
}

// Shared scenario-body loader; `sweep_out` non-null permits a "sweep" key.
Scenario scenario_from_json_impl(const Value& v, std::vector<SweepAxis>* sweep_out) {
  const std::string ctx = "scenario";
  ObjectReader r(v, ctx);
  Scenario s;
  read_fields(r, s);
  // A topology row's growth_policy swaps the planner for that row, so the
  // schedule must be structurally valid under the override too — catch the
  // combination here (with the row's context path) rather than mid-batch.
  for (std::size_t i = 0; i < s.topologies.size(); ++i) {
    if (s.topologies[i].growth_policy.empty()) continue;
    expansion::GrowthSchedule overridden = s.growth;
    overridden.policy = s.topologies[i].growth_policy;
    try {
      expansion::resolve_growth_steps(overridden);
    } catch (const std::invalid_argument& e) {
      schema_error(ctx + ".topologies[" + std::to_string(i) + "].growth_policy", e.what());
    }
  }
  if (sweep_out != nullptr) {
    if (const Value* sweep = r.get("sweep")) {
      const Array& arr = with_ctx(ctx + ".sweep",
                                  [&]() -> const Array& { return sweep->as_array(); });
      for (std::size_t i = 0; i < arr.size(); ++i) {
        sweep_out->push_back(
            axis_from_json(arr[i], ctx + ".sweep[" + std::to_string(i) + "]"));
      }
    }
  }
  r.done();
  return s;
}

Value scenario_to_json_impl(const Scenario& s, const std::vector<SweepAxis>* axes) {
  Value out = to_json(s);
  if (axes != nullptr && !axes->empty()) {
    Array sweep;
    for (const auto& axis : *axes) sweep.push_back(axis_to_json(axis));
    out.as_object().emplace_back("sweep", Value(std::move(sweep)));
  }
  return out;
}

// Reads a report object found at context path `ctx`.
Report report_from_json_at(const Value& v, const std::string& ctx) {
  ObjectReader r(v, ctx);
  Report out;
  // Absent = a pre-versioning file; those predate every format change, so
  // they are accepted. Any explicit mismatch is a hard error: the sample
  // semantics may have shifted under the same shape.
  int schema_version = kReportSchemaVersion;
  r.read("schema_version", schema_version);
  if (schema_version != kReportSchemaVersion) {
    schema_error(ctx + ".schema_version",
                 "unsupported schema_version " + std::to_string(schema_version) +
                     " (this build reads version " +
                     std::to_string(kReportSchemaVersion) + ")");
  }
  r.read("scenario", out.scenario);
  auto labels = [&](const char* key, std::vector<std::string>& dest) {
    if (const Value* arr = r.get(key)) {
      with_ctx(ctx + "." + key, [&] {
        for (const auto& label : arr->as_array()) dest.push_back(label.as_string());
      });
    }
  };
  labels("topologies", out.topology_labels);
  labels("routings", out.routing_labels);
  if (const Value* samples = r.get("samples")) {
    out.samples = with_ctx(ctx + ".samples", [&] { return samples_from_json(*samples); });
  }
  r.get("aggregates");  // derived from samples; accepted and ignored
  r.done();
  return out;
}

}  // namespace

const std::vector<std::string>& sweep_fields() {
  static const std::vector<std::string> fields = [] {
    auto rows = sweep_rows(SweepSections{});
    std::sort(rows.begin(), rows.end());
    std::vector<std::string> out;
    for (auto& [order, path] : rows) out.push_back(std::move(path));
    return out;
  }();
  return fields;
}

void apply_sweep_value(Scenario& s, const AxisEntry& entry, double value) {
  check(apply_sweep(SweepSections{}, s, entry, value),
        "unknown sweep field '" + entry.field + "'");
}

Value scenario_to_json(const Scenario& s) { return scenario_to_json_impl(s, nullptr); }

Scenario scenario_from_json(const Value& v) {
  return scenario_from_json_impl(v, nullptr);
}

Value sweep_to_json(const SweepSpec& spec) {
  return scenario_to_json_impl(spec.base, &spec.axes);
}

SweepSpec sweep_from_json(const Value& v) {
  SweepSpec spec;
  spec.base = scenario_from_json_impl(v, &spec.axes);
  return spec;
}

SweepSpec load_sweep_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read scenario file '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return sweep_from_json(Value::parse(buf.str()));
}

Value samples_to_json(const std::vector<Sample>& samples) {
  Array out;
  for (const auto& s : samples) {
    Array row;
    row.emplace_back(s.topology);
    row.emplace_back(s.routing);
    row.emplace_back(s.seed);
    row.emplace_back(s.sample);
    row.emplace_back(s.metric);
    row.emplace_back(s.value);
    out.emplace_back(Value(std::move(row)));
  }
  return Value(std::move(out));
}

std::vector<Sample> samples_from_json(const Value& v) {
  std::vector<Sample> out;
  for (const auto& row_v : v.as_array()) {
    const Array& row = row_v.as_array();
    if (row.size() != 6) throw std::runtime_error("json: sample rows have 6 entries");
    Sample s;
    s.topology = static_cast<int>(row[0].as_int());
    s.routing = static_cast<int>(row[1].as_int());
    s.seed = row[2].as_uint();
    s.sample = static_cast<int>(row[3].as_int());
    s.metric = row[4].as_string();
    s.value = row[5].as_number();
    out.push_back(std::move(s));
  }
  return out;
}

Value report_to_json(const Report& r) {
  Object o;
  o.emplace_back("schema_version", kReportSchemaVersion);
  o.emplace_back("scenario", r.scenario);
  Array topos;
  for (const auto& label : r.topology_labels) topos.emplace_back(label);
  o.emplace_back("topologies", Value(std::move(topos)));
  Array routings;
  for (const auto& label : r.routing_labels) routings.emplace_back(label);
  o.emplace_back("routings", Value(std::move(routings)));
  o.emplace_back("samples", samples_to_json(r.samples));
  Array aggregates;
  for (const auto& row : r.aggregates()) {
    Object a;
    a.emplace_back("topology", row.topology);
    a.emplace_back("routing", row.routing);
    a.emplace_back("metric", row.metric);
    a.emplace_back("mean", row.summary.mean);
    a.emplace_back("stddev", row.summary.stddev);
    a.emplace_back("min", row.summary.min);
    a.emplace_back("max", row.summary.max);
    a.emplace_back("n", row.summary.count);
    aggregates.emplace_back(Value(std::move(a)));
  }
  o.emplace_back("aggregates", Value(std::move(aggregates)));
  return Value(std::move(o));
}

Report report_from_json(const Value& v) { return report_from_json_at(v, "report"); }

Value sweep_report_to_json(const SweepReport& r) {
  Object o;
  o.emplace_back("name", r.name);
  Array points;
  for (const auto& p : r.points) {
    Object po;
    po.emplace_back("label", p.label);
    Array coords;
    for (const auto& [field, value] : p.coords) {
      Object c;
      c.emplace_back("field", field);
      c.emplace_back("value", value);
      coords.emplace_back(Value(std::move(c)));
    }
    po.emplace_back("coords", Value(std::move(coords)));
    po.emplace_back("report", report_to_json(p.report));
    points.emplace_back(Value(std::move(po)));
  }
  o.emplace_back("points", Value(std::move(points)));
  return Value(std::move(o));
}

namespace {

Value telemetry_cell_to_json(const CellTelemetry& c) {
  Object o;
  o.emplace_back("topology", c.topology);
  o.emplace_back("routing", c.routing);
  o.emplace_back("seed", c.seed);
  o.emplace_back("sample", c.sample);
  o.emplace_back("epoch_ns", c.data.epoch_ns);
  o.emplace_back("t_end_ns", c.data.t_end_ns);
  Array flows;
  for (const auto& f : c.data.flows) {
    Array row;
    row.emplace_back(f.src_server);
    row.emplace_back(f.dst_server);
    row.emplace_back(f.start_ns);
    row.emplace_back(f.finish_ns);
    row.emplace_back(f.completed ? 1 : 0);
    row.emplace_back(f.bytes_acked);
    row.emplace_back(f.packets_sent);
    row.emplace_back(f.retransmits);
    row.emplace_back(f.timeouts);
    row.emplace_back(f.path_drops);
    row.emplace_back(f.hop_count);
    flows.emplace_back(Value(std::move(row)));
  }
  o.emplace_back("flows", Value(std::move(flows)));
  Array links;
  for (const auto& l : c.data.links) {
    Object lo;
    lo.emplace_back("rate_bps", l.rate_bps);
    Array epochs;
    for (const auto& e : l.epochs) {
      Array row;
      row.emplace_back(e.tx_packets);
      row.emplace_back(e.tx_bytes);
      row.emplace_back(e.drops);
      row.emplace_back(e.utilization);
      for (std::int64_t h : e.queue_hist) row.emplace_back(h);
      epochs.emplace_back(Value(std::move(row)));
    }
    lo.emplace_back("epochs", Value(std::move(epochs)));
    links.emplace_back(Value(std::move(lo)));
  }
  o.emplace_back("links", Value(std::move(links)));
  return Value(std::move(o));
}

CellTelemetry telemetry_cell_from_json(const Value& v, const std::string& ctx) {
  ObjectReader r(v, ctx);
  CellTelemetry c;
  r.read("topology", c.topology);
  r.read("routing", c.routing);
  if (const Value* s = r.get("seed")) {
    c.seed = with_ctx(ctx + ".seed", [&] { return s->as_uint(); });
  }
  r.read("sample", c.sample);
  r.read("epoch_ns", c.data.epoch_ns);
  r.read("t_end_ns", c.data.t_end_ns);
  if (const Value* flows = r.get("flows")) {
    c.data.flows = with_ctx(ctx + ".flows", [&] {
      std::vector<sim::FlowRecord> out;
      for (const auto& row_v : flows->as_array()) {
        const Array& row = row_v.as_array();
        if (row.size() != 11) throw std::runtime_error("json: flow rows have 11 entries");
        sim::FlowRecord f;
        f.src_server = static_cast<int>(row[0].as_int());
        f.dst_server = static_cast<int>(row[1].as_int());
        f.start_ns = row[2].as_int();
        f.finish_ns = row[3].as_int();
        f.completed = row[4].as_int() != 0;
        f.bytes_acked = row[5].as_int();
        f.packets_sent = row[6].as_int();
        f.retransmits = row[7].as_int();
        f.timeouts = row[8].as_int();
        f.path_drops = row[9].as_int();
        f.hop_count = static_cast<int>(row[10].as_int());
        out.push_back(f);
      }
      return out;
    });
  }
  if (const Value* links = r.get("links")) {
    const Array& arr =
        with_ctx(ctx + ".links", [&]() -> const Array& { return links->as_array(); });
    for (std::size_t i = 0; i < arr.size(); ++i) {
      const std::string lctx = ctx + ".links[" + std::to_string(i) + "]";
      ObjectReader lr(arr[i], lctx);
      sim::LinkSeries series;
      lr.read("rate_bps", series.rate_bps);
      if (const Value* epochs = lr.get("epochs")) {
        series.epochs = with_ctx(lctx + ".epochs", [&] {
          std::vector<sim::LinkEpoch> out;
          for (const auto& row_v : epochs->as_array()) {
            const Array& row = row_v.as_array();
            if (row.size() != 4 + sim::kQueueDepthBuckets) {
              throw std::runtime_error("json: epoch rows have " +
                                       std::to_string(4 + sim::kQueueDepthBuckets) +
                                       " entries");
            }
            sim::LinkEpoch e;
            e.tx_packets = row[0].as_int();
            e.tx_bytes = row[1].as_int();
            e.drops = row[2].as_int();
            e.utilization = row[3].as_number();
            for (int b = 0; b < sim::kQueueDepthBuckets; ++b) {
              e.queue_hist[static_cast<std::size_t>(b)] =
                  row[static_cast<std::size_t>(4 + b)].as_int();
            }
            out.push_back(e);
          }
          return out;
        });
      }
      lr.done();
      c.data.links.push_back(std::move(series));
    }
  }
  r.done();
  return c;
}

}  // namespace

Value telemetry_dump_to_json(const TelemetryDump& d) {
  Object o;
  o.emplace_back("schema_version", kTelemetrySchemaVersion);
  o.emplace_back("name", d.name);
  Array points;
  for (const auto& p : d.points) {
    Object po;
    po.emplace_back("label", p.label);
    Array cells;
    for (const auto& c : p.cells.cells) cells.emplace_back(telemetry_cell_to_json(c));
    po.emplace_back("cells", Value(std::move(cells)));
    points.emplace_back(Value(std::move(po)));
  }
  o.emplace_back("points", Value(std::move(points)));
  return Value(std::move(o));
}

TelemetryDump telemetry_dump_from_json(const Value& v) {
  const std::string ctx = "telemetry";
  ObjectReader r(v, ctx);
  TelemetryDump out;
  int schema_version = kTelemetrySchemaVersion;
  r.read("schema_version", schema_version);
  if (schema_version != kTelemetrySchemaVersion) {
    schema_error(ctx + ".schema_version",
                 "unsupported schema_version " + std::to_string(schema_version) +
                     " (this build reads version " +
                     std::to_string(kTelemetrySchemaVersion) + ")");
  }
  r.read("name", out.name);
  if (const Value* points = r.get("points")) {
    const Array& arr =
        with_ctx(ctx + ".points", [&]() -> const Array& { return points->as_array(); });
    for (std::size_t i = 0; i < arr.size(); ++i) {
      const std::string pctx = ctx + ".points[" + std::to_string(i) + "]";
      ObjectReader pr(arr[i], pctx);
      TelemetryPoint p;
      pr.read("label", p.label);
      if (const Value* cells = pr.get("cells")) {
        const Array& carr =
            with_ctx(pctx + ".cells", [&]() -> const Array& { return cells->as_array(); });
        for (std::size_t j = 0; j < carr.size(); ++j) {
          p.cells.cells.push_back(telemetry_cell_from_json(
              carr[j], pctx + ".cells[" + std::to_string(j) + "]"));
        }
      }
      pr.done();
      out.points.push_back(std::move(p));
    }
  }
  r.done();
  return out;
}

SweepReport sweep_report_from_json(const Value& v) {
  const std::string ctx = "sweep_report";
  ObjectReader r(v, ctx);
  SweepReport out;
  r.read("name", out.name);
  if (const Value* points = r.get("points")) {
    const Array& arr =
        with_ctx(ctx + ".points", [&]() -> const Array& { return points->as_array(); });
    for (std::size_t i = 0; i < arr.size(); ++i) {
      const std::string pctx = ctx + ".points[" + std::to_string(i) + "]";
      ObjectReader pr(arr[i], pctx);
      SweepPointResult p;
      pr.read("label", p.label);
      if (const Value* coords = pr.get("coords")) {
        const Array& carr =
            with_ctx(pctx + ".coords", [&]() -> const Array& { return coords->as_array(); });
        for (std::size_t j = 0; j < carr.size(); ++j) {
          ObjectReader cr(carr[j], pctx + ".coords[" + std::to_string(j) + "]");
          std::string field;
          double value = 0.0;
          cr.read("field", field);
          cr.read("value", value);
          cr.done();
          p.coords.emplace_back(std::move(field), value);
        }
      }
      if (const Value* report = pr.get("report")) {
        p.report = report_from_json_at(*report, pctx + ".report");
      }
      pr.done();
      out.points.push_back(std::move(p));
    }
  }
  r.done();
  return out;
}

}  // namespace jf::eval
