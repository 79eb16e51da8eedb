#include "common/failpoint.h"

#include <charconv>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "common/metrics.h"
#include "common/string_util.h"

namespace xia {
namespace fp {

namespace detail {
std::atomic<int> g_armed_count{0};
}  // namespace detail

namespace {

/// One armed failpoint. The obs::Counter carries the registry name, so
/// trips land in snapshots and survive disarm via retained totals.
struct Armed {
  explicit Armed(const std::string& name)
      : trips("failpoint." + name + ".trips") {}
  FailSpec spec;
  int64_t hits = 0;   // Matching hits (for every_nth).
  int64_t tripped = 0;  // Trips so far (for max_trips).
  obs::Counter trips;
};

struct Registry {
  std::mutex mu;
  std::map<std::string, std::unique_ptr<Armed>> armed;
};

Registry& GetRegistry() {
  static Registry* r = new Registry();  // Leaked: callers may trip late.
  return *r;
}

std::optional<StatusCode> ParseStatusCodeName(const std::string& name) {
  constexpr StatusCode kCodes[] = {
      StatusCode::kInvalidArgument, StatusCode::kNotFound,
      StatusCode::kAlreadyExists,   StatusCode::kOutOfRange,
      StatusCode::kParseError,      StatusCode::kInternal,
      StatusCode::kUnimplemented,   StatusCode::kResourceExhausted,
      StatusCode::kCancelled,
  };
  for (StatusCode code : kCodes) {
    if (name == StatusCodeName(code)) return code;
  }
  return std::nullopt;
}

}  // namespace

namespace detail {

Status Hit(const char* name, int64_t arg) {
  int latency_ms = 0;
  Status verdict;
  {
    Registry& registry = GetRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    auto it = registry.armed.find(name);
    if (it == registry.armed.end()) return Status::Ok();
    Armed& armed = *it->second;
    const FailSpec& spec = armed.spec;
    if (spec.match_arg >= 0 && arg != spec.match_arg) return Status::Ok();
    ++armed.hits;
    if (spec.every_nth > 1 && (armed.hits % spec.every_nth) != 0) {
      return Status::Ok();
    }
    if (spec.max_trips >= 0 && armed.tripped >= spec.max_trips) {
      return Status::Ok();
    }
    ++armed.tripped;
    armed.trips.Increment();
    latency_ms = spec.latency_ms;
    if (spec.code != StatusCode::kOk) {
      verdict = Status(spec.code, spec.message.empty()
                                      ? "failpoint " + std::string(name)
                                      : spec.message);
    }
  }
  if (latency_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(latency_ms));
  }
  return verdict;
}

}  // namespace detail

void Arm(const std::string& name, FailSpec spec) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  auto it = registry.armed.find(name);
  if (it == registry.armed.end()) {
    it = registry.armed.emplace(name, std::make_unique<Armed>(name)).first;
    detail::g_armed_count.fetch_add(1, std::memory_order_relaxed);
  } else {
    it->second->hits = 0;  // Re-arm restarts nth/quota counting.
    it->second->tripped = 0;
  }
  it->second->spec = std::move(spec);
}

bool Disarm(const std::string& name) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  if (registry.armed.erase(name) == 0) return false;
  detail::g_armed_count.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

void DisarmAll() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  detail::g_armed_count.fetch_sub(static_cast<int>(registry.armed.size()),
                                  std::memory_order_relaxed);
  registry.armed.clear();
}

std::vector<std::string> ArmedNames() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  std::vector<std::string> names;
  for (const auto& [name, armed] : registry.armed) names.push_back(name);
  return names;
}

uint64_t Trips(const std::string& name) {
  // Live + retired instances both contribute to the registry snapshot,
  // so trips stay queryable after Disarm().
  return obs::Registry().TakeSnapshot().counter("failpoint." + name +
                                                ".trips");
}

Status ArmFromSpec(const std::string& spec_text) {
  size_t eq = spec_text.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= spec_text.size()) {
    return Status::InvalidArgument("failpoint spec must be '<name>=<mode>': " +
                                   spec_text);
  }
  std::string name(Trim(spec_text.substr(0, eq)));
  FailSpec spec;
  bool wants_error = false;
  bool wants_sleep = false;
  for (const std::string& mode : Split(spec_text.substr(eq + 1), ',')) {
    std::string key = mode;
    std::string value;
    size_t colon = mode.find(':');
    if (colon != std::string::npos) {
      key = mode.substr(0, colon);
      value = mode.substr(colon + 1);
    }
    auto int_value = [&]() -> std::optional<int64_t> {
      // Integers parse exactly: storage.bufferpool.fetch page ids exceed
      // a double's 53-bit mantissa.
      int64_t n = 0;
      const char* end = value.data() + value.size();
      auto [ptr, ec] = std::from_chars(value.data(), end, n);
      if (ec == std::errc() && ptr == end) return n;
      std::optional<double> d = ParseDouble(value);
      if (!d.has_value()) return std::nullopt;
      return static_cast<int64_t>(*d);
    };
    if (key == "off") {
      Disarm(name);
      return Status::Ok();
    } else if (key == "error") {
      wants_error = true;
      if (!value.empty()) {
        std::optional<StatusCode> code = ParseStatusCodeName(value);
        if (!code.has_value()) {
          return Status::InvalidArgument("unknown status code '" + value +
                                         "' in failpoint spec");
        }
        spec.code = *code;
      }
    } else if (key == "nth") {
      std::optional<int64_t> n = int_value();
      if (!n.has_value() || *n < 1) {
        return Status::InvalidArgument("nth:<N> needs N >= 1: " + mode);
      }
      spec.every_nth = static_cast<int>(*n);
    } else if (key == "arg") {
      std::optional<int64_t> n = int_value();
      if (!n.has_value() || *n < 0) {
        return Status::InvalidArgument("arg:<K> needs K >= 0: " + mode);
      }
      spec.match_arg = *n;
    } else if (key == "trips") {
      std::optional<int64_t> n = int_value();
      if (!n.has_value() || *n < 1) {
        return Status::InvalidArgument("trips:<N> needs N >= 1: " + mode);
      }
      spec.max_trips = static_cast<int>(*n);
    } else if (key == "sleep") {
      std::optional<int64_t> n = int_value();
      if (!n.has_value() || *n < 0) {
        return Status::InvalidArgument("sleep:<MS> needs MS >= 0: " + mode);
      }
      spec.latency_ms = static_cast<int>(*n);
      wants_sleep = true;
    } else {
      return Status::InvalidArgument("unknown failpoint mode '" + mode + "'");
    }
  }
  // "sleep" alone injects latency without failing.
  if (wants_sleep && !wants_error) spec.code = StatusCode::kOk;
  Arm(name, std::move(spec));
  return Status::Ok();
}

Status ArmFromEnv(const char* env_var) {
  const char* value = std::getenv(env_var);
  if (value == nullptr || *value == '\0') return Status::Ok();
  for (const std::string& spec : Split(value, ';')) {
    std::string trimmed(Trim(spec));
    if (trimmed.empty()) continue;
    XIA_RETURN_IF_ERROR(ArmFromSpec(trimmed));
  }
  return Status::Ok();
}

}  // namespace fp
}  // namespace xia
