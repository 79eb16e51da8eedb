#include "xpath/path.h"

#include <functional>

#include "common/string_util.h"

namespace xia {

std::string Step::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

void Step::AppendTo(std::string* out) const {
  out->append(axis == Axis::kDescendant ? "//" : "/");
  if (is_attribute) out->push_back('@');
  if (wildcard) {
    out->push_back('*');
  } else {
    out->append(name);
  }
}

PathPattern PathPattern::Concat(const PathPattern& suffix) const {
  std::vector<Step> steps = steps_;
  steps.insert(steps.end(), suffix.steps_.begin(), suffix.steps_.end());
  return PathPattern(std::move(steps));
}

size_t PathPattern::WildcardCount() const {
  size_t count = 0;
  for (const Step& s : steps_) {
    if (s.wildcard) ++count;
    if (s.axis == Axis::kDescendant) ++count;  // `//` is also a generalizer.
  }
  return count;
}

bool PathPattern::HasDescendantAxis() const {
  for (const Step& s : steps_) {
    if (s.axis == Axis::kDescendant) return true;
  }
  return false;
}

PathPattern PathPattern::AllElements() {
  Step s;
  s.axis = Axis::kDescendant;
  s.wildcard = true;
  return PathPattern({s});
}

PathPattern PathPattern::AllAttributes() {
  Step s;
  s.axis = Axis::kDescendant;
  s.wildcard = true;
  s.is_attribute = true;
  return PathPattern({s});
}

std::string PathPattern::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

void PathPattern::AppendTo(std::string* out) const {
  for (const Step& s : steps_) s.AppendTo(out);
}

size_t PathPattern::Hash() const {
  size_t h = 1469598103934665603ULL;
  auto mix = [&h](size_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (const Step& s : steps_) {
    mix(static_cast<size_t>(s.axis) * 4 +
        static_cast<size_t>(s.is_attribute) * 2 +
        static_cast<size_t>(s.wildcard));
    if (!s.wildcard) mix(std::hash<std::string>{}(s.name));
  }
  return h;
}

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
    case CompareOp::kContains:
      return "contains";
    case CompareOp::kExists:
      return "exists";
  }
  return "?";
}

bool CompareValues(CompareOp op, const std::string& lhs,
                   const std::string& rhs) {
  if (op == CompareOp::kExists) return true;
  if (op == CompareOp::kContains) {
    return lhs.find(rhs) != std::string::npos;
  }
  auto ln = ParseDouble(lhs);
  auto rn = ParseDouble(rhs);
  int cmp;
  if (ln.has_value() && rn.has_value()) {
    cmp = (*ln < *rn) ? -1 : (*ln > *rn ? 1 : 0);
  } else {
    cmp = lhs.compare(rhs);
    cmp = (cmp < 0) ? -1 : (cmp > 0 ? 1 : 0);
  }
  switch (op) {
    case CompareOp::kEq:
      return cmp == 0;
    case CompareOp::kNe:
      return cmp != 0;
    case CompareOp::kLt:
      return cmp < 0;
    case CompareOp::kLe:
      return cmp <= 0;
    case CompareOp::kGt:
      return cmp > 0;
    case CompareOp::kGe:
      return cmp >= 0;
    default:
      return false;
  }
}

PathPattern PathPredicate::AbsolutePattern(const PathPattern& main) const {
  std::vector<Step> steps(main.steps().begin(),
                          main.steps().begin() +
                              static_cast<long>(step_index + 1));
  PathPattern prefix(std::move(steps));
  return prefix.Concat(rel);
}

std::string PathPredicate::ToString() const {
  std::string lhs = rel.empty() ? "." : rel.ToString().substr(1);
  if (op == CompareOp::kExists) return "[" + lhs + "]";
  std::string value = literal;
  if (!ParseDouble(value).has_value()) value = "\"" + value + "\"";
  if (op == CompareOp::kContains) {
    return "[contains(" + lhs + ", " + value + ")]";
  }
  return "[" + lhs + " " + CompareOpName(op) + " " + value + "]";
}

std::string ParsedPath::ToString() const {
  // Predicates render attached to their step.
  std::string out;
  for (size_t i = 0; i < pattern.steps().size(); ++i) {
    out += pattern.steps()[i].ToString();
    for (const PathPredicate& p : predicates) {
      if (p.step_index == i) out += p.ToString();
    }
  }
  return out;
}

}  // namespace xia
