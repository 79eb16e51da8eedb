#ifndef XIA_XPATH_PATH_H_
#define XIA_XPATH_PATH_H_

#include <cstddef>
#include <string>
#include <vector>

namespace xia {

/// Step axis. Only child (`/`) and descendant-or-self chains (`//`) appear in
/// XML index patterns (DB2 XMLPATTERNs) and in the indexable fragment of the
/// query languages.
enum class Axis { kChild, kDescendant };

/// One location step of a path pattern: axis + optional attribute flag +
/// name test (concrete name or `*`).
struct Step {
  Axis axis = Axis::kChild;
  bool is_attribute = false;  // @name / @*
  bool wildcard = false;      // *
  std::string name;           // Valid when !wildcard.

  bool operator==(const Step& other) const {
    return axis == other.axis && is_attribute == other.is_attribute &&
           wildcard == other.wildcard && (wildcard || name == other.name);
  }

  /// True if this step's name test accepts every name the other's does
  /// (same axis/attribute kind; `*` accepts any name).
  bool TestCovers(const Step& other) const {
    if (is_attribute != other.is_attribute) return false;
    if (wildcard) return true;
    return !other.wildcard && name == other.name;
  }

  std::string ToString() const;
  /// Appends ToString() to `*out` without building a temporary.
  void AppendTo(std::string* out) const;
};

/// A linear XML path pattern: `/site/regions/*/item//quantity`,
/// `//keyword`, `//@id`, `//*`. This is exactly the pattern language of
/// DB2's `GENERATE KEY USING XMLPATTERN` partial indexes and of the
/// candidate indexes the advisor manipulates.
class PathPattern {
 public:
  PathPattern() = default;
  explicit PathPattern(std::vector<Step> steps) : steps_(std::move(steps)) {}

  const std::vector<Step>& steps() const { return steps_; }
  std::vector<Step>& mutable_steps() { return steps_; }
  size_t length() const { return steps_.size(); }
  bool empty() const { return steps_.empty(); }

  /// Appends a step.
  void Add(Step step) { steps_.push_back(std::move(step)); }

  /// Pattern whose steps are this pattern's followed by `suffix`'s.
  PathPattern Concat(const PathPattern& suffix) const;

  /// Number of wildcard steps, a crude generality measure used for ordering
  /// and for demo output.
  size_t WildcardCount() const;

  /// True if some step uses the descendant axis.
  bool HasDescendantAxis() const;

  /// True if the final step is an attribute test.
  bool EndsWithAttribute() const {
    return !steps_.empty() && steps_.back().is_attribute;
  }

  /// The universal pattern `//*` used by the Enumerate Indexes optimizer
  /// mode to stand for "all possible element indexes".
  static PathPattern AllElements();
  /// The universal attribute pattern `//@*`.
  static PathPattern AllAttributes();

  bool operator==(const PathPattern& other) const {
    return steps_ == other.steps_;
  }
  bool operator!=(const PathPattern& other) const {
    return !(*this == other);
  }

  /// Canonical text form; parseable back by ParsePathPattern.
  std::string ToString() const;
  /// Appends ToString() to `*out` without building a temporary.
  void AppendTo(std::string* out) const;

  /// Stable hash for use in unordered containers.
  size_t Hash() const;

 private:
  std::vector<Step> steps_;
};

/// Hash functor so PathPattern can key unordered containers.
struct PathPatternHash {
  size_t operator()(const PathPattern& p) const { return p.Hash(); }
};

/// Comparison operators usable in path predicates and query WHERE clauses.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe, kContains, kExists };

const char* CompareOpName(CompareOp op);

/// Evaluates `lhs op rhs`. If both sides parse as numbers the comparison is
/// numeric, otherwise lexicographic — matching the dynamic-typing rule our
/// mini query language uses. kExists ignores `rhs` and returns true (the
/// node's existence is the predicate). kContains is substring match.
bool CompareValues(CompareOp op, const std::string& lhs,
                   const std::string& rhs);

/// A value predicate attached to a path: the relative path `rel` evaluated
/// from a node matched by the first `step_index + 1` steps of the main
/// pattern must satisfy `op literal`. `rel` may be empty, meaning the
/// matched node's own text value (`.` / `text()`).
struct PathPredicate {
  size_t step_index = 0;
  PathPattern rel;
  CompareOp op = CompareOp::kExists;
  std::string literal;

  /// Full pattern of the value being tested: main-path prefix + rel.
  /// This is the XPath pattern an index must cover to evaluate the
  /// predicate — i.e. what the optimizer exposes to the advisor.
  PathPattern AbsolutePattern(const PathPattern& main) const;

  std::string ToString() const;
};

/// A parsed path expression: pattern plus inline `[...]` predicates.
struct ParsedPath {
  PathPattern pattern;
  std::vector<PathPredicate> predicates;

  std::string ToString() const;
};

}  // namespace xia

#endif  // XIA_XPATH_PATH_H_
