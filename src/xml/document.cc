#include "xml/document.h"

namespace xia {

std::string Document::TextValue(NodeIndex i) const {
  const XmlNode& n = node(i);
  if (n.kind != NodeKind::kElement) return n.value;
  std::string out;
  for (NodeIndex c = n.first_child; c != kNullNode;
       c = node(c).next_sibling) {
    if (node(c).kind == NodeKind::kText) out += node(c).value;
  }
  return out;
}

}  // namespace xia
