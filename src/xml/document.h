#ifndef XIA_XML_DOCUMENT_H_
#define XIA_XML_DOCUMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "xml/node.h"

namespace xia {

/// Identifier of a document within a collection.
using DocId = int32_t;

/// One XML document stored as a flat, document-ordered node array.
/// Documents are built by DocumentBuilder (programmatic) or XmlParser
/// (from text); both assign region encodings at construction time.
class Document {
 public:
  Document() = default;

  Document(Document&&) = default;
  Document& operator=(Document&&) = default;
  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;

  /// Rebuilds a document from an already-flattened node array (the
  /// persistent checkpoint loader, storage/storage_engine.cc). The nodes
  /// must carry valid region encodings — they are stored verbatim, which
  /// is what makes a reloaded document bit-identical to the original.
  static Document FromNodes(std::vector<XmlNode> nodes) {
    Document doc;
    for (const XmlNode& n : nodes) doc.byte_size_ += NodeByteSize(n);
    doc.nodes_ = std::move(nodes);
    return doc;
  }

  /// Document id within its collection; set when added to a Collection.
  DocId id() const { return id_; }
  void set_id(DocId id) { id_ = id; }

  bool empty() const { return nodes_.empty(); }
  size_t num_nodes() const { return nodes_.size(); }

  const XmlNode& node(NodeIndex i) const { return nodes_[static_cast<size_t>(i)]; }
  const std::vector<XmlNode>& nodes() const { return nodes_; }

  /// Root element index (0 for non-empty documents).
  NodeIndex root() const { return nodes_.empty() ? kNullNode : 0; }

  /// Concatenated text of the direct text children of `i` (the node's
  /// "typed value" for indexing); for attributes and text nodes, the stored
  /// value itself.
  std::string TextValue(NodeIndex i) const;

  /// Returns the child elements/attributes iteration start.
  NodeIndex FirstChild(NodeIndex i) const { return node(i).first_child; }
  NodeIndex NextSibling(NodeIndex i) const { return node(i).next_sibling; }

  /// Approximate in-memory/storage footprint in bytes, used by the cost
  /// model and the executor's page accounting to derive page counts:
  /// Σ NodeByteSize over the nodes. Kept up to date as nodes are added
  /// (nodes are immutable once added), so this is O(1).
  size_t ByteSize() const { return byte_size_; }

  /// One node's contribution to ByteSize().
  static size_t NodeByteSize(const XmlNode& n) {
    return sizeof(XmlNode) + n.value.size();
  }

 private:
  friend class DocumentBuilder;

  DocId id_ = -1;
  std::vector<XmlNode> nodes_;
  size_t byte_size_ = 0;  // Σ NodeByteSize(nodes_).
};

}  // namespace xia

#endif  // XIA_XML_DOCUMENT_H_
