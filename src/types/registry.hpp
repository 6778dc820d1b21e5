// TypeRegistry: constructs, interns and owns TypeDescriptors for one memory
// representation (a client platform or the server's packed canonical layout).
//
// Construction goes through the registry so that
//   * layout (local offsets, alignment, primitive offsets) is computed once,
//     against this registry's LayoutRules;
//   * structurally identical types are interned to one descriptor, giving
//     cheap pointer-equality type checks within a process;
//   * the isomorphic-descriptor optimization (paper §3.3) is applied
//     deterministically: runs of >= 2 consecutive struct fields of the same
//     primitive kind are collapsed into one array field, purely to lengthen
//     the homogeneous runs the translation loops over. The transform depends
//     only on machine-independent structure, so every platform collapses
//     identically and primitive offsets are unchanged.
//
// Recursive types (e.g. a list node pointing to itself) are built with
// StructBuilder::self_pointer_field. TypeCodec serializes a descriptor graph
// to the wire as an indexed table (cycles become index references), which is
// how clients register their types with the server.
#pragma once

#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "types/translation_plan.hpp"
#include "types/type_desc.hpp"
#include "util/buffer.hpp"

namespace iw {

class TypeRegistry;

/// Incremental builder for (possibly self-referential) struct types.
class StructBuilder {
 public:
  /// Adds a field of a completed type.
  StructBuilder& field(std::string name, const TypeDescriptor* type);
  /// Adds a pointer field whose pointee is the struct being built.
  StructBuilder& self_pointer_field(std::string name);
  /// Computes layout, interns, and returns the finished descriptor.
  const TypeDescriptor* finish();

  /// A field awaiting layout; `type == nullptr` marks a self-pointer.
  /// (Public so the wire codec can stage decoded fields.)
  struct PendingField {
    std::string name;
    const TypeDescriptor* type;
  };

 private:
  friend class TypeRegistry;
  StructBuilder(TypeRegistry* reg, std::string name)
      : registry_(reg), name_(std::move(name)) {}

  TypeRegistry* registry_;
  std::string name_;
  std::vector<PendingField> pending_;
  bool finished_ = false;
};

class TypeRegistry {
 public:
  struct Options {
    /// Paper §3.3 "isomorphic type descriptors"; off only for ablation.
    bool isomorphic_descriptors = true;
  };

  explicit TypeRegistry(LayoutRules rules);
  TypeRegistry(LayoutRules rules, Options options);

  const LayoutRules& rules() const noexcept { return rules_; }
  const Options& options() const noexcept { return options_; }

  /// Interned descriptor for a scalar primitive (not kString/kPointer).
  const TypeDescriptor* primitive(PrimitiveKind kind);

  /// Fixed-capacity string (local format: char[capacity], NUL-padded).
  const TypeDescriptor* string_type(uint32_t capacity);

  /// Pointer to a completed type; pass nullptr for an opaque pointer.
  const TypeDescriptor* pointer_to(const TypeDescriptor* pointee);

  /// Fixed-length array. Throws kInvalidArgument when the array's local
  /// size, primitive units, or string or pointer units do not fit 32 bits
  /// (as finish() does for such a struct).
  const TypeDescriptor* array_of(const TypeDescriptor* element, uint64_t count);

  /// Starts building a struct named `name`.
  StructBuilder struct_builder(std::string name);

  /// Number of descriptors owned (diagnostics/tests).
  size_t size() const;

  /// Snapshot of the translation counters accumulated by every plan-compiled
  /// encode/decode over this registry's descriptors (relaxed atomics; safe
  /// without any lock).
  TranslationStats translation_stats() const noexcept {
    TranslationStats s;
    translation_counters_.snapshot_into(s);
    return s;
  }
  const TranslationCounters& translation_counters() const noexcept {
    return translation_counters_;
  }
  void reset_translation_stats() noexcept { translation_counters_.reset(); }

 private:
  friend class StructBuilder;
  friend class TypeCodec;

  TypeDescriptor* alloc();
  const TypeDescriptor* intern(TypeDescriptor* candidate,
                               const std::string& key);
  const TypeDescriptor* finish_struct(StructBuilder& builder);
  const TypeDescriptor* array_of_unlocked(const TypeDescriptor* element,
                                          uint64_t count);
  /// A fresh (not interned) array descriptor; kInvalidArgument, with no
  /// descriptor made, when its local size or unit counts overflow 32 bits.
  TypeDescriptor* new_array(const TypeDescriptor* element, uint64_t count);
  void compute_scalar_layout(TypeDescriptor* t) const;

  // Non-interning creation paths used by TypeCodec when reconstructing a
  // graph received from the wire (fresh nodes allow post-hoc pointee fixup).
  TypeDescriptor* raw_pointer(const TypeDescriptor* pointee);
  TypeDescriptor* raw_array(const TypeDescriptor* element, uint64_t count);
  TypeDescriptor* raw_struct(std::string name,
                             std::vector<StructBuilder::PendingField> fields,
                             TypeDescriptor* self);
  static void fix_pointee(TypeDescriptor* ptr, const TypeDescriptor* pointee) {
    ptr->pointee_ = pointee;
  }

  void layout_struct(TypeDescriptor* t,
                     const std::vector<StructBuilder::PendingField>& fields,
                     TypeDescriptor* self_ptr_type);
  std::vector<StructBuilder::PendingField> apply_isomorphic(
      std::vector<StructBuilder::PendingField> fields);
  std::string key_of(const TypeDescriptor* t) const;

  mutable std::mutex mu_;
  LayoutRules rules_;
  Options options_;
  /// Shared by all owned descriptors; must outlive them (declared before
  /// owned_ so it is destroyed after).
  mutable TranslationCounters translation_counters_;
  std::deque<std::unique_ptr<TypeDescriptor>> owned_;
  std::unordered_map<std::string, const TypeDescriptor*> interned_;
  std::unordered_map<const TypeDescriptor*, uint64_t> serials_;
};

/// Serializes descriptor graphs for client->server type registration.
class TypeCodec {
 public:
  /// Encodes the graph reachable from `root` as an indexed table.
  static void encode_graph(const TypeDescriptor* root, Buffer& out);

  /// Decodes a graph into `registry` (fresh, non-interned nodes) and returns
  /// the root. Throws Error(kProtocol) on malformed input, and on a type
  /// whose local size or unit counts do not fit 32 bits; a refused graph
  /// leaves `registry` as it was.
  static const TypeDescriptor* decode_graph(BufReader& in,
                                            TypeRegistry& registry);

 private:
  /// decode_graph's work, which leaves what it built before a refusal.
  static const TypeDescriptor* build_graph(BufReader& in,
                                           TypeRegistry& registry);
};

}  // namespace iw
