#include "types/registry.hpp"

#include <algorithm>

namespace iw {

namespace {
constexpr int idx(PrimitiveKind kind) { return static_cast<int>(kind); }

uint64_t round_up(uint64_t value, uint32_t align) {
  return (value + align - 1) / align * align;
}

[[noreturn]] void too_large(const char* what) {
  throw Error(ErrorCode::kInvalidArgument,
              std::string("type too large: its ") + what +
                  " does not fit 32 bits");
}

/// `value` as a 32-bit size or unit count, or kInvalidArgument: every
/// offset, run and slot number of a block is 32 bits on the wire and in the
/// server store, so a type whose sizes do not fit is refused, never wrapped.
uint32_t fit32(uint64_t value, const char* what) {
  if (value > UINT32_MAX) too_large(what);
  return static_cast<uint32_t>(value);
}

/// fit32(`per_element` * `count`), refused before the product can wrap.
uint32_t fit32_product(uint64_t per_element, uint64_t count,
                       const char* what) {
  if (per_element != 0 && count > UINT32_MAX / per_element) too_large(what);
  return static_cast<uint32_t>(per_element * count);
}
}  // namespace

// ---------------------------------------------------------------- builder

StructBuilder& StructBuilder::field(std::string name,
                                    const TypeDescriptor* type) {
  if (type == nullptr) {
    throw Error(ErrorCode::kInvalidArgument, "null field type");
  }
  pending_.push_back({std::move(name), type});
  return *this;
}

StructBuilder& StructBuilder::self_pointer_field(std::string name) {
  pending_.push_back({std::move(name), nullptr});
  return *this;
}

const TypeDescriptor* StructBuilder::finish() {
  if (finished_) {
    throw Error(ErrorCode::kState, "StructBuilder::finish called twice");
  }
  if (pending_.empty()) {
    throw Error(ErrorCode::kInvalidArgument, "struct with no fields");
  }
  finished_ = true;
  return registry_->finish_struct(*this);
}

// --------------------------------------------------------------- registry

TypeRegistry::TypeRegistry(LayoutRules rules)
    : TypeRegistry(rules, Options{}) {}

TypeRegistry::TypeRegistry(LayoutRules rules, Options options)
    : rules_(rules), options_(options) {}

size_t TypeRegistry::size() const {
  std::lock_guard lock(mu_);
  return owned_.size();
}

TypeDescriptor* TypeRegistry::alloc() {
  owned_.push_back(std::unique_ptr<TypeDescriptor>(new TypeDescriptor));
  owned_.back()->counters_ = &translation_counters_;
  return owned_.back().get();
}

const TypeDescriptor* TypeRegistry::intern(TypeDescriptor* candidate,
                                           const std::string& key) {
  auto [it, inserted] = interned_.try_emplace(key, candidate);
  if (!inserted) {
    // Discard the candidate; it is the most recent allocation.
    check_internal(owned_.back().get() == candidate, "intern out of order");
    owned_.pop_back();
  } else {
    serials_.emplace(candidate, serials_.size());
  }
  return it->second;
}

void TypeRegistry::compute_scalar_layout(TypeDescriptor* t) const {
  int i = idx(t->prim_);
  switch (t->kind_) {
    case TypeKind::kPrimitive:
      t->local_size_ = rules_.size[i];
      t->local_align_ = rules_.align[i];
      t->prim_units_ = 1;
      t->fixed_wire_size_ = wire_size_of(t->prim_);
      t->variable_wire_ = false;
      break;
    case TypeKind::kString:
      t->local_size_ = rules_.inline_strings
                           ? t->string_capacity_
                           : rules_.size[idx(PrimitiveKind::kString)];
      t->local_align_ = rules_.align[idx(PrimitiveKind::kChar)];
      t->prim_units_ = 1;
      t->fixed_wire_size_ = 0;
      t->string_units_ = 1;
      t->variable_wire_ = true;
      break;
    case TypeKind::kPointer:
      t->local_size_ = rules_.size[idx(PrimitiveKind::kPointer)];
      t->local_align_ = rules_.align[idx(PrimitiveKind::kPointer)];
      t->prim_units_ = 1;
      t->fixed_wire_size_ = 0;
      t->pointer_units_ = 1;
      t->variable_wire_ = true;
      break;
    default:
      check_internal(false, "compute_scalar_layout on aggregate");
  }
}

const TypeDescriptor* TypeRegistry::primitive(PrimitiveKind kind) {
  if (kind == PrimitiveKind::kString || kind == PrimitiveKind::kPointer) {
    throw Error(ErrorCode::kInvalidArgument,
                "use string_type()/pointer_to() for string/pointer types");
  }
  std::lock_guard lock(mu_);
  std::string key = std::string("p") + primitive_kind_name(kind);
  if (auto it = interned_.find(key); it != interned_.end()) return it->second;
  TypeDescriptor* t = alloc();
  t->kind_ = TypeKind::kPrimitive;
  t->prim_ = kind;
  compute_scalar_layout(t);
  return intern(t, key);
}

const TypeDescriptor* TypeRegistry::string_type(uint32_t capacity) {
  if (capacity == 0) {
    throw Error(ErrorCode::kInvalidArgument, "string capacity must be > 0");
  }
  std::lock_guard lock(mu_);
  std::string key = "s" + std::to_string(capacity);
  if (auto it = interned_.find(key); it != interned_.end()) return it->second;
  TypeDescriptor* t = alloc();
  t->kind_ = TypeKind::kString;
  t->prim_ = PrimitiveKind::kString;
  t->string_capacity_ = capacity;
  compute_scalar_layout(t);
  return intern(t, key);
}

const TypeDescriptor* TypeRegistry::pointer_to(const TypeDescriptor* pointee) {
  std::lock_guard lock(mu_);
  std::string key =
      "P" + (pointee ? std::to_string(serials_.at(pointee)) : std::string("0"));
  if (auto it = interned_.find(key); it != interned_.end()) return it->second;
  TypeDescriptor* t = alloc();
  t->kind_ = TypeKind::kPointer;
  t->prim_ = PrimitiveKind::kPointer;
  t->pointee_ = pointee;
  compute_scalar_layout(t);
  return intern(t, key);
}

const TypeDescriptor* TypeRegistry::array_of(const TypeDescriptor* element,
                                             uint64_t count) {
  if (element == nullptr || count == 0) {
    throw Error(ErrorCode::kInvalidArgument, "array needs element and count");
  }
  std::lock_guard lock(mu_);
  return array_of_unlocked(element, count);
}

const TypeDescriptor* TypeRegistry::array_of_unlocked(
    const TypeDescriptor* element, uint64_t count) {
  std::string key =
      "a" + std::to_string(count) + "," + std::to_string(serials_.at(element));
  if (auto it = interned_.find(key); it != interned_.end()) return it->second;
  return intern(new_array(element, count), key);
}

TypeDescriptor* TypeRegistry::new_array(const TypeDescriptor* element,
                                        uint64_t count) {
  // Checked before the descriptor exists, so a refused array leaves none.
  const uint64_t stride =
      round_up(element->local_size(), element->local_align());
  const uint32_t local_size = fit32_product(stride, count, "local size");
  const uint32_t prim_units =
      fit32_product(element->prim_units(), count, "primitive unit count");
  const uint32_t string_units =
      fit32_product(element->string_units(), count, "string unit count");
  const uint32_t pointer_units =
      fit32_product(element->pointer_units(), count, "pointer unit count");
  TypeDescriptor* t = alloc();
  t->kind_ = TypeKind::kArray;
  t->element_ = element;
  t->count_ = count;
  t->element_stride_ = static_cast<uint32_t>(stride);
  t->local_size_ = local_size;
  t->local_align_ = element->local_align();
  t->prim_units_ = prim_units;
  t->fixed_wire_size_ = element->fixed_wire_size() * count;
  t->string_units_ = string_units;
  t->pointer_units_ = pointer_units;
  t->variable_wire_ = element->has_variable_wire_size();
  return t;
}

StructBuilder TypeRegistry::struct_builder(std::string name) {
  return StructBuilder(this, std::move(name));
}

std::vector<StructBuilder::PendingField> TypeRegistry::apply_isomorphic(
    std::vector<StructBuilder::PendingField> fields) {
  std::vector<StructBuilder::PendingField> out;
  size_t i = 0;
  while (i < fields.size()) {
    const TypeDescriptor* t = fields[i].type;
    if (t != nullptr && t->kind() == TypeKind::kPrimitive) {
      size_t j = i + 1;
      while (j < fields.size() && fields[j].type == t) ++j;
      if (j - i >= 2) {
        // Collapse fields [i, j) into one array field. The synthetic name is
        // library-internal; programs keep using the IDL-generated layout.
        StructBuilder::PendingField merged;
        merged.name = fields[i].name + ".." + fields[j - 1].name;
        merged.type = array_of_unlocked(t, j - i);
        out.push_back(std::move(merged));
        i = j;
        continue;
      }
    }
    out.push_back(std::move(fields[i]));
    ++i;
  }
  return out;
}

void TypeRegistry::layout_struct(
    TypeDescriptor* t, const std::vector<StructBuilder::PendingField>& fields,
    TypeDescriptor* self_ptr_type) {
  // Summed in 64 bits and checked once at the end: the sums only grow, so
  // every field's offset and counts fit whenever the totals do.
  uint64_t offset = 0;
  uint64_t units = 0;
  uint64_t strings = 0;
  uint64_t pointers = 0;
  uint32_t align = 1;
  t->fields_.reserve(fields.size());
  for (const auto& pf : fields) {
    const TypeDescriptor* ft = pf.type ? pf.type : self_ptr_type;
    check_internal(ft != nullptr, "unresolved self pointer field");
    offset = round_up(offset, ft->local_align());
    TypeDescriptor::Field f;
    f.name = pf.name;
    f.type = ft;
    f.local_offset = static_cast<uint32_t>(offset);
    f.prim_offset = units;
    f.strings_before = static_cast<uint32_t>(strings);
    f.pointers_before = static_cast<uint32_t>(pointers);
    t->fields_.push_back(std::move(f));
    offset += ft->local_size();
    units += ft->prim_units();
    strings += ft->string_units();
    pointers += ft->pointer_units();
    align = std::max(align, ft->local_align());
    t->fixed_wire_size_ += ft->fixed_wire_size();
    t->variable_wire_ = t->variable_wire_ || ft->has_variable_wire_size();
  }
  t->kind_ = TypeKind::kStruct;
  t->local_align_ = align;
  t->local_size_ = fit32(round_up(offset, align), "local size");
  t->prim_units_ = fit32(units, "primitive unit count");
  t->string_units_ = fit32(strings, "string unit count");
  t->pointer_units_ = fit32(pointers, "pointer unit count");

  // Precompute the flat run list for fixed-size structs so translation can
  // iterate arrays of them without per-element tree walks (Fig. 4's
  // int_double / *_struct shapes live on this).
  if (!t->variable_wire_ && t->prim_units_ > 0 && t->prim_units_ <= 4096) {
    t->visit_runs(0, t->prim_units_,
                  [&](const PrimRun& run) { t->flat_runs_.push_back(run); });
  }
}

const TypeDescriptor* TypeRegistry::finish_struct(StructBuilder& builder) {
  std::lock_guard lock(mu_);
  auto fields = builder.pending_;
  if (options_.isomorphic_descriptors) {
    fields = apply_isomorphic(std::move(fields));
  }

  std::string key = "S" + builder.name_ + "{";
  for (const auto& pf : fields) {
    key += pf.name;
    key += ':';
    key += pf.type ? std::to_string(serials_.at(pf.type)) : std::string("self");
    key += ';';
  }
  key += '}';
  if (auto it = interned_.find(key); it != interned_.end()) return it->second;

  const size_t owned_before = owned_.size();
  TypeDescriptor* t = alloc();
  t->struct_name_ = builder.name_;

  // A self-pointer field needs a pointer descriptor whose pointee is `t`.
  TypeDescriptor* self_ptr = nullptr;
  bool has_self =
      std::any_of(fields.begin(), fields.end(),
                  [](const auto& pf) { return pf.type == nullptr; });
  if (has_self) {
    self_ptr = alloc();
    self_ptr->kind_ = TypeKind::kPointer;
    self_ptr->prim_ = PrimitiveKind::kPointer;
    self_ptr->pointee_ = t;
    compute_scalar_layout(self_ptr);
    serials_.emplace(self_ptr, serials_.size());
    // owned_ back is self_ptr; `t` precedes it — intern() pop logic expects
    // the candidate last, so swap ownership order.
    std::swap(owned_[owned_.size() - 1], owned_[owned_.size() - 2]);
  }

  try {
    layout_struct(t, fields, self_ptr);
  } catch (const Error&) {
    // Refused (too large): drop `t` and its self pointer again.
    if (self_ptr != nullptr) serials_.erase(self_ptr);
    owned_.resize(owned_before);
    throw;
  }
  return intern(t, key);
}

TypeDescriptor* TypeRegistry::raw_pointer(const TypeDescriptor* pointee) {
  std::lock_guard lock(mu_);
  TypeDescriptor* t = alloc();
  t->kind_ = TypeKind::kPointer;
  t->prim_ = PrimitiveKind::kPointer;
  t->pointee_ = pointee;
  compute_scalar_layout(t);
  serials_.emplace(t, serials_.size());
  return t;
}

TypeDescriptor* TypeRegistry::raw_array(const TypeDescriptor* element,
                                        uint64_t count) {
  std::lock_guard lock(mu_);
  TypeDescriptor* t = new_array(element, count);
  serials_.emplace(t, serials_.size());
  return t;
}

TypeDescriptor* TypeRegistry::raw_struct(
    std::string name, std::vector<StructBuilder::PendingField> fields,
    TypeDescriptor* self) {
  std::lock_guard lock(mu_);
  TypeDescriptor* t = self;
  t->struct_name_ = std::move(name);
  layout_struct(t, fields, nullptr);
  return t;
}

// ------------------------------------------------------------------ codec

namespace {
// Entry tags in the wire table.
constexpr uint8_t kTagPrimitive = 0;
constexpr uint8_t kTagString = 1;
constexpr uint8_t kTagPointer = 2;
constexpr uint8_t kTagArray = 3;
constexpr uint8_t kTagStruct = 4;
constexpr uint32_t kNoPointee = 0xFFFFFFFFu;

void collect(const TypeDescriptor* t,
             std::unordered_map<const TypeDescriptor*, uint32_t>& index,
             std::vector<const TypeDescriptor*>& order) {
  if (index.count(t)) return;
  index.emplace(t, static_cast<uint32_t>(order.size()));
  order.push_back(t);
  switch (t->kind()) {
    case TypeKind::kPrimitive:
    case TypeKind::kString:
      break;
    case TypeKind::kPointer:
      if (t->pointee() != nullptr) collect(t->pointee(), index, order);
      break;
    case TypeKind::kArray:
      collect(t->element(), index, order);
      break;
    case TypeKind::kStruct:
      for (const auto& f : t->fields()) collect(f.type, index, order);
      break;
  }
}
}  // namespace

void TypeCodec::encode_graph(const TypeDescriptor* root, Buffer& out) {
  std::unordered_map<const TypeDescriptor*, uint32_t> index;
  std::vector<const TypeDescriptor*> order;
  collect(root, index, order);
  out.append_u32(static_cast<uint32_t>(order.size()));
  for (const TypeDescriptor* t : order) {
    switch (t->kind()) {
      case TypeKind::kPrimitive:
        out.append_u8(kTagPrimitive);
        out.append_u8(static_cast<uint8_t>(t->primitive()));
        break;
      case TypeKind::kString:
        out.append_u8(kTagString);
        out.append_u32(t->string_capacity());
        break;
      case TypeKind::kPointer:
        out.append_u8(kTagPointer);
        out.append_u32(t->pointee() ? index.at(t->pointee()) : kNoPointee);
        break;
      case TypeKind::kArray:
        out.append_u8(kTagArray);
        out.append_u64(t->count());
        out.append_u32(index.at(t->element()));
        break;
      case TypeKind::kStruct: {
        out.append_u8(kTagStruct);
        out.append_lp_string(t->struct_name());
        out.append_u32(static_cast<uint32_t>(t->fields().size()));
        for (const auto& f : t->fields()) {
          out.append_lp_string(f.name);
          out.append_u32(index.at(f.type));
        }
        break;
      }
    }
  }
}

const TypeDescriptor* TypeCodec::decode_graph(BufReader& in,
                                              TypeRegistry& registry) {
  // A graph is refused part-way, with some of its descriptors built. So it
  // is built in a throwaway registry first, and in `registry` only once
  // that succeeded: a peer sending refused graphs cannot grow it.
  {
    BufReader trial = in;
    TypeRegistry scratch(registry.rules(), registry.options());
    build_graph(trial, scratch);
  }
  return build_graph(in, registry);
}

const TypeDescriptor* TypeCodec::build_graph(BufReader& in,
                                             TypeRegistry& registry) {
  struct Parsed {
    uint8_t tag = 0;
    uint8_t prim = 0;
    uint32_t capacity = 0;
    uint32_t pointee = kNoPointee;
    uint64_t count = 0;
    uint32_t element = 0;
    std::string name;
    std::vector<std::pair<std::string, uint32_t>> fields;
  };
  uint32_t n = in.read_u32();
  if (n == 0 || n > 1'000'000) {
    throw Error(ErrorCode::kProtocol, "type table size out of range");
  }
  std::vector<Parsed> parsed(n);
  for (auto& p : parsed) {
    p.tag = in.read_u8();
    switch (p.tag) {
      case kTagPrimitive:
        p.prim = in.read_u8();
        if (p.prim >= kNumPrimitiveKinds) {
          throw Error(ErrorCode::kProtocol, "bad primitive kind");
        }
        break;
      case kTagString:
        p.capacity = in.read_u32();
        break;
      case kTagPointer:
        p.pointee = in.read_u32();
        break;
      case kTagArray:
        p.count = in.read_u64();
        p.element = in.read_u32();
        break;
      case kTagStruct: {
        p.name = in.read_lp_string();
        uint32_t nf = in.read_u32();
        for (uint32_t i = 0; i < nf; ++i) {
          std::string fname = in.read_lp_string();
          uint32_t ftype = in.read_u32();
          p.fields.emplace_back(std::move(fname), ftype);
        }
        break;
      }
      default:
        throw Error(ErrorCode::kProtocol, "bad type tag");
    }
  }

  std::vector<TypeDescriptor*> built(n, nullptr);
  std::vector<bool> in_progress(n, false);
  std::vector<std::pair<uint32_t, uint32_t>> pointer_fixups;  // (ptr, pointee)

  auto check_index = [&](uint32_t i) {
    if (i >= n) throw Error(ErrorCode::kProtocol, "type index out of range");
  };

  // Recursive build; cycles (only reachable through pointers) are broken by
  // creating the pointer with a null pointee and fixing it up afterwards.
  auto build = [&](auto&& self, uint32_t i) -> TypeDescriptor* {
    check_index(i);
    if (built[i] != nullptr) return built[i];
    if (in_progress[i]) {
      throw Error(ErrorCode::kProtocol, "value-type cycle in type table");
    }
    in_progress[i] = true;
    const Parsed& p = parsed[i];
    TypeDescriptor* t = nullptr;
    switch (p.tag) {
      case kTagPrimitive:
        t = const_cast<TypeDescriptor*>(
            registry.primitive(static_cast<PrimitiveKind>(p.prim)));
        break;
      case kTagString:
        t = const_cast<TypeDescriptor*>(registry.string_type(p.capacity));
        break;
      case kTagPointer: {
        if (p.pointee == kNoPointee) {
          t = registry.raw_pointer(nullptr);
        } else {
          check_index(p.pointee);
          if (built[p.pointee] != nullptr) {
            t = registry.raw_pointer(built[p.pointee]);
          } else {
            t = registry.raw_pointer(nullptr);
            pointer_fixups.emplace_back(i, p.pointee);
          }
        }
        break;
      }
      case kTagArray:
        t = registry.raw_array(self(self, p.element), p.count);
        break;
      case kTagStruct: {
        // Allocate the struct node first so self-references through pointer
        // entries can be fixed up against it.
        std::vector<StructBuilder::PendingField> fields;
        TypeDescriptor* shell;
        {
          std::lock_guard lock(registry.mu_);
          shell = registry.alloc();
          registry.serials_.emplace(shell, registry.serials_.size());
        }
        built[i] = shell;
        for (const auto& [fname, ftype] : p.fields) {
          check_index(ftype);
          TypeDescriptor* ft;
          if (in_progress[ftype]) {
            // A by-value cycle (struct containing itself) is malformed; only
            // pointer entries may legally reference an in-progress struct.
            throw Error(ErrorCode::kProtocol, "value-type cycle in struct");
          } else if (built[ftype] != nullptr) {
            ft = built[ftype];
          } else {
            ft = self(self, ftype);
          }
          fields.push_back({fname, ft});
        }
        t = registry.raw_struct(p.name, std::move(fields), shell);
        break;
      }
    }
    built[i] = t;
    in_progress[i] = false;
    return t;
  };

  try {
    for (uint32_t i = 0; i < n; ++i) build(build, i);
  } catch (const Error& e) {
    // A type the registry refuses (its sizes do not fit 32 bits, a string
    // of capacity 0) is a malformed graph.
    if (e.code() != ErrorCode::kInvalidArgument) throw;
    throw Error(ErrorCode::kProtocol, e.what());
  }
  for (auto [ptr_i, pointee_i] : pointer_fixups) {
    TypeRegistry::fix_pointee(built[ptr_i], built[pointee_i]);
  }
  return built[0];
}

}  // namespace iw
