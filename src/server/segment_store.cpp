#include "server/segment_store.hpp"
#include "util/stopwatch.hpp"

#include <algorithm>
#include <cstring>

#include "util/endian.hpp"
#include "util/logging.hpp"
#include "wire/translate_engine.hpp"

namespace iw::server {

namespace {
uint32_t subblocks_for(uint64_t units) {
  return static_cast<uint32_t>((units + kSubblockUnits - 1) / kSubblockUnits);
}

/// A stored pointer field (LayoutRules::kPackedPointerBytes). Serial 0
/// holds no block: unit 0 is null, and unit n names the cross-segment MIP
/// in vardata slot n - 1, which is always the field's own pointer slot.
struct StoredPointer {
  uint32_t serial;
  uint32_t unit;
};
static_assert(LayoutRules::kPackedPointerBytes == 2 * sizeof(uint32_t));

StoredPointer load_pointer(const uint8_t* f) {
  return {load_be32(f), load_be32(f + sizeof(uint32_t))};
}
void store_pointer(uint8_t* f, StoredPointer p) {
  store_be32(f, p.serial);
  store_be32(f + sizeof(uint32_t), p.unit);
}

/// The vardata slot of the pointer field at byte `offset` of a `type` block.
uint32_t pointer_slot(const TypeDescriptor& type, uint32_t offset) {
  const uint32_t index = type.var_unit_index(PrimitiveKind::kPointer, offset);
  check_internal(index != TypeDescriptor::kNoVarUnit,
                 "no pointer slot at offset");
  return type.string_units() + index;
}

/// vardata slots a block of `type` may use: one per string and pointer.
uint64_t var_slots(const TypeDescriptor& type) {
  return uint64_t{type.string_units()} + type.pointer_units();
}
}  // namespace

/// Translation hooks over a block's packed-canonical storage. A pointer
/// field holds its unit inline (StoredPointer): an intra-segment pointer is
/// copied in and out with no lookup. Strings and cross-segment MIPs live
/// out-of-line in vardata: the n-th string of the block in slot n, the n-th
/// pointer's MIP in slot string_units() + n (pointer_slot), both positions
/// as the translator hands them over. A string field itself stores its
/// slot id (deterministic bytes).
class ServerHooks final : public TranslationHooks {
 public:
  /// With `undo` (false for a block the diff creates) each cross-segment
  /// MIP slot the hooks overwrite is saved first (SegmentStore::save_slot);
  /// the caller saves a run's string slots before decoding it.
  ServerHooks(SegmentStore* store, SvrBlock* block, bool undo = false)
      : store_(store), block_(block), undo_(undo) {}

  PointerUnit swizzle_out(const void* field, uint32_t) override {
    const StoredPointer p = load_pointer(static_cast<const uint8_t*>(field));
    if (p.serial != 0) return {PointerTag::kIntra, p.serial, p.unit, {}};
    if (p.unit == 0) return {};
    return {PointerTag::kCross, 0, 0, block_->vardata[p.unit - 1]};
  }
  void swizzle_in(BufReader& in, void* field, uint32_t index) override {
    auto* f = static_cast<uint8_t*>(field);
    const PointerUnit p = read_pointer_unit(in);
    StoredPointer stored{0, 0};
    switch (p.tag) {
      case PointerTag::kNull:
        break;
      case PointerTag::kIntra:
        // Consecutive pointers usually name one block: check the target
        // in the serial tree only when it changes.
        if (p.serial != target_serial_ || p.unit >= target_units_) {
          target_units_ = store_->check_pointer_target(p.serial, p.unit);
          target_serial_ = p.serial;
        }
        stored = {p.serial, p.unit};
        break;
      case PointerTag::kCross: {
        const uint32_t s = block_->type->string_units() + index;
        if (block_->vardata.size() <= s) {
          if (undo_) {
            store_->undo_.push_back(
                {SegmentStore::UndoStep::Kind::kSlots, block_, nullptr,
                 static_cast<uint32_t>(block_->vardata.size())});
          }
          block_->vardata.resize(s + 1);
        }
        save_slot(s);
        block_->vardata[s].assign(p.mip);
        stored.unit = s + 1;
        break;
      }
    }
    // A field that stops holding a cross-segment MIP frees its string.
    const StoredPointer old = load_pointer(f);
    if (old.serial == 0 && old.unit != 0 && stored.unit != old.unit) {
      save_slot(old.unit - 1);
      std::string().swap(block_->vardata[old.unit - 1]);
    }
    store_pointer(f, stored);
  }
  std::string_view read_string(const void*, uint32_t,
                               uint32_t index) override {
    return block_->vardata[index];
  }
  void write_string(void* field, uint32_t, uint32_t index,
                    std::string_view content) override {
    block_->vardata[index].assign(content);
    store_be32(field, index);
  }

 private:
  void save_slot(uint32_t slot) {
    if (undo_) store_->save_slot(block_, slot);
  }

  SegmentStore* store_;
  SvrBlock* block_;
  bool undo_;
  uint32_t target_serial_ = 0;  // last intra-segment target checked
  uint64_t target_units_ = 0;   // its unit count; 0 = not a live block
};

SegmentStore::SegmentStore(std::string name, Options options)
    : name_(std::move(name)), options_(options) {}

StoreStats SegmentStore::stats() const noexcept {
  StoreStats s;
  stats_.snapshot_into(s);
  registry_.translation_counters().snapshot_into(s);
  return s;
}

SegmentStore::~SegmentStore() {
  // Intrusive structures reference owned_ storage; drop views first.
  blocks_by_serial_.clear();
  markers_.clear();
  version_list_.clear();
}

uint32_t SegmentStore::register_type(std::span<const uint8_t> graph) {
  std::string key(reinterpret_cast<const char*>(graph.data()), graph.size());
  auto it = type_serial_by_key_.find(key);
  if (it != type_serial_by_key_.end()) return it->second;

  BufReader r(graph.data(), graph.size());
  const TypeDescriptor* type = TypeCodec::decode_graph(r, registry_);
  types_.push_back(type);
  type_graphs_.emplace_back(graph.begin(), graph.end());
  uint32_t serial = static_cast<uint32_t>(types_.size());
  type_serial_by_key_.emplace(std::move(key), serial);
  return serial;
}

std::span<const uint8_t> SegmentStore::type_graph(uint32_t serial) const {
  if (serial == 0 || serial > type_graphs_.size()) {
    throw Error(ErrorCode::kNotFound,
                "type serial " + std::to_string(serial));
  }
  return type_graphs_[serial - 1];
}

const SvrBlock* SegmentStore::find_block(uint32_t serial) const {
  return blocks_by_serial_.find(serial);
}

const SvrBlock* SegmentStore::find_block_by_name(const std::string& name) const {
  // Named blocks are rare (roots); a linear scan keeps the server free of a
  // third per-block tree. Clients resolve names once at bootstrap.
  const SvrBlock* found = nullptr;
  for_each_block([&](const SvrBlock& b) {
    if (b.name == name) found = &b;
  });
  return found;
}

uint64_t SegmentStore::block_bytes(const SvrBlock& block) const {
  // Approximate wire size: fixed units exactly, each string and pointer
  // field at a nominal 8 bytes. Used only for Diff-coherence percentage
  // tracking, which the paper computes conservatively anyway. It depends on
  // the type alone, so creating and destroying a block add and take away
  // the same amount.
  return block.type->fixed_wire_size() + 8 * var_slots(*block.type);
}

SvrBlock* SegmentStore::create_block(uint32_t serial, uint32_t type_serial,
                                     std::string name, uint32_t at_version) {
  if (type_serial == 0 || type_serial > types_.size()) {
    throw Error(ErrorCode::kProtocol, "new block references unknown type");
  }
  SvrBlock* block;
  if (!free_pool_.empty()) {
    block = free_pool_.back();
    free_pool_.pop_back();
  } else {
    owned_blocks_.push_back(std::make_unique<SvrBlock>());
    block = owned_blocks_.back().get();
  }
  block->serial = serial;
  block->name = std::move(name);
  block->type_serial = type_serial;
  block->type = types_[type_serial - 1];
  block->created_version = at_version;
  block->version = at_version;
  block->data.assign(block->type->local_size(), 0);
  block->vardata.assign(block->type->string_units(), std::string());
  block->subblock_versions.assign(
      subblocks_for(block->type->prim_units()), at_version);
  if (!blocks_by_serial_.insert(*block)) {
    free_pool_.push_back(block);
    throw Error(ErrorCode::kProtocol, "duplicate block serial");
  }
  version_list_.push_back(*block);
  next_block_serial_ = std::max(next_block_serial_, serial + 1);
  total_data_bytes_ += block_bytes(*block);
  return block;
}

void SegmentStore::destroy_block(SvrBlock* block, uint32_t at_version) {
  unlink_block(block, at_version);
  release_block(block);
}

void SegmentStore::unlink_block(SvrBlock* block, uint32_t at_version) {
  total_data_bytes_ -= block_bytes(*block);
  free_history_.push_back(
      {block->serial, block->created_version, at_version});
  blocks_by_serial_.erase(*block);
  version_list_.erase(*block);
}

void SegmentStore::release_block(SvrBlock* block) {
  block->data.clear();
  block->vardata.clear();
  block->subblock_versions.clear();
  free_pool_.push_back(block);
}

void SegmentStore::save_bytes(SvrBlock* block, uint32_t lo, uint32_t hi) {
  undo_.push_back({UndoStep::Kind::kBytes, block, nullptr, lo, hi - lo,
                   undo_saved_.size()});
  undo_saved_.insert(undo_saved_.end(), block->data.begin() + lo,
                     block->data.begin() + hi);
}

void SegmentStore::save_strings(SvrBlock* block, uint32_t first,
                                uint32_t count) {
  undo_.push_back({UndoStep::Kind::kStrings, block, nullptr, first, count,
                   undo_saved_.size()});
  const std::string* texts = block->vardata.data() + first;
  size_t bytes = 0;
  for (uint32_t i = 0; i < count; ++i) bytes += sizeof(uint32_t) + texts[i].size();
  const size_t at = undo_saved_.size();
  undo_saved_.resize(at + bytes);
  uint8_t* p = undo_saved_.data() + at;
  for (uint32_t i = 0; i < count; ++i) {
    const auto len = static_cast<uint32_t>(texts[i].size());
    std::memcpy(p, &len, sizeof len);
    std::memcpy(p + sizeof len, texts[i].data(), len);
    p += sizeof len + len;
  }
}

void SegmentStore::save_slot(SvrBlock* block, uint32_t slot) {
  const std::string& text = block->vardata[slot];
  undo_.push_back({UndoStep::Kind::kSlot, block, nullptr, slot,
                   static_cast<uint32_t>(text.size()), undo_saved_.size()});
  undo_saved_.insert(undo_saved_.end(), text.begin(), text.end());
}

void SegmentStore::undo_entries() {
  // Newest first: when a step is taken back, the segment is as it was
  // right after that step, so a block moved or unlinked from before `next`
  // goes back before `next` (or last, when nothing followed it).
  auto relink = [&](SvrBlock* block, VersionNode* next) {
    if (next == nullptr) {
      version_list_.push_back(*block);
    } else if (VersionNode* prev = version_list_.prev(*next)) {
      version_list_.insert_after(*prev, *block);
    } else {
      version_list_.push_front(*block);
    }
  };
  for (auto step = undo_.rbegin(); step != undo_.rend(); ++step) {
    SvrBlock* block = step->block;
    switch (step->kind) {
      case UndoStep::Kind::kCreated:
        blocks_by_serial_.erase(*block);
        version_list_.erase(*block);
        release_block(block);
        break;
      case UndoStep::Kind::kUnlinked:
        check_internal(blocks_by_serial_.insert(*block), "undo of a free");
        relink(block, step->next);
        break;
      case UndoStep::Kind::kMoved:
        version_list_.erase(*block);
        relink(block, step->next);
        break;
      case UndoStep::Kind::kBytes:
        std::memcpy(block->data.data() + step->at,
                    undo_saved_.data() + step->saved, step->len);
        break;
      case UndoStep::Kind::kSubblocks:
        std::memcpy(block->subblock_versions.data() + step->at,
                    undo_saved_.data() + step->saved,
                    step->len * sizeof(uint32_t));
        break;
      case UndoStep::Kind::kVersion:
        block->version = step->at;
        break;
      case UndoStep::Kind::kStrings: {
        const uint8_t* p = undo_saved_.data() + step->saved;
        for (uint32_t i = step->at; i < step->at + step->len; ++i) {
          uint32_t len;
          std::memcpy(&len, p, sizeof len);
          block->vardata[i].assign(reinterpret_cast<const char*>(p) +
                                       sizeof len,
                                   len);
          p += sizeof len + len;
        }
        break;
      }
      case UndoStep::Kind::kSlot:
        block->vardata[step->at].assign(
            reinterpret_cast<const char*>(undo_saved_.data() + step->saved),
            step->len);
        break;
      case UndoStep::Kind::kSlots:
        block->vardata.resize(step->at);
        break;
    }
  }
}

uint32_t SegmentStore::apply_diff(std::span<const uint8_t> diff_bytes) {
  const uint32_t old_version = version_;
  apply_entries(diff_bytes);
  if (version_ != old_version && options_.enable_diff_cache) {
    cache_insert(old_version, version_,
                 std::make_shared<const std::vector<uint8_t>>(
                     diff_bytes.begin(), diff_bytes.end()));
  }
  return version_;
}

uint32_t SegmentStore::apply_diff(SharedBytes diff, SharedBytes section) {
  const uint32_t old_version = version_;
  apply_entries(*diff);
  if (version_ != old_version && options_.enable_diff_cache) {
    cache_insert(old_version, version_, std::move(diff), std::move(section));
  }
  return version_;
}

void SegmentStore::apply_entries(std::span<const uint8_t> diff_bytes) {
  Stopwatch timer;
  BufReader in(diff_bytes.data(), diff_bytes.size());
  DiffReader reader(in);
  if (reader.entry_count() == 0) {
    return;  // empty critical section: no new version
  }
  if (reader.from_version() != version_) {
    throw Error(ErrorCode::kState,
                "diff base version " + std::to_string(reader.from_version()) +
                    " != current " + std::to_string(version_));
  }
  // A commit diff steps one version; a folded diff (a WAL-tail sync) can
  // span many. Land on what the diff header declares.
  const uint32_t new_version =
      std::max(reader.to_version(), version_ + 1);
  scan_new_blocks(diff_bytes);
  undo_.clear();
  undo_saved_.clear();
  const uint32_t next_serial_before = next_block_serial_;
  const uint64_t data_bytes_before = total_data_bytes_;
  const size_t frees_before = free_history_.size();

  owned_markers_.push_back(std::make_unique<Marker>(new_version));
  Marker* marker = owned_markers_.back().get();
  version_list_.push_back(*marker);
  check_internal(markers_.insert(*marker), "duplicate marker version");

  // Last-block prediction: the block most likely named by the next diff
  // entry is the one that followed the previous entry's block on the
  // version list — captured *before* move_to_back rearranges the list.
  SvrBlock* predicted = nullptr;
  DiffEntry entry;
  // `fresh`: the block is new in this diff, and needs no undo steps.
  auto apply_runs = [&](SvrBlock* block, bool fresh) {
    ServerHooks hooks(this, block, !fresh);
    const uint64_t units = block->prim_units();
    const TranslationPlan& plan =
        TranslationPlan::of(*block->type, registry_.rules());
    while (!entry.runs.at_end()) {
      DiffRun run = entry.read_run();
      const uint64_t run_end = run.start_unit + uint64_t{run.unit_count};
      if (run_end > units) {
        throw Error(ErrorCode::kProtocol, "diff run out of block bounds");
      }
      uint32_t first_sb = run.start_unit / kSubblockUnits;
      uint32_t last_sb =
          (run.start_unit + run.unit_count - 1) / kSubblockUnits;
      if (!fresh && run.unit_count != 0) {
        save_bytes(block, plan.local_offset_of(run.start_unit),
                   run_end < units
                       ? plan.local_offset_of(run_end)
                       : static_cast<uint32_t>(block->data.size()));
        const uint32_t n_sb = last_sb - first_sb + 1;
        undo_.push_back({UndoStep::Kind::kSubblocks, block, nullptr, first_sb,
                         n_sb, undo_saved_.size()});
        const auto* v = reinterpret_cast<const uint8_t*>(
            block->subblock_versions.data() + first_sb);
        undo_saved_.insert(undo_saved_.end(), v, v + n_sb * sizeof(uint32_t));
        const uint32_t s0 = plan.strings_before(run.start_unit);
        const uint32_t s1 = plan.strings_before(run_end);
        if (s1 > s0) save_strings(block, s0, s1 - s0);
      }
      decode_units(*block->type, registry_.rules(), block->data.data(),
                   run.start_unit, run_end, hooks, entry.runs);
      for (uint32_t sb = first_sb; sb <= last_sb; ++sb) {
        block->subblock_versions[sb] = new_version;
      }
    }
  };

  try {
    while (reader.next(&entry)) {
      if (entry.flags & diff_flags::kFree) {
        SvrBlock* block = blocks_by_serial_.find(entry.serial);
        if (block == nullptr) {
          throw Error(ErrorCode::kProtocol, "free of unknown block");
        }
        if (predicted == block) predicted = nullptr;
        undo_.push_back({UndoStep::Kind::kUnlinked, block,
                         version_list_.next(*block)});
        unlink_block(block, new_version);
        continue;
      }
      if (entry.flags & diff_flags::kNew) {
        if (blocks_by_serial_.find(entry.serial) != nullptr) {
          throw Error(ErrorCode::kProtocol, "new block serial already exists");
        }
        SvrBlock* block = create_block(entry.serial, entry.type_serial,
                                       std::move(entry.name), new_version);
        undo_.push_back({UndoStep::Kind::kCreated, block});
        apply_runs(block, true);
        predicted = nullptr;  // new blocks sit at the tail already
        continue;
      }
      // Modified block: try the prediction before the serial tree (§3.3).
      SvrBlock* block = nullptr;
      if (predicted != nullptr && predicted->serial == entry.serial) {
        block = predicted;
        stats_.prediction_hits.fetch_add(1, std::memory_order_relaxed);
      }
      if (block == nullptr) {
        stats_.prediction_misses.fetch_add(1, std::memory_order_relaxed);
        block = blocks_by_serial_.find(entry.serial);
      }
      if (block == nullptr) {
        throw Error(ErrorCode::kProtocol, "update of unknown block");
      }
      // Capture the follower before move_to_back rearranges the list.
      VersionNode* node = version_list_.next(*block);
      while (node != nullptr && node->is_marker) {
        node = version_list_.next(*node);
      }
      predicted = static_cast<SvrBlock*>(node);
      undo_.push_back({UndoStep::Kind::kVersion, block, nullptr,
                       block->version});
      apply_runs(block, false);
      undo_.push_back({UndoStep::Kind::kMoved, block,
                       version_list_.next(*block)});
      version_list_.move_to_back(*block);
      block->version = new_version;
    }
  } catch (...) {
    // A refused diff leaves the store as it was: no reader may fetch, and
    // no replica miss, bytes of a commit that was never acknowledged. Its
    // marker goes last, after every block placed before it is back.
    undo_entries();
    next_block_serial_ = next_serial_before;
    total_data_bytes_ = data_bytes_before;
    free_history_.resize(frees_before);
    markers_.erase(*marker);
    version_list_.erase(*marker);
    owned_markers_.pop_back();
    throw;
  }
  for (const UndoStep& step : undo_) {
    if (step.kind == UndoStep::Kind::kUnlinked) release_block(step.block);
  }

  version_ = new_version;
  stats_.diffs_applied.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_applied.fetch_add(diff_bytes.size(), std::memory_order_relaxed);
  stats_.apply_ns.fetch_add(timer.elapsed_ns(), std::memory_order_relaxed);
}

void SegmentStore::scan_new_blocks(std::span<const uint8_t> diff_bytes) {
  new_blocks_.clear();
  BufReader in(diff_bytes.data(), diff_bytes.size());
  DiffReader reader(in);
  DiffEntry entry;
  while (reader.next(&entry)) {
    if (!(entry.flags & diff_flags::kNew) || (entry.flags & diff_flags::kFree)) {
      continue;
    }
    if (entry.type_serial == 0 || entry.type_serial > types_.size()) {
      throw Error(ErrorCode::kProtocol, "new block references unknown type");
    }
    new_blocks_.emplace_back(entry.serial,
                             types_[entry.type_serial - 1]->prim_units());
  }
  std::sort(new_blocks_.begin(), new_blocks_.end());
}

uint64_t SegmentStore::check_pointer_target(uint32_t serial,
                                            uint32_t unit) const {
  uint64_t units;
  if (const SvrBlock* target = blocks_by_serial_.find(serial)) {
    units = target->prim_units();
  } else if (auto it = std::lower_bound(
                 new_blocks_.begin(), new_blocks_.end(),
                 std::pair<uint32_t, uint64_t>(serial, 0));
             it != new_blocks_.end() && it->first == serial) {
    units = it->second;
  } else if (serial < next_block_serial_) {
    return 0;  // freed: a kept pointer may dangle
  } else {
    throw Error(ErrorCode::kProtocol,
                "pointer to unknown block " + std::to_string(serial));
  }
  if (unit >= units) {
    throw Error(ErrorCode::kProtocol,
                "pointer to unit " + std::to_string(unit) + " of block " +
                    std::to_string(serial) + " (" + std::to_string(units) +
                    " units)");
  }
  return units;
}

void SegmentStore::check_stored_pointers(const SvrBlock& block) const {
  block.type->visit_runs(0, block.prim_units(), [&](const PrimRun& run) {
    if (run.kind != PrimitiveKind::kPointer) return;
    uint32_t at = run.local_offset;
    for (uint64_t i = 0; i < run.unit_count; ++i, at += run.local_stride) {
      const StoredPointer p = load_pointer(block.data.data() + at);
      if (p.serial != 0) {
        check_pointer_target(p.serial, p.unit);
      } else if (p.unit != 0 &&
                 (p.unit > block.vardata.size() ||
                  p.unit - 1 != pointer_slot(*block.type, at) ||
                  block.vardata[p.unit - 1].empty())) {
        throw Error(ErrorCode::kProtocol,
                    "checkpoint: pointer field of block " +
                        std::to_string(block.serial) + " names no MIP");
      }
    }
  });
}

void SegmentStore::append_block_update(DiffWriter& writer, SvrBlock& block,
                                       uint32_t from_version) {
  ServerHooks hooks(this, &block);
  const LayoutRules& rules = registry_.rules();
  const uint64_t units = block.prim_units();
  // Types without strings or pointers have a wire size known up front,
  // which lets the writer place the section's length without moving it.
  const std::optional<uint64_t> block_wire =
      fixed_wire_size(*block.type, rules, 0, units);
  if (block.created_version > from_version) {
    writer.begin_block(block.serial, diff_flags::kNew | diff_flags::kWhole,
                       block.type_serial, block.name,
                       block_wire ? DiffWriter::run_bytes(0, units, *block_wire)
                                  : 0);
    writer.begin_run(0, static_cast<uint32_t>(units));
    encode_units(*block.type, rules, block.data.data(), 0, units, hooks,
                 writer.buffer());
    writer.end_block();
    return;
  }
  // Send full content of every subblock newer than from_version, merging
  // adjacent stale runs (the client just sees runs of modified data).
  const uint32_t n_sb = block.subblock_count();
  auto for_each_run = [&](auto&& fn) {
    uint32_t sb = 0;
    while (sb < n_sb) {
      if (block.subblock_versions[sb] <= from_version) {
        ++sb;
        continue;
      }
      uint32_t first = sb;
      while (sb < n_sb && block.subblock_versions[sb] > from_version) ++sb;
      fn(static_cast<uint64_t>(first) * kSubblockUnits,
         std::min(units, static_cast<uint64_t>(sb) * kSubblockUnits));
    }
  };
  uint64_t section_bytes = 0;
  if (block_wire) {
    uint64_t prev_end = 0;
    for_each_run([&](uint64_t unit_begin, uint64_t unit_end) {
      section_bytes += DiffWriter::run_bytes(
          unit_begin - prev_end, unit_end - unit_begin,
          *fixed_wire_size(*block.type, rules, unit_begin, unit_end));
      prev_end = unit_end;
    });
  }
  writer.begin_block(block.serial, 0, 0, {}, section_bytes);
  for_each_run([&](uint64_t unit_begin, uint64_t unit_end) {
    writer.begin_run(static_cast<uint32_t>(unit_begin),
                     static_cast<uint32_t>(unit_end - unit_begin));
    encode_units(*block.type, rules, block.data.data(), unit_begin, unit_end,
                 hooks, writer.buffer());
  });
  writer.end_block();
}

SharedBytes SegmentStore::collect_diff(uint32_t from_version) {
  if (options_.enable_diff_cache) {
    for (const CachedDiff& c : diff_cache_) {
      if (c.from_version == from_version && c.to_version == version_) {
        stats_.diff_cache_hits.fetch_add(1, std::memory_order_relaxed);
        return c.bytes;
      }
    }
    stats_.diff_cache_misses.fetch_add(1, std::memory_order_relaxed);
  }

  Stopwatch timer;
  Buffer out;
  DiffWriter writer(out, from_version, version_);
  for (const FreeRecord& fr : free_history_) {
    if (fr.freed_version > from_version &&
        fr.created_version <= from_version) {
      writer.add_free(fr.serial);
    }
  }
  // First marker newer than from_version; every block after it changed.
  Marker* marker = markers_.lower_bound(from_version + 1);
  VersionNode* node = (marker != nullptr)
                          ? version_list_.next(*marker)
                          : nullptr;
  if (marker == nullptr && version_ > from_version) {
    // No marker (e.g. store recovered from checkpoint): scan everything.
    node = version_list_.front();
  }
  for (; node != nullptr; node = version_list_.next(*node)) {
    if (node->is_marker) continue;
    auto* block = static_cast<SvrBlock*>(node);
    if (block->version <= from_version) continue;
    append_block_update(writer, *block, from_version);
  }
  writer.finish();

  auto bytes = std::make_shared<const std::vector<uint8_t>>(out.take());
  stats_.diffs_collected.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_collected.fetch_add(bytes->size(), std::memory_order_relaxed);
  stats_.collect_ns.fetch_add(timer.elapsed_ns(), std::memory_order_relaxed);
  if (options_.enable_diff_cache) {
    cache_insert(from_version, version_, bytes);
  }
  return bytes;
}

void SegmentStore::collect_fold_history(uint32_t from_version,
                                        Buffer& out) const {
  uint32_t n_created = 0;
  for (const SvrBlock* b = blocks_by_serial_.first(); b != nullptr;
       b = blocks_by_serial_.next(*b)) {
    if (b->created_version > from_version) ++n_created;
  }
  out.append_u32(n_created);
  for (const SvrBlock* b = blocks_by_serial_.first(); b != nullptr;
       b = blocks_by_serial_.next(*b)) {
    if (b->created_version <= from_version) continue;
    out.append_u32(b->serial);
    out.append_u32(b->created_version);
  }
  uint32_t n_freed = 0;
  for (const FreeRecord& fr : free_history_) {
    if (fr.freed_version > from_version) ++n_freed;
  }
  out.append_u32(n_freed);
  for (const FreeRecord& fr : free_history_) {
    if (fr.freed_version <= from_version) continue;
    out.append_u32(fr.serial);
    out.append_u32(fr.created_version);
    out.append_u32(fr.freed_version);
  }
}

uint32_t SegmentStore::apply_fold(uint32_t to_version, BufReader& in) {
  uint32_t n_created = in.read_u32();
  std::vector<std::pair<uint32_t, uint32_t>> created;
  created.reserve(n_created);
  for (uint32_t i = 0; i < n_created; ++i) {
    uint32_t serial = in.read_u32();
    uint32_t cv = in.read_u32();
    created.emplace_back(serial, cv);
  }
  uint32_t n_freed = in.read_u32();
  std::vector<FreeRecord> freed;
  freed.reserve(n_freed);
  for (uint32_t i = 0; i < n_freed; ++i) {
    FreeRecord fr;
    fr.serial = in.read_u32();
    fr.created_version = in.read_u32();
    fr.freed_version = in.read_u32();
    freed.push_back(fr);
  }
  // Blocks created and freed inside the window are absent from the diff,
  // but pointers into them (dangling) may be in it: their serials count as
  // allocated before the diff applies.
  for (const FreeRecord& fr : freed) {
    next_block_serial_ = std::max(next_block_serial_, fr.serial + 1);
  }
  const size_t history_mark = free_history_.size();
  auto diff = in.read_bytes(in.remaining());
  uint32_t got = apply_diff(diff);
  if (got < to_version) {
    // Every change in the window was a create+free pair the diff omits;
    // the version still advances to where the sync landed.
    version_ = to_version;
    got = to_version;
  }
  // destroy_block() during the fold dated frees at the fold's landing
  // version; swap in the exact records (which also cover blocks created
  // and freed inside the window — absent from the diff entirely).
  free_history_.resize(history_mark);
  free_history_.insert(free_history_.end(), freed.begin(), freed.end());
  for (const auto& [serial, cv] : created) {
    SvrBlock* b = blocks_by_serial_.find(serial);
    if (b != nullptr) b->created_version = cv;
  }
  return got;
}

SharedBytes SegmentStore::cached_section(uint32_t from_version) const {
  for (const CachedDiff& c : diff_cache_) {
    if (c.from_version == from_version && c.to_version == version_) {
      return c.section;
    }
  }
  return nullptr;
}

void SegmentStore::cache_section(uint32_t from_version, SharedBytes section) {
  for (CachedDiff& c : diff_cache_) {
    if (c.from_version == from_version && c.to_version == version_) {
      diff_cache_bytes_ -= c.footprint();
      c.section = std::move(section);
      diff_cache_bytes_ += c.footprint();
      cache_trim();
      return;
    }
  }
}

void SegmentStore::cache_insert(uint32_t from_version, uint32_t to_version,
                                SharedBytes bytes, SharedBytes section) {
  diff_cache_.push_back(
      {from_version, to_version, std::move(bytes), std::move(section)});
  diff_cache_bytes_ += diff_cache_.back().footprint();
  cache_trim();
}

void SegmentStore::cache_trim() {
  while (!diff_cache_.empty() && (diff_cache_.size() > kDiffCacheEntries ||
                                  diff_cache_bytes_ > kDiffCacheBytes)) {
    diff_cache_bytes_ -= diff_cache_.front().footprint();
    diff_cache_.pop_front();
  }
}

// ------------------------------------------------------------- checkpoint

void SegmentStore::serialize(Buffer& out) const {
  out.append_u32(version_);
  out.append_u32(next_block_serial_);
  out.append_u32(static_cast<uint32_t>(type_graphs_.size()));
  for (const auto& graph : type_graphs_) {
    out.append_u32(static_cast<uint32_t>(graph.size()));
    out.append(graph.data(), graph.size());
  }
  out.append_u32(static_cast<uint32_t>(free_history_.size()));
  for (const FreeRecord& fr : free_history_) {
    out.append_u32(fr.serial);
    out.append_u32(fr.created_version);
    out.append_u32(fr.freed_version);
  }
  // Preserve blk_version_list order (markers included) so collect_diff
  // behaves identically after recovery.
  out.append_u32(static_cast<uint32_t>(version_list_.size()));
  for (VersionNode* node = version_list_.front(); node != nullptr;
       node = version_list_.next(*node)) {
    out.append_u8(node->is_marker ? 1 : 0);
    if (node->is_marker) {
      out.append_u32(static_cast<Marker*>(node)->version);
      continue;
    }
    auto* b = static_cast<SvrBlock*>(node);
    out.append_u32(b->serial);
    out.append_lp_string(b->name);
    out.append_u32(b->type_serial);
    out.append_u32(b->created_version);
    out.append_u32(b->version);
    out.append_u32(static_cast<uint32_t>(b->data.size()));
    out.append(b->data.data(), b->data.size());
    out.append_u32(static_cast<uint32_t>(b->vardata.size()));
    for (const std::string& v : b->vardata) out.append_lp_string(v);
    out.append_u32(static_cast<uint32_t>(b->subblock_versions.size()));
    for (uint32_t sv : b->subblock_versions) out.append_u32(sv);
  }
}

std::unique_ptr<SegmentStore> SegmentStore::deserialize(std::string name,
                                                        Options options,
                                                        BufReader& in) {
  auto store = std::make_unique<SegmentStore>(std::move(name), options);
  // Nothing is dated at or before the empty segment (see version_).
  auto read_dated = [&in] {
    const uint32_t v = in.read_u32();
    if (v <= kEmptySegmentVersion) {
      throw Error(ErrorCode::kProtocol, "checkpoint: change dated at v" +
                                            std::to_string(v));
    }
    return v;
  };
  store->version_ = in.read_u32();
  store->next_block_serial_ = in.read_u32();
  uint32_t n_types = in.read_u32();
  for (uint32_t i = 0; i < n_types; ++i) {
    uint32_t len = in.read_u32();
    auto bytes = in.read_bytes(len);
    store->register_type(bytes);
  }
  uint32_t n_free = in.read_u32();
  for (uint32_t i = 0; i < n_free; ++i) {
    FreeRecord fr;
    fr.serial = in.read_u32();
    fr.created_version = read_dated();
    fr.freed_version = read_dated();
    store->free_history_.push_back(fr);
  }
  uint32_t n_nodes = in.read_u32();
  for (uint32_t i = 0; i < n_nodes; ++i) {
    if (in.read_u8() != 0) {
      uint32_t v = in.read_u32();
      store->owned_markers_.push_back(std::make_unique<Marker>(v));
      Marker* m = store->owned_markers_.back().get();
      store->version_list_.push_back(*m);
      if (!store->markers_.insert(*m)) {
        throw Error(ErrorCode::kProtocol, "checkpoint: duplicate marker");
      }
      continue;
    }
    uint32_t serial = in.read_u32();
    std::string bname = in.read_lp_string();
    uint32_t type_serial = in.read_u32();
    uint32_t created = read_dated();
    uint32_t version = read_dated();
    SvrBlock* b =
        store->create_block(serial, type_serial, std::move(bname), created);
    b->version = version;
    uint32_t data_len = in.read_u32();
    auto data = in.read_bytes(data_len);
    if (data_len != b->data.size()) {
      throw Error(ErrorCode::kProtocol, "checkpoint: block size mismatch");
    }
    std::copy(data.begin(), data.end(), b->data.begin());
    uint32_t n_var = in.read_u32();
    if (n_var < b->vardata.size() || n_var > var_slots(*b->type)) {
      throw Error(ErrorCode::kProtocol, "checkpoint: vardata size mismatch");
    }
    b->vardata.resize(n_var);
    for (uint32_t v = 0; v < n_var; ++v) b->vardata[v] = in.read_lp_string();
    uint32_t n_sb = in.read_u32();
    if (n_sb != b->subblock_versions.size()) {
      throw Error(ErrorCode::kProtocol, "checkpoint: subblock count mismatch");
    }
    for (uint32_t s = 0; s < n_sb; ++s) b->subblock_versions[s] = read_dated();
  }
  // Field bytes are stored verbatim; a pointer field must name a live or
  // freed block, or its own MIP slot, before collect reads it.
  store->for_each_block(
      [&](const SvrBlock& b) { store->check_stored_pointers(b); });
  return store;
}

}  // namespace iw::server
