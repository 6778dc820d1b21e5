// iwinspect — inspect a segment on a running InterWeave server, or its
// on-disk durability artifacts with the server down.
//
// Usage: iwinspect [--port=N] [--data] <segment-url>
//        iwinspect --wal <file.iwlog>
//
// Online, prints the segment's version, registered types, and block
// directory (serial, type, name) using the same wire protocol as any
// client. With --data it additionally maps the segment as a real client
// and pretty-prints every block's contents (pointers shown as MIPs).
//
// Offline, --wal dumps a write-ahead journal record by record (type,
// version, on-disk vs raw payload size, compression flag); it reads the
// `<file.iwlog>.corrupt` copy recovery sets aside before it cuts a journal
// the same way. A record's body is read through the codec's one section
// decoder, so the dump stops where recovery would: at the first torn or
// corrupt record, or the first body that does not decode. Any other
// `--` option prints the usage and exits 2.
#include <cstdio>
#include <cstring>

#include "client/view.hpp"
#include "interweave/interweave.hpp"
#include "net/tcp.hpp"
#include "server/wal.hpp"
#include "types/registry.hpp"
#include "wire/frame.hpp"
#include "wire/payload.hpp"

namespace {

const char* kind_name(iw::TypeKind kind) {
  switch (kind) {
    case iw::TypeKind::kPrimitive: return "primitive";
    case iw::TypeKind::kString: return "string";
    case iw::TypeKind::kPointer: return "pointer";
    case iw::TypeKind::kArray: return "array";
    case iw::TypeKind::kStruct: return "struct";
  }
  return "?";
}

std::string describe(const iw::TypeDescriptor* t) {
  switch (t->kind()) {
    case iw::TypeKind::kPrimitive:
      return iw::primitive_kind_name(t->primitive());
    case iw::TypeKind::kString:
      return "string<" + std::to_string(t->string_capacity()) + ">";
    case iw::TypeKind::kPointer:
      return t->pointee() ? describe(t->pointee()) + "*" : "void*";
    case iw::TypeKind::kArray:
      return describe(t->element()) + "[" + std::to_string(t->count()) + "]";
    case iw::TypeKind::kStruct:
      return "struct " + t->struct_name() + " {" +
             std::to_string(t->fields().size()) + " fields}";
  }
  return "?";
}

/// Recursively pretty-prints units [unit, unit + type->prim_units()) of a
/// block through a View; arrays are truncated after `max_elems`.
void print_value(iw::Client& client, iw::client::View& view,
                 const iw::TypeDescriptor* type, uint64_t unit, int indent,
                 uint64_t max_elems = 8) {
  auto pad = [&] { std::printf("%*s", indent, ""); };
  switch (type->kind()) {
    case iw::TypeKind::kPrimitive:
      pad();
      if (type->primitive() == iw::PrimitiveKind::kFloat32 ||
          type->primitive() == iw::PrimitiveKind::kFloat64) {
        std::printf("%g\n", view.get_f64(unit));
      } else {
        std::printf("%lld\n", static_cast<long long>(view.get_int(unit)));
      }
      break;
    case iw::TypeKind::kString:
      pad();
      std::printf("\"%s\"\n", view.get_string(unit).c_str());
      break;
    case iw::TypeKind::kPointer: {
      pad();
      void* p = view.get_ptr(unit);
      std::printf("-> %s\n", p ? client.ptr_to_mip(p).c_str() : "(null)");
      break;
    }
    case iw::TypeKind::kArray: {
      uint64_t n = std::min<uint64_t>(type->count(), max_elems);
      for (uint64_t i = 0; i < n; ++i) {
        pad();
        std::printf("[%llu]\n", static_cast<unsigned long long>(i));
        print_value(client, view, type->element(),
                    unit + i * type->element()->prim_units(), indent + 2,
                    max_elems);
      }
      if (n < type->count()) {
        pad();
        std::printf("... (%llu more)\n",
                    static_cast<unsigned long long>(type->count() - n));
      }
      break;
    }
    case iw::TypeKind::kStruct:
      for (const auto& f : type->fields()) {
        pad();
        std::printf(".%s\n", f.name.c_str());
        print_value(client, view, f.type, unit + f.prim_offset, indent + 2,
                    max_elems);
      }
      break;
  }
}

int dump_data(unsigned port, const std::string& url) {
  iw::Client client([port](const std::string&) {
    return std::make_shared<iw::TcpClientChannel>(static_cast<uint16_t>(port));
  });
  iw::ClientSegment* seg = client.open_segment(url, /*create=*/false);
  client.read_lock(seg);
  std::printf("data (version %u):\n", seg->version());
  seg->heap().for_each_block([&](iw::client::BlockHeader* blk) {
    std::printf("block #%u%s%s:\n", blk->serial, blk->name ? " " : "",
                blk->name ? blk->name->c_str() : "");
    iw::client::View view(client, blk);
    print_value(client, view, blk->type, 0, 2);
  });
  client.read_unlock(seg);
  return 0;
}

const char* wal_type_name(iw::server::WalRecordType type) {
  switch (type) {
    case iw::server::WalRecordType::kSegmentCreate: return "segment-create";
    case iw::server::WalRecordType::kRegisterType: return "register-type";
    case iw::server::WalRecordType::kCommit: return "commit";
    case iw::server::WalRecordType::kSegmentDestroy: return "segment-destroy";
    case iw::server::WalRecordType::kEpochAdopt: return "epoch-adopt";
  }
  return "?";
}

/// The raw size of a record body in its section envelope, decoded as
/// recovery decodes it; `compressed` is read from the method byte. Throws
/// a typed Error for a body recovery would stop at.
size_t section_raw_size(std::span<const uint8_t> body, bool* compressed) {
  iw::BufReader in(body.data(), body.size());
  std::vector<uint8_t> scratch;
  *compressed = !body.empty() && body[0] == iw::payload_method::kLz;
  return iw::read_record_section(in, scratch).size();
}

int dump_wal(const std::string& path) {
  auto replay = iw::server::WriteAheadLog::replay(path);
  if (replay.missing) {
    std::fprintf(stderr, "iwinspect: no such journal: %s\n", path.c_str());
    return 1;
  }
  std::printf("journal  %s\n", path.c_str());
  std::printf("records  %zu\n", replay.records.size());
  uint64_t stored = 0, raw = 0, compressed = 0;
  size_t index = 0;
  for (const auto& rec : replay.records) {
    const uint64_t on_disk = iw::kFramedPrefixBytes + rec.payload.size();
    size_t raw_size = rec.payload.size();
    bool packed = false;
    if ((rec.type == iw::server::WalRecordType::kCommit ||
         rec.type == iw::server::WalRecordType::kRegisterType) &&
        rec.payload.size() >= 4) {
      try {
        raw_size = 4 + section_raw_size(
                           std::span(rec.payload).subspan(4), &packed);
      } catch (const iw::Error& e) {
        std::printf("undecodable body (%s): recovery stops here\n",
                    e.what());
        break;
      }
    }
    stored += on_disk;
    raw += raw_size;
    if (packed) ++compressed;
    std::printf("  [%zu] %-15s", index++, wal_type_name(rec.type));
    if (rec.type == iw::server::WalRecordType::kCommit &&
        rec.payload.size() >= 4) {
      iw::BufReader r(rec.payload.data(), rec.payload.size());
      std::printf(" v%-6u", r.read_u32());
    } else if (rec.type == iw::server::WalRecordType::kEpochAdopt &&
               rec.payload.size() >= 4) {
      iw::BufReader r(rec.payload.data(), rec.payload.size());
      std::printf(" e%-6u", r.read_u32());
    } else {
      std::printf("        ");
    }
    std::printf(" %6llu bytes on disk, %6zu raw%s\n",
                static_cast<unsigned long long>(on_disk), raw_size,
                packed ? "  (compressed)" : "");
  }
  std::printf("compressed %llu/%zu records, %llu bytes on disk for %llu raw\n",
              static_cast<unsigned long long>(compressed),
              replay.records.size(), static_cast<unsigned long long>(stored),
              static_cast<unsigned long long>(raw));
  if (replay.torn_tail) {
    std::printf("torn tail: %llu bytes past offset %llu do not parse\n",
                static_cast<unsigned long long>(replay.truncated_bytes),
                static_cast<unsigned long long>(replay.valid_bytes));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  unsigned port = 7747;
  bool data = false;
  std::string url;
  std::string wal_path;
  bool bad_option = false;
  for (int i = 1; i < argc; ++i) {
    if (std::sscanf(argv[i], "--port=%u", &port) == 1) continue;
    if (std::strcmp(argv[i], "--data") == 0) {
      data = true;
      continue;
    }
    if (std::strcmp(argv[i], "--wal") == 0 && i + 1 < argc) {
      wal_path = argv[++i];
      continue;
    }
    if (std::strncmp(argv[i], "--", 2) == 0) {
      bad_option = true;
      continue;
    }
    url = argv[i];
  }
  if (bad_option || (url.empty() && wal_path.empty())) {
    std::fprintf(stderr,
                 "usage: %s [--port=N] [--data] <segment-url>\n"
                 "       %s --wal <file.iwlog>\n",
                 argv[0], argv[0]);
    return 2;
  }
  if (!wal_path.empty()) {
    try {
      return dump_wal(wal_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "iwinspect: %s\n", e.what());
      return 1;
    }
  }
  if (data) {
    try {
      return dump_data(port, url);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "iwinspect: %s\n", e.what());
      return 1;
    }
  }

  try {
    iw::TcpClientChannel channel(static_cast<uint16_t>(port));
    iw::Buffer payload;
    payload.append_varint(0);  // handle 0: a one-shot query binds nothing
    payload.append_vstring(url);
    iw::Frame resp =
        channel.call(iw::MsgType::kSegmentInfo, std::move(payload));
    iw::BufReader r = resp.reader();

    uint32_t version = r.read_varint32();
    std::printf("segment  %s\n", url.c_str());
    std::printf("version  %u\n", version);

    iw::TypeRegistry registry(iw::Platform::native().rules);
    uint32_t n_types = r.read_varint32();
    std::vector<const iw::TypeDescriptor*> types;
    std::printf("types    %u\n", n_types);
    for (uint32_t serial = 1; serial <= n_types; ++serial) {
      auto graph = r.read_bytes(r.read_varint32());
      iw::BufReader gr(graph.data(), graph.size());
      const iw::TypeDescriptor* t = iw::TypeCodec::decode_graph(gr, registry);
      types.push_back(t);
      std::printf("  [%u] %-9s %s  (%llu units, %u bytes native)\n", serial,
                  kind_name(t->kind()), describe(t).c_str(),
                  static_cast<unsigned long long>(t->prim_units()),
                  t->local_size());
    }

    uint32_t n_blocks = r.read_varint32();
    std::printf("blocks   %u\n", n_blocks);
    for (uint32_t i = 0; i < n_blocks; ++i) {
      uint32_t serial = r.read_varint32();
      uint32_t type_serial = r.read_varint32();
      std::string name = r.read_vstring();
      std::printf("  #%-6u type=%-3u %s\n", serial, type_serial,
                  name.empty() ? "(unnamed)" : name.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "iwinspect: %s\n", e.what());
    return 1;
  }
  return 0;
}
