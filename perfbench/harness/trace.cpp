#include "trace.hpp"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>

namespace pb {

int64_t now_ns() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

struct Tracer::ThreadBuf {
  uint64_t tag = 0;  // thread index << 40; span ids are tag | sequence
  uint64_t next = 1;
  std::vector<Span> spans;
  std::vector<size_t> open;  // indices into spans of the open stack
};

namespace {
std::mutex g_bufs_mu;
std::vector<std::shared_ptr<void>>& all_bufs() {
  static std::vector<std::shared_ptr<void>> bufs;
  return bufs;
}
}  // namespace

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadBuf& Tracer::local() {
  thread_local ThreadBuf* buf = nullptr;
  if (buf == nullptr) {
    auto owned = std::make_shared<ThreadBuf>();
    owned->tag = static_cast<uint64_t>(next_thread_.fetch_add(1)) << 40;
    owned->spans.reserve(4096);
    buf = owned.get();
    std::lock_guard lock(g_bufs_mu);
    all_bufs().push_back(std::move(owned));
  }
  return *buf;
}

namespace {
thread_local bool t_muted = false;
}  // namespace

void Tracer::mute_thread(bool muted) { t_muted = muted; }

uint64_t Tracer::open(const char* name, Side side) {
  if (!enabled() || t_muted) return 0;
  ThreadBuf& b = local();
  if (b.spans.size() >= kMaxSpansPerThread) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  Span s;
  s.name = name;
  s.side = side;
  s.id = b.tag | b.next++;
  s.parent = b.open.empty() ? 0 : b.spans[b.open.back()].id;
  s.start = now_ns();
  b.open.push_back(b.spans.size());
  b.spans.push_back(s);
  return s.id;
}

void Tracer::close(uint64_t id, uint64_t rid, uint8_t msg_type) {
  if (id == 0) return;
  int64_t end = now_ns();
  ThreadBuf& b = local();
  // Spans close in LIFO order on one thread; search from the top so an
  // exception that skipped an inner close cannot corrupt an outer one.
  for (size_t i = b.open.size(); i-- > 0;) {
    Span& s = b.spans[b.open[i]];
    if (s.id != id) continue;
    s.end = end;
    s.rid = rid;
    s.msg_type = msg_type;
    for (size_t j = i + 1; j < b.open.size(); ++j) {
      b.spans[b.open[j]].end = end;  // abandoned inner spans end here
    }
    b.open.resize(i);
    return;
  }
}

std::vector<Span> Tracer::drain() {
  std::vector<Span> out;
  std::lock_guard lock(g_bufs_mu);
  for (auto& p : all_bufs()) {
    auto* b = static_cast<ThreadBuf*>(p.get());
    size_t closed = b->open.empty() ? b->spans.size() : b->open.front();
    out.insert(out.end(), b->spans.begin(), b->spans.begin() + closed);
    b->spans.erase(b->spans.begin(), b->spans.begin() + closed);
    for (size_t& idx : b->open) idx -= closed;
  }
  return out;
}

size_t link_by_request_id(std::vector<Span>& spans) {
  std::unordered_map<uint64_t, uint64_t> client_by_rid;
  for (const Span& s : spans) {
    if (s.side == Side::kClient && s.rid != 0) client_by_rid[s.rid] = s.id;
  }
  size_t linked = 0;
  for (Span& s : spans) {
    if (s.side != Side::kServer || s.parent != 0 || s.rid == 0) continue;
    auto it = client_by_rid.find(s.rid);
    if (it == client_by_rid.end()) continue;
    s.parent = it->second;
    ++linked;
  }
  return linked;
}

std::unordered_map<uint64_t, int64_t> self_times(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, const Span*> by_id;
  by_id.reserve(spans.size());
  for (const Span& s : spans) by_id[s.id] = &s;
  std::unordered_map<uint64_t, int64_t> self;
  self.reserve(spans.size());
  for (const Span& s : spans) self[s.id] += s.dur();
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    auto it = by_id.find(s.parent);
    if (it == by_id.end()) continue;
    const Span& p = *it->second;
    int64_t lo = std::max(s.start, p.start);
    int64_t hi = std::min(s.end, p.end);
    self[p.id] -= std::max<int64_t>(0, hi - lo);
  }
  return self;
}

LedgerCheck check_ledger(const std::vector<Span>& spans, const std::string& root) {
  LedgerCheck out;
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::unordered_map<uint64_t, int64_t> self = self_times(spans);
  for (const Span& s : spans) {
    if (root != s.name) continue;
    ++out.roots;
    std::vector<const Span*> kids = children[s.id];
    std::sort(kids.begin(), kids.end(),
              [](const Span* a, const Span* b) { return a->start < b->start; });
    bool ok = true;
    int64_t sum = 0;
    int64_t cursor = s.start;
    for (const Span* k : kids) {
      if (k->start < cursor || k->end > s.end || k->end < k->start) ok = false;
      cursor = std::max(cursor, k->end);
      sum += k->dur();
    }
    int64_t unattributed = self[s.id];
    if (unattributed < 0 || sum + unattributed != s.dur()) ok = false;
    if (!ok) ++out.violations;
    out.unattributed_ns.push_back(unattributed);
  }
  return out;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(q * static_cast<double>(values.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

Windowed::Windowed(int64_t start, int64_t stop, int windows)
    : start_(start), stop_(std::max(start + 1, stop)),
      slices_(static_cast<size_t>(std::max(1, windows))) {}

void Windowed::add(int64_t at, double value) {
  const auto n = static_cast<int64_t>(slices_.size());
  int64_t w = (at - start_) * n / (stop_ - start_);
  slices_[static_cast<size_t>(std::clamp<int64_t>(w, 0, n - 1))].push_back(value);
}

void Windowed::merge(const Windowed& other) {
  for (size_t i = 0; i < slices_.size() && i < other.slices_.size(); ++i) {
    slices_[i].insert(slices_[i].end(), other.slices_[i].begin(),
                      other.slices_[i].end());
  }
}

size_t Windowed::size() const {
  size_t n = 0;
  for (const auto& s : slices_) n += s.size();
  return n;
}

double Windowed::percentile(double q) const {
  // Each group of slices must hold at least ten observations beyond the
  // q-percentile, so a high percentile is taken over fewer, wider groups.
  const auto need = static_cast<size_t>(std::ceil(10.0 / std::max(1e-9, 1.0 - q)));
  const size_t n = slices_.size();
  const size_t groups = std::clamp<size_t>(size() / need, 1, n);
  std::vector<double> per;
  for (size_t g = 0; g < groups; ++g) {
    std::vector<double> v;
    for (size_t i = g * n / groups; i < (g + 1) * n / groups; ++i) {
      v.insert(v.end(), slices_[i].begin(), slices_[i].end());
    }
    if (!v.empty()) per.push_back(pb::percentile(std::move(v), q));
  }
  return pb::percentile(std::move(per), 0.5);
}

double Windowed::rate() const {
  const double slice_s = static_cast<double>(stop_ - start_) / 1e9 /
                         static_cast<double>(slices_.size());
  std::vector<double> per;
  for (const auto& s : slices_) per.push_back(static_cast<double>(s.size()) / slice_s);
  return pb::percentile(std::move(per), 0.5);
}

std::vector<double> Windowed::all() const {
  std::vector<double> out;
  for (const auto& s : slices_) out.insert(out.end(), s.begin(), s.end());
  return out;
}

}  // namespace pb
