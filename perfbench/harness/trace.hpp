// Outside-in trace: in-memory spans recorded by the benchmark's timed calls
// and by the decorators it slides into InterWeave's public seams, plus the
// summary arithmetic that turns a span forest into per-layer self times.
//
// A span is (name, start, end, parent, request id). Spans opened on one
// thread nest through a thread-local stack, so a channel call made inside a
// timed write_unlock becomes its child without any cooperation from the
// library. Server-side spans run on reactor worker threads; they carry the
// same request id as the client call that caused them and are re-parented
// onto it when the trace is summarised (link_by_request_id).
//
// Recording is off until set_enabled(true) and costs one relaxed load when
// off. Buffers are per thread and never shared on the hot path; drain()
// collects them once the run has quiesced.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace pb {

/// Monotonic nanoseconds (CLOCK_MONOTONIC; comparable across threads).
int64_t now_ns();

enum class Side : uint8_t { kBench = 0, kClient = 1, kServer = 2 };

struct Span {
  const char* name = "";  ///< static string; identity compared by content
  Side side = Side::kBench;
  uint8_t msg_type = 0;   ///< iw::MsgType of an rpc/handle span, else 0
  uint64_t id = 0;        ///< unique, never 0
  uint64_t parent = 0;    ///< 0 = root
  uint64_t rid = 0;       ///< shared request id (session << 32 | frame id)
  int64_t start = 0;
  int64_t end = 0;

  int64_t dur() const { return end - start; }
};

/// Shared request id of one frame on one server session. Session ids are
/// unique across every reactor in the process, so the pair is too.
inline uint64_t request_key(uint64_t session, uint32_t request_id) {
  return (session << 32) | request_id;
}

class Tracer {
 public:
  static Tracer& global();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span on the calling thread (parent = innermost open span) and
  /// returns its id, or 0 when recording is off or the buffer is full.
  uint64_t open(const char* name, Side side = Side::kBench);
  /// Closes span `id` (no-op for 0), stamping its request id and type.
  void close(uint64_t id, uint64_t rid = 0, uint8_t msg_type = 0);

  /// Suppresses recording on the calling thread only (sampling: a thread
  /// that runs many short critical sections records some of them).
  static void mute_thread(bool muted);

  /// Every recorded span, from every thread; clears the buffers. Call only
  /// after the threads that record have stopped or are idle.
  std::vector<Span> drain();
  /// Spans not recorded because a thread's buffer was full.
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Per-thread span cap (bounds memory on long traced runs).
  static constexpr size_t kMaxSpansPerThread = 1u << 20;

 private:
  struct ThreadBuf;
  ThreadBuf& local();

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint32_t> next_thread_{1};
};

/// RAII span on the calling thread.
class Scope {
 public:
  explicit Scope(const char* name) : id_(Tracer::global().open(name)) {}
  ~Scope() { Tracer::global().close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  uint64_t id_;
};

/// Re-parents every server-side root span onto the client-side span that
/// carries the same request id. Returns how many were linked.
size_t link_by_request_id(std::vector<Span>& spans);

/// Self time of every span: its duration minus the durations of its direct
/// children (each clipped to the parent's interval).
std::unordered_map<uint64_t, int64_t> self_times(const std::vector<Span>& spans);

/// The ledger identity for one kind of root span: for every span named
/// `root`, its duration must equal the sum of its direct children plus its
/// self (unattributed) time, with the children disjoint and inside it.
struct LedgerCheck {
  uint64_t roots = 0;
  uint64_t violations = 0;          ///< overlap, escape, or a sum mismatch
  std::vector<int64_t> unattributed_ns;  ///< one per root
};
LedgerCheck check_ledger(const std::vector<Span>& spans, const std::string& root);

/// Nearest-rank percentile (q in [0,1]) of an unsorted sample; 0 if empty.
double percentile(std::vector<double> values, double q);

/// Observations of one run, kept per time slice: [start, stop) is cut into
/// equal slices (observations outside are clamped into the first or last).
/// Statistics are taken per slice and the median over non-empty slices is
/// reported, so a disturbance confined to one slice cannot move the result.
class Windowed {
 public:
  Windowed() = default;
  Windowed(int64_t start, int64_t stop, int windows);

  void add(int64_t at, double value);
  /// Appends `other`'s observations (same slicing assumed).
  void merge(const Windowed& other);

  size_t size() const;
  /// Median over groups of slices of each group's q-percentile; groups are
  /// as many as allow ten observations beyond the percentile in each.
  double percentile(double q) const;
  /// Median over slices of observations per second.
  double rate() const;
  /// Every observation, slice order.
  std::vector<double> all() const;

 private:
  int64_t start_ = 0;
  int64_t stop_ = 1;
  std::vector<std::vector<double>> slices_ = std::vector<std::vector<double>>(1);
};

}  // namespace pb
