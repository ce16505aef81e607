#ifndef ORION_PERFBENCH_SPANS_H_
#define ORION_PERFBENCH_SPANS_H_

// The benchmark's own span recorder.  A traced pass wraps each call the
// benchmark makes into an engine layer's public API in a span; nothing
// inside the engine is instrumented.  Spans live in memory (one log per
// connection thread, no locking) until the run ends, when they are checked
// for connectivity and summarised per name.
//
// A span is identified by (thread, index) — its position in its thread's
// log — and its parent is the span open on the same thread when it
// started.  Every op opens a root span, so the root's index is the
// identifier all spans of one op share.

#include <chrono>
#include <cstdint>
#include <vector>

namespace orion::perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Span names: one per call site the benchmark wraps.  The prefix before
/// the first '.' is the engine module (layer) the call enters.
enum class SpanName : uint16_t {
  kOpGet,
  kOpSet,
  kOpMake,
  kOpDelete,
  kOpXcell,
  kOpSelect,
  kRpcCall,         // rpc::Client call, wire passes
  kCoreReadGet,     // ReadTransaction construction + Get
  kCoreRunSet,      // Session::Run on the owning cell
  kCoreRunDelete,   // Session::Run on the owning cell
  kCoreRunMake,     // ClusterSession::Run, single cell
  kCoreBody,        // the transaction body inside Run
  kCoreRedoEncode,  // codec::AppendObjectLines, one touched object
  kCoreRedoDecode,  // codec::Tokenize + ObjectStager::Feed, its lines
  kCellRunXcell,    // ClusterSession::Run, two cells (2PC)
  kCellSelect,      // Cluster::Select (scatter-gather)
  kQuerySelect,     // ReadTransaction::Select on one cell
  kLangParse,       // ParseSexpr + Interpreter::ParseQueryExpr
  kCount,
};

inline const char* SpanNameString(SpanName n) {
  static const char* const kNames[] = {
      "op.get",           "op.set",           "op.make",
      "op.delete",        "op.xcell",         "op.select",
      "rpc.call",         "core.read.get",    "core.run.set",
      "core.run.delete",  "core.run.make",    "core.body",
      "core.redo_encode", "core.redo_decode", "cell.run.xcell",
      "cell.select",      "query.select",     "lang.parse",
  };
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                static_cast<size_t>(SpanName::kCount));
  return kNames[static_cast<size_t>(n)];
}

inline constexpr uint32_t kNoParent = UINT32_MAX;

struct SpanRecord {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;  ///< 0 while the span is open
  uint32_t parent = kNoParent;  ///< index in the same log
  uint32_t root = 0;            ///< index of the op's root span
  SpanName name = SpanName::kCount;
};

/// One connection thread's spans.  Not thread-safe; one per thread.
class SpanLog {
 public:
  uint32_t Open(SpanName name) {
    const auto idx = static_cast<uint32_t>(spans_.size());
    SpanRecord r;
    r.name = name;
    r.parent = open_.empty() ? kNoParent : open_.back();
    r.root = open_.empty() ? idx : spans_[open_.back()].root;
    r.start_ns = NowNs();
    spans_.push_back(r);
    open_.push_back(idx);
    return idx;
  }

  void Close(uint32_t idx) {
    spans_[idx].end_ns = NowNs();
    open_.pop_back();
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }
  void Reserve(size_t n) { spans_.reserve(n); }

 private:
  std::vector<SpanRecord> spans_;
  std::vector<uint32_t> open_;
};

/// RAII span; a null log makes it free (untraced passes).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, SpanName name)
      : log_(log), idx_(log != nullptr ? log->Open(name) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->Close(idx_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  uint32_t idx_;
};

}  // namespace orion::perfbench

#endif  // ORION_PERFBENCH_SPANS_H_
