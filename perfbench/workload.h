#ifndef ORION_PERFBENCH_WORKLOAD_H_
#define ORION_PERFBENCH_WORKLOAD_H_

// Workload definitions, the data set a run loads, the closed-loop op
// generator, and the ledger every connection keeps of its acknowledged
// writes.
//
// A run drives an op stream through a `Backend`: `WireBackend` sends each
// op over one rpc::Client connection (the end-to-end path), `InProcBackend`
// replays the same stream straight through the engine's public API (the
// traced run's per-layer reference).  The stream is generated on the fly
// from the connection's seeded RNG and its own ledger, so both backends see
// the same sequence of choices for the same seed.

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cell/cluster.h"
#include "cell/cluster_session.h"
#include "common/result.h"
#include "common/status.h"
#include "core/session.h"
#include "lang/interpreter.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "spans.h"

namespace orion::perfbench {

enum Op : uint8_t { kGet, kSet, kMake, kDelete, kXcell, kSelect, kOpCount };

struct WorkloadSpec {
  std::string name;
  int connections = 1;
  int assemblies = 0;
  int parts_per_assembly = 0;
  /// Op mix of the closed loop in per mille, indexed by Op; sums to 1000.
  std::array<int, kOpCount> mix{};
  /// Mix of the probe: the ops outside `mix`, sent one at a time on one
  /// connection after the closed loop has ended, so that every latency
  /// metric has samples on every workload without changing the loop.
  std::array<int, kOpCount> probe_mix{};
  /// Ops in the probe: enough to take about a second on the reference
  /// host, so its percentiles do not hang on one short window.
  uint64_t probe_ops = 0;
  /// Gets pick from a shared hot set (true) or uniformly among the
  /// connection's own parts (false).
  bool hot_reads = false;
  /// fsync returns without syncing: the WAL still writes every record,
  /// but hardening costs nothing (tmpfs semantics), so commit CPU sets
  /// the write latency.
  bool elide_fsync = false;
  /// Sizes the fixed per-connection op count: seconds x this rate.
  double nominal_ops_per_s_per_conn = 1000;
};

/// The three named workloads (see WORKLOADS.md), at full or self-check
/// size.  Connection counts are capped at `max_connections` (nproc), and
/// at half of it for the workloads whose threads never park on I/O.
std::vector<WorkloadSpec> Workloads(bool tiny, int max_connections);

/// SplitMix64: small, fast, and fully determined by its seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t s_;
};

/// A written value names its writer: (connection + 1) << 32 | sequence.
/// Sequence 0 is the value the loader wrote.
inline int64_t Stamp(int conn, uint64_t seq) {
  return static_cast<int64_t>((static_cast<uint64_t>(conn + 1) << 32) | seq);
}
inline int StampOwner(int64_t v) {
  return static_cast<int>((static_cast<uint64_t>(v) >> 32)) - 1;
}

/// What set-up loaded: read-only once the passes start.
struct Layout {
  int connections = 0;
  std::vector<Uid> assemblies;
  std::vector<int> assembly_owner;
  std::vector<std::vector<Uid>> parts;  ///< loaded parts, per assembly
  std::vector<std::vector<uint32_t>> owned;  ///< assembly indexes, per conn
  std::array<std::vector<uint32_t>, 2> in_cell;  ///< assembly indexes
  std::vector<Uid> all_parts;  ///< every loaded part
  std::vector<int> part_owner;
  std::vector<uint32_t> hot;  ///< indexes into all_parts
  int64_t tags = 1;
  std::vector<std::vector<Uid>> tag_members;  ///< sorted, per Tag value
};

/// One acknowledged Rev write, with the interval it was in flight.
struct RevWrite {
  int64_t value = 0;
  uint64_t start_ns = 0;
  uint64_t ack_ns = 0;
};

/// A connection's op stream state, its ledger of acknowledged writes,
/// and its latency samples.
struct ConnState {
  ConnState(int id, uint64_t seed, const Layout& layout);

  int id;
  Rng rng;
  uint64_t seq = 0;
  /// Live parts under this connection's assemblies (loaded + made).
  std::vector<Uid> own_parts;
  std::unordered_map<Uid, size_t> own_pos;
  /// Last acknowledged W of every part in own_parts.
  std::unordered_map<Uid, int64_t> w;
  /// Parts this connection made and has not deleted, with their assembly.
  std::vector<Uid> made_live;
  std::unordered_map<Uid, uint32_t> made_assembly;
  std::vector<Uid> deleted;
  /// This connection's last acknowledged Rev write, per assembly index.
  std::unordered_map<uint32_t, RevWrite> rev;
  /// Objects / assemblies a failed write may or may not have changed.
  std::unordered_set<Uid> uncertain;
  std::unordered_set<uint32_t> uncertain_assemblies;

  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t select_hits = 0;
  uint64_t mismatches = 0;
  std::vector<std::string> errors;  ///< the first few mismatches
  std::array<std::vector<uint32_t>, kOpCount> latency_ns;
  /// Wall time of this connection's closed loop (the probe excluded).
  uint64_t loop_ops = 0;
  uint64_t loop_ns = 0;

  void Mismatch(std::string what);
};

/// The operations a workload issues, implemented once over the wire and
/// once in process.  Values are the stamps above.
class Backend {
 public:
  virtual ~Backend() = default;
  virtual Result<int64_t> GetW(Uid part) = 0;
  virtual Status SetW(Uid part, int64_t w) = 0;
  /// One txn: a new Part (W, Tag) under `assembly`, and its Rev.
  virtual Result<Uid> MakePart(Uid assembly, int64_t w, int64_t tag,
                               int64_t rev) = 0;
  virtual Status DeletePart(Uid part) = 0;
  /// One txn setting Rev on two assemblies in different cells.
  virtual Status SetRevs(Uid a1, int64_t r1, Uid a2, int64_t r2) = 0;
  virtual Result<std::vector<Uid>> SelectTag(int64_t tag) = 0;
};

class WireBackend : public Backend {
 public:
  WireBackend(std::unique_ptr<rpc::Client> client, SpanLog* log)
      : client_(std::move(client)), log_(log) {}
  Result<int64_t> GetW(Uid part) override;
  Status SetW(Uid part, int64_t w) override;
  Result<Uid> MakePart(Uid assembly, int64_t w, int64_t tag,
                       int64_t rev) override;
  Status DeletePart(Uid part) override;
  Status SetRevs(Uid a1, int64_t r1, Uid a2, int64_t r2) override;
  Result<std::vector<Uid>> SelectTag(int64_t tag) override;
  const rpc::ClientStats& stats() const { return client_->stats(); }

 private:
  std::unique_ptr<rpc::Client> client_;
  SpanLog* log_;
};

/// The server's routing, called directly: gets through ReadTransaction,
/// set/delete through the owning cell's Session::Run, make and the
/// two-cell txn through ClusterSession::Run, select parsed by an
/// Interpreter and scattered with Cluster::Select.  When traced, each
/// write is followed by a redo encode + decode of the objects it touched
/// (the codec the WAL and recovery run), and each select also runs
/// ReadTransaction::Select on every cell.
class InProcBackend : public Backend {
 public:
  InProcBackend(Cluster* cluster, SpanLog* log);
  Result<int64_t> GetW(Uid part) override;
  Status SetW(Uid part, int64_t w) override;
  Result<Uid> MakePart(Uid assembly, int64_t w, int64_t tag,
                       int64_t rev) override;
  Status DeletePart(Uid part) override;
  Status SetRevs(Uid a1, int64_t r1, Uid a2, int64_t r2) override;
  Result<std::vector<Uid>> SelectTag(int64_t tag) override;

  uint64_t redo_lines() const { return redo_lines_; }
  uint64_t redo_mismatches() const { return redo_mismatches_; }

 private:
  /// Encodes and decodes the committed after-images of `uids`.
  void RedoRoundTrip(std::initializer_list<Uid> uids);

  Cluster* cluster_;
  SpanLog* log_;
  ClusterSession cluster_session_;
  std::vector<std::unique_ptr<Session>> cell_sessions_;
  Interpreter interp_;
  ClassId part_cls_ = kInvalidClass;
  uint64_t redo_lines_ = 0;
  uint64_t redo_mismatches_ = 0;
};

/// A 2-cell durable cluster with the workload's schema and data, served
/// by an rpc::Server on an ephemeral loopback port.
class Fixture {
 public:
  /// Builds the cluster under `dir` (which must not exist yet) and loads
  /// the data over the wire: one `make` per batch of assembly roots, then
  /// one `txn` per assembly for its parts.
  static Result<std::unique_ptr<Fixture>> Create(const WorkloadSpec& spec,
                                                 uint64_t seed,
                                                 const std::string& dir);
  ~Fixture();

  Cluster& cluster() { return *cluster_; }
  rpc::Server& server() { return *server_; }
  const Layout& layout() const { return layout_; }
  const std::string& dir() const { return dir_; }
  /// Stops the server and destroys the cluster (a clean stop).
  void Shutdown();

 private:
  Fixture() = default;
  Status Load(const WorkloadSpec& spec, uint64_t seed);

  std::string dir_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<rpc::Server> server_;
  Layout layout_;
};

/// Drives `ops` operations of `mix` on one connection, closed loop: each
/// op is issued after the previous one returned.  Reads are checked
/// against the ledger as they return.
void DriveConnection(const WorkloadSpec& spec,
                     const std::array<int, kOpCount>& mix,
                     const Layout& layout, uint64_t ops, Backend& backend,
                     SpanLog* log, ConnState& st);

/// Checks every connection's ledger against `cluster` (live or
/// recovered); mismatches are charged to the states.  Returns the number
/// of objects checked.
uint64_t VerifyCluster(Cluster& cluster, const Layout& layout,
                       std::vector<ConnState>& states);

}  // namespace orion::perfbench

#endif  // ORION_PERFBENCH_WORKLOAD_H_
