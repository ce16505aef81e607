// The macro benchmark: a 2-cell durable Cluster served by an rpc::Server in
// this process, driven through rpc::Client connections as a closed loop.
// See WORKLOADS.md for the workloads, the metrics and what each should
// move.
//
//   macro --workload <cad_sync|cad_tmpfs|catalog_read> --seed <n>
//         --seconds <s> --trace <0|1> [--dir <work dir>]
//         [--git-sha <sha>] [--source-sha <digest>] [--spans-out <file>]
//   macro --all --seed <n> --seconds <s> [--dir <work dir>]
//   macro --selfcheck [--dir <work dir>]
//
// --trace 0 measures the end-to-end metrics; --trace 1 measures the
// per-layer metrics in a separate traced run of the same workload and
// seed.  --all runs every workload both ways and exits 1 if any run
// failed a check; --selfcheck does the same at a tiny size.  The last
// line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 when every correctness check passed, 1 when one
// failed, and 2 when the run could not be set up or a metric could not be
// measured (no result line then).

#include <malloc.h>
#include <sched.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fsync_elide.h"
#include "obs/metrics.h"
#include "workload.h"

#ifndef ORION_PERFBENCH_BUILD_TYPE
#define ORION_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace orion::perfbench {
namespace {

namespace fs = std::filesystem;

// --- Small helpers -----------------------------------------------------------

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Linear-interpolated percentile (p in [0, 1]) of `v`, which it sorts.
double Percentile(std::vector<uint32_t>& v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double a = v[lo];
  const double b = v[hi];
  return a + (pos - static_cast<double>(lo)) * (b - a);
}

/// Linear-interpolated quantile (q in [0, 1]) of `v`.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) {
      total += e.file_size(ec);
    }
  }
  return total;
}

/// The resident set after returning freed heap pages to the kernel, so
/// the figure counts live data rather than what the allocator happened to
/// keep.
double ResidentMb() {
  malloc_trim(0);
  std::ifstream statm("/proc/self/statm");
  uint64_t size_pages = 0;
  uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
}

std::string FsType(const std::string& path) {
  struct statfs s {};
  if (statfs(path.c_str(), &s) != 0) {
    return "unknown";
  }
  switch (static_cast<uint64_t>(s.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x01021994:
      return "tmpfs";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    case 0x794C7630:
      return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%llx",
                    static_cast<unsigned long long>(s.f_type));
      return buf;
    }
  }
}

std::string LoadAvg() {
  double l[3] = {0, 0, 0};
  if (getloadavg(l, 3) != 3) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "[%.2f, %.2f, %.2f]", l[0], l[1], l[2]);
  return buf;
}

/// Reads engine counters and histograms out of a snapshot.  A name the
/// snapshot does not hold (a counter renamed or never registered) reads
/// as 0 and is recorded in `missing`, which fails the run.
class StatsReader {
 public:
  StatsReader(const obs::MetricsSnapshot& s, std::vector<std::string>* missing)
      : s_(s), missing_(missing) {}

  uint64_t Counter(const std::string& name) const {
    const auto it = s_.counters.find(name);
    if (it == s_.counters.end()) {
      missing_->push_back(name);
      return 0;
    }
    return it->second;
  }
  double HistSum(const std::string& name) const {
    const obs::HistogramSnapshot* h = Find(name);
    return h == nullptr ? 0 : static_cast<double>(h->sum);
  }
  double HistMean(const std::string& name) const {
    const obs::HistogramSnapshot* h = Find(name);
    return h == nullptr || h->count == 0
               ? 0
               : static_cast<double>(h->sum) / static_cast<double>(h->count);
  }

 private:
  const obs::HistogramSnapshot* Find(const std::string& name) const {
    const auto it = s_.histograms.find(name);
    if (it == s_.histograms.end()) {
      missing_->push_back(name);
      return nullptr;
    }
    return &it->second;
  }

  const obs::MetricsSnapshot& s_;
  std::vector<std::string>* missing_;
};

// --- Metrics -----------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
  uint64_t samples = 0;  ///< 0: not a sample statistic
};

/// End-to-end figures printed in the table but left out of the result
/// line, so that no bound gates them.  One rule picked them: over two
/// batches of ten runs on the reference host, each spread wider than the
/// largest bound allowed (0.25), or moved its median by more, on some
/// workload.  The fsync-bound figures follow the shared disk's fsync
/// latency, select_p90_us the reclaimer's duty cycle, and get_p50_us and
/// select_p50_us on the CAD workloads jump between two modes.  See
/// WORKLOADS.md.
bool ReportOnly(const std::string& name) {
  static const char* const kNames[] = {
      "ops_per_s",     "get_p50_us",   "set_p90_us",    "select_p50_us",
      "select_p90_us", "make_p50_us",  "delete_p50_us", "xcell_p50_us"};
  return std::find(std::begin(kNames), std::end(kNames), name) !=
         std::end(kNames);
}

class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 0) {
    metrics_[name] = Metric{value, unit, samples};
  }
  const std::map<std::string, Metric>& all() const { return metrics_; }

  void PrintTable(const char* title) const {
    std::printf("%s\n", title);
    for (const auto& [name, m] : metrics_) {
      if (m.samples > 0) {
        std::printf("  %-30s %14.4f %-6s (n=%llu)%s\n", name.c_str(), m.value,
                    m.unit.c_str(), static_cast<unsigned long long>(m.samples),
                    ReportOnly(name) ? " report-only" : "");
      } else {
        std::printf("  %-30s %14.4f %s%s\n", name.c_str(), m.value,
                    m.unit.c_str(), ReportOnly(name) ? " report-only" : "");
      }
    }
  }

  std::string Json() const {
    std::ostringstream os;
    os.precision(17);
    os << "{";
    bool first = true;
    for (const auto& [name, m] : metrics_) {
      if (ReportOnly(name)) {
        continue;
      }
      os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
         << m.value << ", \"unit\": \"" << m.unit << "\"}";
      first = false;
    }
    os << "}";
    return os.str();
  }

 private:
  std::map<std::string, Metric> metrics_;
};

// --- Thread placement --------------------------------------------------------

// In the closed loop, each connection's client thread and the server
// thread that serves it are pinned to one CPU, connection c to the c-th
// CPU of AllowedCpus().  Left to the scheduler, a pair sometimes shared a
// core and sometimes woke each other across cores, and the two placements
// differ about 2x in get latency on a virtual machine, so whole runs came
// out in one mode or the other.  Every other thread of the process (each
// cell's reclaimer, the server's accept thread) runs on the CPUs the pairs
// leave free, so that it never preempts a pinned pair; when the pairs take
// every CPU, the others may run anywhere.  The probe's single pair runs
// after the loop, alone, and is left to the scheduler: pinned to one core,
// its latencies spread wider across runs than when the scheduler placed
// it.

/// The CPUs this process may use, highest first: CPU 0 takes most device
/// interrupts on a typical VM, so the pairs keep off it while they can.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus.push_back(cpu);
      }
    }
  }
  return cpus;
}

/// Restricts thread `tid` (0: the calling thread) to `cpus`.
bool SetAffinity(pid_t tid, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) {
    CPU_SET(cpu, &set);
  }
  return sched_setaffinity(tid, sizeof(set), &set) == 0;
}

std::set<pid_t> ThreadIds() {
  std::set<pid_t> ids;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator("/proc/self/task", ec)) {
    ids.insert(static_cast<pid_t>(
        std::strtol(e.path().filename().c_str(), nullptr, 10)));
  }
  return ids;
}

/// Places the threads of one pass (see above) and, when it ends, lets
/// every thread of the process run on every CPU again.
class Placement {
 public:
  explicit Placement(int pairs) : cpus_(AllowedCpus()) {
    const size_t used = std::min(static_cast<size_t>(pairs), cpus_.size());
    std::vector<int> rest(cpus_.begin() + static_cast<std::ptrdiff_t>(used),
                          cpus_.end());
    if (!rest.empty()) {
      for (const pid_t tid : ThreadIds()) {
        SetAffinity(tid, rest);
      }
    }
  }
  ~Placement() {
    if (cpus_.empty()) {
      return;
    }
    for (const pid_t tid : ThreadIds()) {
      SetAffinity(tid, cpus_);  // a thread that has ended is skipped
    }
  }

  int PairCpu(int c) const {
    return cpus_[static_cast<size_t>(c) % cpus_.size()];
  }
  /// Pins the calling thread to connection c's CPU.
  void PinSelf(int c) const { Pin(0, c); }
  void Pin(pid_t tid, int c) const {
    if (cpus_.empty()) {
      return;  // the affinity mask could not be read: leave it as it is
    }
    if (!SetAffinity(tid, {PairCpu(c)})) {
      std::fprintf(stderr, "cannot pin thread %d to cpu %d\n", tid,
                   PairCpu(c));
    }
  }

 private:
  std::vector<int> cpus_;
};

/// Connects a client and pins the server thread that accepts it to
/// connection c's CPU.  No other thread may be started meanwhile: the
/// server's thread is found as the one thread that did not exist before
/// the connect.
Result<std::unique_ptr<rpc::Client>> ConnectPinned(Fixture& f,
                                                   const Placement& placement,
                                                   int c) {
  const std::set<pid_t> before = ThreadIds();
  ORION_ASSIGN_OR_RETURN(std::unique_ptr<rpc::Client> client,
                         rpc::Client::Connect("127.0.0.1", f.server().port()));
  for (int wait_ms = 0; wait_ms < 5000; ++wait_ms) {
    for (const pid_t tid : ThreadIds()) {
      if (before.count(tid) == 0) {
        placement.Pin(tid, c);
        return client;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return Status::Internal("the server started no thread for a connection");
}

// --- Passes ------------------------------------------------------------------

// Every end-to-end figure is taken over the whole closed loop of one run:
// latency percentiles over all of its samples, ops_per_s over its whole
// wall time.  Noise is handled by repeating runs over seeds and taking
// medians, not by dropping parts of a run.

struct Pass {
  std::vector<ConnState> states;
  std::vector<SpanLog> logs;
  obs::MetricsSnapshot delta;
  uint64_t client_requests = 0;
  uint64_t client_retries = 0;
  uint64_t redo_lines = 0;

  uint64_t attempted() const {
    uint64_t n = 0;
    for (const ConnState& s : states) n += s.attempted;
    return n;
  }
  uint64_t failed() const {
    uint64_t n = 0;
    for (const ConnState& s : states) n += s.failed;
    return n;
  }
  uint64_t mismatches() const {
    uint64_t n = 0;
    for (const ConnState& s : states) n += s.mismatches;
    return n;
  }
  uint64_t select_hits() const {
    uint64_t n = 0;
    for (const ConnState& s : states) n += s.select_hits;
    return n;
  }

  /// Closed-loop ops per second: each connection's ops over its whole
  /// loop, summed over connections.  The probe is not part of it.
  double LoopRate() const {
    double rate = 0;
    for (const ConnState& s : states) {
      rate += Ratio(static_cast<double>(s.loop_ops), Seconds(s.loop_ns));
    }
    return rate;
  }

  std::vector<uint32_t> Latencies(int op) const {
    std::vector<uint32_t> all;
    for (const ConnState& s : states) {
      all.insert(all.end(), s.latency_ns[op].begin(), s.latency_ns[op].end());
    }
    return all;
  }
};

/// Makes one reclaim pass on every cell, so that what follows does not
/// depend on how far behind the background reclaimers were.  The probe
/// waits for this: a select blocks while a reclaim pass trims the index,
/// and the loop leaves a backlog of versions to trim.
void CatchUpReclaimers(Cluster& cluster) {
  for (size_t tag = 1; tag <= cluster.size(); ++tag) {
    cluster.cell(static_cast<CellTag>(tag)).db().ReclaimOnce();
  }
}

/// Runs one connection's closed loop of `ops` ops and times it.
void DriveLoop(const WorkloadSpec& spec, const Layout& layout, uint64_t ops,
               Backend& backend, SpanLog* log, ConnState& st) {
  const uint64_t t0 = NowNs();
  DriveConnection(spec, spec.mix, layout, ops, backend, log, st);
  st.loop_ns = NowNs() - t0;
  st.loop_ops = ops;
}

/// Runs `ops` ops per connection over the wire, then, once every loop
/// has ended, `probe_ops` ops of the probe mix on connection 0 (traced:
/// with a span log per connection).
Pass RunWirePass(Fixture& f, const WorkloadSpec& spec, uint64_t seed,
                 uint64_t ops, uint64_t probe_ops, bool traced) {
  Pass pass;
  const int conns = spec.connections;
  for (int c = 0; c < conns; ++c) {
    pass.states.emplace_back(c, seed, f.layout());
  }
  pass.logs.resize(traced ? conns : 0);
  std::vector<rpc::ClientStats> client_stats(conns + 1);
  std::vector<Status> errors(conns + 1, Status::Ok());
  std::vector<std::unique_ptr<rpc::Client>> clients(conns + 1);
  // The probe's pair (placement null) is left to the scheduler.
  const auto connect = [&](const Placement* placement, int c, int slot) {
    Result<std::unique_ptr<rpc::Client>> client =
        placement != nullptr
            ? ConnectPinned(f, *placement, c)
            : rpc::Client::Connect("127.0.0.1", f.server().port());
    if (client.ok()) {
      clients[slot] = std::move(*client);
    } else {
      errors[slot] = client.status();
    }
  };
  const auto drive = [&](const Placement* placement, int c, int slot,
                         uint64_t n, bool probe) {
    if (clients[slot] == nullptr) {
      return;
    }
    if (placement != nullptr) {
      placement->PinSelf(c);
    }
    SpanLog* log = traced ? &pass.logs[c] : nullptr;
    WireBackend backend(std::move(clients[slot]), log);
    if (probe) {
      DriveConnection(spec, spec.probe_mix, f.layout(), n, backend, log,
                      pass.states[c]);
    } else {
      DriveLoop(spec, f.layout(), n, backend, log, pass.states[c]);
    }
    client_stats[slot] = backend.stats();
  };
  for (SpanLog& log : pass.logs) {
    log.Reserve((ops + probe_ops) * 2 + 16);
  }
  const obs::MetricsSnapshot before = f.cluster().Stats();
  {
    const Placement loop(conns);
    for (int c = 0; c < conns; ++c) {
      connect(&loop, c, c);
    }
    std::vector<std::thread> threads;
    for (int c = 0; c < conns; ++c) {
      threads.emplace_back(drive, &loop, c, c, ops, false);
    }
    for (std::thread& t : threads) {
      t.join();
    }
  }
  CatchUpReclaimers(f.cluster());
  connect(nullptr, 0, conns);
  std::thread(drive, nullptr, 0, conns, probe_ops, true).join();
  pass.delta = f.cluster().Stats().DeltaSince(before);
  for (int slot = 0; slot <= conns; ++slot) {
    if (!errors[slot].ok()) {
      std::fprintf(stderr, "connection %d: %s\n", slot,
                   errors[slot].ToString().c_str());
      pass.states[slot % conns].Mismatch("could not connect");
    }
    pass.client_requests += client_stats[slot].requests;
    pass.client_retries += client_stats[slot].retries;
  }
  return pass;
}

/// Replays the same op streams, probe included, straight through the
/// engine API, traced.
Pass RunInProcPass(Fixture& f, const WorkloadSpec& spec, uint64_t seed,
                   uint64_t ops, uint64_t probe_ops) {
  Pass pass;
  const int conns = spec.connections;
  for (int c = 0; c < conns; ++c) {
    pass.states.emplace_back(c, seed, f.layout());
  }
  pass.logs.resize(conns);
  std::vector<uint64_t> lines(conns, 0);
  std::vector<uint64_t> bad(conns, 0);
  const auto drive = [&](const Placement* placement, int c, uint64_t n,
                         bool probe) {
    if (placement != nullptr) {
      placement->PinSelf(c);
    }
    InProcBackend backend(&f.cluster(), &pass.logs[c]);
    if (probe) {
      DriveConnection(spec, spec.probe_mix, f.layout(), n, backend,
                      &pass.logs[c], pass.states[c]);
    } else {
      DriveLoop(spec, f.layout(), n, backend, &pass.logs[c], pass.states[c]);
    }
    lines[c] += backend.redo_lines();
    bad[c] += backend.redo_mismatches();
  };
  for (SpanLog& log : pass.logs) {
    log.Reserve((ops + probe_ops) * 5 + 16);
  }
  {
    const Placement loop(conns);
    std::vector<std::thread> threads;
    for (int c = 0; c < conns; ++c) {
      threads.emplace_back(drive, &loop, c, ops, false);
    }
    for (std::thread& t : threads) {
      t.join();
    }
  }
  CatchUpReclaimers(f.cluster());
  std::thread(drive, nullptr, 0, probe_ops, true).join();
  for (int c = 0; c < conns; ++c) {
    pass.redo_lines += lines[c];
    if (bad[c] > 0) {
      pass.states[c].Mismatch("redo encode/decode did not round-trip");
    }
  }
  return pass;
}

// --- Spans -------------------------------------------------------------------

struct SpanStats {
  std::vector<uint32_t> dur_ns;
  double self_ns = 0;
};

/// Per-name durations and self times of every span in `logs`; counts the
/// spans whose parent is missing, open, or does not enclose them.
std::map<SpanName, SpanStats> SummariseSpans(const std::vector<SpanLog>& logs,
                                             uint64_t* broken,
                                             uint64_t* total) {
  std::map<SpanName, SpanStats> by_name;
  for (const SpanLog& log : logs) {
    const std::vector<SpanRecord>& spans = log.spans();
    std::vector<uint64_t> child_ns(spans.size(), 0);
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      ++*total;
      const bool closed = s.end_ns >= s.start_ns && s.end_ns != 0;
      bool ok = closed && s.root <= i && spans[s.root].parent == kNoParent;
      if (s.parent != kNoParent) {
        const SpanRecord& p = spans[s.parent];
        ok = ok && s.parent < i && p.start_ns <= s.start_ns &&
             p.end_ns >= s.end_ns && p.root == s.root;
        if (closed) {
          child_ns[s.parent] += s.end_ns - s.start_ns;
        }
      }
      if (!ok) {
        ++*broken;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const uint64_t d = spans[i].end_ns - spans[i].start_ns;
      SpanStats& st = by_name[spans[i].name];
      st.dur_ns.push_back(static_cast<uint32_t>(std::min<uint64_t>(
          d, UINT32_MAX)));
      st.self_ns += static_cast<double>(d) -
                    static_cast<double>(std::min(d, child_ns[i]));
    }
  }
  return by_name;
}

double SpanP50Us(std::map<SpanName, SpanStats>& by_name, SpanName name) {
  auto it = by_name.find(name);
  return it == by_name.end() ? 0 : Percentile(it->second.dur_ns, 0.5) / 1e3;
}

/// Writes the per-name span budget and the first few op trees.
void WriteSpans(const char* pass_name,
                std::map<SpanName, SpanStats>& by_name,
                const std::vector<SpanLog>& logs, std::ofstream& out) {
  out << "  \"" << pass_name << "\": {\n    \"budget\": {";
  bool first = true;
  for (auto& [name, st] : by_name) {
    out << (first ? "" : ",") << "\n      \"" << SpanNameString(name)
        << "\": {\"count\": " << st.dur_ns.size()
        << ", \"p50_us\": " << Percentile(st.dur_ns, 0.5) / 1e3
        << ", \"self_mean_us\": "
        << st.self_ns / 1e3 / static_cast<double>(st.dur_ns.size()) << "}";
    first = false;
  }
  out << "\n    },\n    \"sample\": [";
  first = true;
  if (!logs.empty()) {
    const std::vector<SpanRecord>& spans = logs.front().spans();
    const size_t n = std::min<size_t>(spans.size(), 200);
    for (size_t i = 0; i < n; ++i) {
      const SpanRecord& s = spans[i];
      out << (first ? "" : ",") << "\n      {\"id\": " << i
          << ", \"parent\": "
          << (s.parent == kNoParent ? std::string("null")
                                    : std::to_string(s.parent))
          << ", \"trace\": " << s.root << ", \"name\": \""
          << SpanNameString(s.name) << "\", \"start_ns\": " << s.start_ns
          << ", \"end_ns\": " << s.end_ns << "}";
      first = false;
    }
  }
  out << "\n    ]\n  }";
}

// --- Runs --------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selfcheck = false;
  bool all = false;
  std::string dir = ".bench_build/run";
  std::string git_sha = "unknown";
  std::string source_sha = "unknown";
  std::string spans_out;
};

struct Outcome {
  bool correct = true;
  /// No result: the run could not be set up, or a metric could not be
  /// measured.
  bool setup_failed = false;
  /// Engine counters or histograms the run expected but Stats() lacked.
  std::vector<std::string> missing;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricSet metrics;
};

/// Ops each connection sends in one pass.  A traced run makes three
/// passes of half the end-to-end count, so the three take about as long as
/// one end-to-end run with its repeated set-ups and restarts.
uint64_t OpsPerConnection(const WorkloadSpec& spec, const Options& o,
                          bool tiny) {
  if (tiny) {
    return 300;
  }
  const uint64_t ops = std::max<uint64_t>(
      100, static_cast<uint64_t>(
               std::llround(o.seconds * spec.nominal_ops_per_s_per_conn)));
  return o.trace ? std::max<uint64_t>(100, ops / 2) : ops;
}


/// Checks the pass's ledger against `cluster`, charges every mismatch
/// found so far (including reads checked during the pass) to the
/// outcome, and clears them for the next check.
void Check(const char* what, Cluster& cluster, const Layout& layout,
           Pass& pass, Outcome& out) {
  const uint64_t checked = VerifyCluster(cluster, layout, pass.states);
  const uint64_t mismatches = pass.mismatches();
  std::printf("correctness (%s): %llu objects checked, %llu mismatches\n",
              what, static_cast<unsigned long long>(checked),
              static_cast<unsigned long long>(mismatches));
  for (ConnState& s : pass.states) {
    for (const std::string& e : s.errors) {
      std::fprintf(stderr, "correctness (%s): %s\n", what, e.c_str());
    }
    s.errors.clear();
    s.mismatches = 0;
  }
  if (mismatches > 0) {
    out.correct = false;
  }
}

std::unique_ptr<Fixture> Setup(const WorkloadSpec& spec, uint64_t seed,
                               const std::string& dir, Outcome& out,
                               double* seconds = nullptr) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  const uint64_t t0 = NowNs();
  Result<std::unique_ptr<Fixture>> f = Fixture::Create(spec, seed, dir);
  if (seconds != nullptr) {
    *seconds = Seconds(NowNs() - t0);
  }
  if (!f.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", f.status().ToString().c_str());
    out.setup_failed = true;
    return nullptr;
  }
  return std::move(*f);
}

/// Restarts a cluster from `dir` (a fresh Cluster + EnableDurability).
std::unique_ptr<Cluster> Restart(const std::string& dir, double* seconds,
                                 Outcome& out) {
  const uint64_t t0 = NowNs();
  auto cluster = std::make_unique<Cluster>(2);
  const Status s = cluster->EnableDurability(dir);
  *seconds = Seconds(NowNs() - t0);
  if (!s.ok()) {
    std::fprintf(stderr, "restart failed: %s\n", s.ToString().c_str());
    out.correct = false;
    return nullptr;
  }
  return cluster;
}

constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 15;
constexpr double kSetupBudgetS = 1.5;

/// The end-to-end run (--trace 0).
Outcome EndToEnd(const WorkloadSpec& spec, const Options& o, bool tiny) {
  Outcome out;
  const uint64_t ops = OpsPerConnection(spec, o, tiny);
  const uint64_t probe_ops = spec.probe_ops;
  const int restarts = tiny ? 1 : 3;

  // Set-up, several times (at least kMinSetups, more while they add up to
  // less than kSetupBudgetS); the last fixture is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> f;
  double setup_total = 0;
  for (int i = 0;; ++i) {
    const std::string dir = o.dir + "/setup-" + std::to_string(i);
    double secs = 0;
    f = Setup(spec, o.seed, dir, out, &secs);
    if (f == nullptr) {
      return out;
    }
    setup_s.push_back(secs);
    setup_total += secs;
    const bool more = !tiny && i + 1 < kMaxSetups &&
                      (i + 1 < kMinSetups || setup_total < kSetupBudgetS);
    if (!more) {
      break;
    }
    f.reset();
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
  const std::string dir = f->dir();

  Pass pass =
      RunWirePass(*f, spec, o.seed, ops, probe_ops, /*traced=*/false);
  Check("live", f->cluster(), f->layout(), pass, out);
  // Let every cell's reclaimer catch up first, so the figure does not
  // depend on when its last background pass ran.
  CatchUpReclaimers(f->cluster());
  const double rss_mb = ResidentMb();
  f->Shutdown();
  const double disk_mb = static_cast<double>(DirBytes(dir)) / 1e6;

  // Restart on copies, so every restart replays the same log; the first
  // recovered cluster is checked against every acknowledged write.
  std::vector<double> restart_s;
  for (int i = 0; i < restarts; ++i) {
    const std::string copy = o.dir + "/restart";
    std::error_code ec;
    fs::remove_all(copy, ec);
    fs::copy(dir, copy, fs::copy_options::recursive, ec);
    if (ec) {
      std::fprintf(stderr, "copy failed: %s\n", ec.message().c_str());
      out.setup_failed = true;
      return out;
    }
    double secs = 0;
    std::unique_ptr<Cluster> recovered = Restart(copy, &secs, out);
    if (recovered == nullptr) {
      return out;
    }
    restart_s.push_back(secs);
    if (i == 0) {
      Check("after restart", *recovered, f->layout(), pass, out);
    }
    recovered.reset();
    fs::remove_all(copy, ec);
  }

  out.attempted = pass.attempted();
  out.failed = pass.failed();
  MetricSet& m = out.metrics;
  m.Add("setup_s", Quantile(setup_s, 0.5), "s", setup_s.size());
  m.Add("ops_per_s", pass.LoopRate(), "1/s");
  m.Add("restart_s", Quantile(restart_s, 0.5), "s", restart_s.size());
  m.Add("disk_mb", disk_mb, "MB");
  m.Add("rss_mb", rss_mb, "MB");
  const auto lat = [&](int op, const char* name, double p) {
    std::vector<uint32_t> v = pass.Latencies(op);
    m.Add(name, Percentile(v, p) / 1e3, "us", v.size());
  };
  lat(kGet, "get_p50_us", 0.5);
  lat(kGet, "get_p90_us", 0.9);
  lat(kSet, "set_p50_us", 0.5);
  lat(kSet, "set_p90_us", 0.9);
  lat(kSelect, "select_p50_us", 0.5);
  lat(kSelect, "select_p90_us", 0.9);
  lat(kMake, "make_p50_us", 0.5);
  lat(kDelete, "delete_p50_us", 0.5);
  lat(kXcell, "xcell_p50_us", 0.5);
  std::printf("error_rate %.6f (%llu failed of %llu attempted)\n",
              Ratio(static_cast<double>(out.failed),
                    static_cast<double>(out.attempted)),
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  std::error_code ec;
  fs::remove_all(dir, ec);
  return out;
}

/// The traced run (--trace 1): an untraced wire pass (engine counter
/// deltas, the restart's replay rate, the overhead baseline), a traced
/// wire pass, and a traced in-process replay, each on a fresh fixture.
Outcome Traced(const WorkloadSpec& spec, const Options& o, bool tiny) {
  Outcome out;
  const uint64_t ops = OpsPerConnection(spec, o, tiny);
  const uint64_t probe_ops = spec.probe_ops;
  MetricSet& m = out.metrics;

  // 1. Untraced wire pass.
  std::unique_ptr<Fixture> f = Setup(spec, o.seed, o.dir + "/plain", out);
  if (f == nullptr) {
    return out;
  }
  const std::string dir = f->dir();
  const uint64_t disk_before = DirBytes(dir);
  Pass plain =
      RunWirePass(*f, spec, o.seed, ops, probe_ops, /*traced=*/false);
  Check("untraced pass", f->cluster(), f->layout(), plain, out);
  f->Shutdown();
  const uint64_t disk_growth = DirBytes(dir) - disk_before;
  double restart_secs = 0;
  std::unique_ptr<Cluster> recovered = Restart(dir, &restart_secs, out);
  if (recovered == nullptr) {
    return out;
  }
  Check("after restart", *recovered, f->layout(), plain, out);
  const obs::MetricsSnapshot recovery = recovered->Stats();
  recovered.reset();
  f.reset();
  std::error_code ec;
  fs::remove_all(dir, ec);

  // 2. Traced wire pass.
  f = Setup(spec, o.seed, o.dir + "/traced", out);
  if (f == nullptr) {
    return out;
  }
  Pass wire = RunWirePass(*f, spec, o.seed, ops, probe_ops, /*traced=*/true);
  Check("traced pass", f->cluster(), f->layout(), wire, out);
  f.reset();
  fs::remove_all(o.dir + "/traced", ec);

  // 3. Traced in-process replay.
  f = Setup(spec, o.seed, o.dir + "/inproc", out);
  if (f == nullptr) {
    return out;
  }
  Pass local = RunInProcPass(*f, spec, o.seed, ops, probe_ops);
  Check("in-process pass", f->cluster(), f->layout(), local, out);
  f.reset();
  fs::remove_all(o.dir + "/inproc", ec);

  out.attempted = plain.attempted() + wire.attempted() + local.attempted();
  out.failed = plain.failed() + wire.failed() + local.failed();

  uint64_t broken = 0;
  uint64_t total = 0;
  std::map<SpanName, SpanStats> wire_spans =
      SummariseSpans(wire.logs, &broken, &total);
  std::map<SpanName, SpanStats> local_spans =
      SummariseSpans(local.logs, &broken, &total);
  std::printf("spans: %llu recorded, %llu without an enclosing parent\n",
              static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(broken));
  if (broken > 0) {
    out.correct = false;
  }
  if (!o.spans_out.empty()) {
    std::ofstream sf(o.spans_out);
    sf << "{\n";
    WriteSpans("wire", wire_spans, wire.logs, sf);
    sf << ",\n";
    WriteSpans("inproc", local_spans, local.logs, sf);
    sf << "\n}\n";
  }

  const StatsReader d(plain.delta, &out.missing);
  const StatsReader rec(recovery, &out.missing);
  const double commits = static_cast<double>(d.Counter("txn.commits"));
  const auto wire_p50_us = [&](int op) {
    std::vector<uint32_t> v = plain.Latencies(op);
    return Percentile(v, 0.5) / 1e3;
  };
  const auto local_p50 = [&](SpanName n) { return SpanP50Us(local_spans, n); };

  // rpc
  m.Add("rpc.wire_us.get",
        wire_p50_us(kGet) - local_p50(SpanName::kCoreReadGet), "us");
  m.Add("rpc.wire_us.set",
        wire_p50_us(kSet) - local_p50(SpanName::kCoreRunSet), "us");
  m.Add("rpc.server_us", d.HistMean("rpc.request_us"), "us");
  m.Add("rpc.bytes_per_op",
        Ratio(static_cast<double>(d.Counter("rpc.bytes_in") +
                                  d.Counter("rpc.bytes_out")),
              static_cast<double>(d.Counter("rpc.requests"))),
        "B");
  m.Add("rpc.retries_per_op",
        Ratio(static_cast<double>(plain.client_retries),
              static_cast<double>(plain.client_requests)),
        "ratio");
  // cell
  m.Add("cell.run_us.xcell", local_p50(SpanName::kCellRunXcell), "us");
  m.Add("cell.prepare_us", d.HistMean("cell.2pc.prepare_us"), "us");
  m.Add("cell.cross_abort_ratio",
        Ratio(static_cast<double>(d.Counter("cell.txn.cross_aborts")),
              static_cast<double>(d.Counter("cell.txn.cross"))),
        "ratio");
  m.Add("cell.select_us", local_p50(SpanName::kCellSelect), "us");
  // core
  m.Add("core.run_us.set", local_p50(SpanName::kCoreRunSet), "us");
  m.Add("core.run_us.make", local_p50(SpanName::kCoreRunMake), "us");
  m.Add("core.run_us.delete", local_p50(SpanName::kCoreRunDelete), "us");
  {
    // The body span of make ops only: core.body spans whose parent is a
    // core.run.make span.
    std::vector<uint32_t> make_body;
    for (const SpanLog& log : local.logs) {
      const std::vector<SpanRecord>& spans = log.spans();
      for (const SpanRecord& s : spans) {
        if (s.name == SpanName::kCoreBody && s.parent != kNoParent &&
            spans[s.parent].name == SpanName::kCoreRunMake) {
          make_body.push_back(static_cast<uint32_t>(s.end_ns - s.start_ns));
        }
      }
    }
    m.Add("core.body_us.make", Percentile(make_body, 0.5) / 1e3, "us");
  }
  m.Add("core.commit_us", d.HistMean("txn.commit_us"), "us");
  m.Add("core.read_us.get", local_p50(SpanName::kCoreReadGet), "us");
  m.Add("core.retries_per_commit",
        Ratio(static_cast<double>(d.Counter("session.retries")),
              static_cast<double>(d.Counter("session.commits"))),
        "ratio");
  m.Add("core.redo_encode_us", local_p50(SpanName::kCoreRedoEncode), "us");
  {
    double decode_ns = 0;
    const auto it = local_spans.find(SpanName::kCoreRedoDecode);
    if (it != local_spans.end()) {
      for (const uint32_t ns : it->second.dur_ns) decode_ns += ns;
    }
    m.Add("core.redo_decode_us",
          Ratio(decode_ns / 1e3, static_cast<double>(local.redo_lines)), "us");
  }
  m.Add("core.replay_records_per_s",
        Ratio(static_cast<double>(rec.Counter("wal.replayed_records")),
              rec.HistSum("wal.recovery_us") / 1e6),
        "1/s");
  // lock
  m.Add("lock.acquisitions_per_commit",
        Ratio(static_cast<double>(d.Counter("lock.acquisitions")), commits),
        "count");
  m.Add("lock.waits_per_commit",
        Ratio(static_cast<double>(d.Counter("lock.waits")), commits),
        "count");
  m.Add("lock.wait_us", d.HistMean("lock.wait_us"), "us");
  m.Add("lock.read_acquisitions",
        static_cast<double>(d.Counter("lock.read_acquisitions")), "count");
  // mvcc (object)
  m.Add("mvcc.publish_us", d.HistMean("mvcc.publish_us"), "us");
  m.Add("mvcc.records_per_publish",
        Ratio(static_cast<double>(d.Counter("mvcc.records_published")),
              static_cast<double>(d.Counter("mvcc.publishes"))),
        "count");
  m.Add("mvcc.chain_length", d.HistMean("mvcc.chain_length"), "count");
  m.Add("mvcc.trim_ratio",
        Ratio(static_cast<double>(d.Counter("mvcc.records_trimmed")),
              static_cast<double>(d.Counter("mvcc.records_published"))),
        "ratio");
  // query, lang
  m.Add("query.select_us", local_p50(SpanName::kQuerySelect), "us");
  m.Add("query.reverified_per_result",
        Ratio(static_cast<double>(d.Counter("query.select_reverified")),
              static_cast<double>(plain.select_hits())),
        "ratio");
  m.Add("lang.parse_us", local_p50(SpanName::kLangParse), "us");
  // wal
  m.Add("wal.fsyncs_per_commit",
        Ratio(static_cast<double>(d.Counter("wal.fsyncs")), commits),
        "ratio");
  m.Add("wal.group_size", d.HistMean("wal.group_size"), "count");
  m.Add("wal.fsync_us", d.HistMean("wal.fsync_us"), "us");
  m.Add("wal.bytes_per_commit",
        Ratio(static_cast<double>(disk_growth), commits), "B");
  // obs
  const double plain_rate = plain.LoopRate();
  const double traced_rate = wire.LoopRate();
  m.Add("obs.trace_overhead_pct",
        Ratio(plain_rate - traced_rate, plain_rate) * 100, "%");
  return out;
}

void PrintStamp(const WorkloadSpec& spec, const Options& o, uint64_t ops,
                const std::string& load_before) {
  std::printf(
      "stamp {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"git_sha\": \"%s\", \"source_sha256\": \"%s\", "
      "\"build_type\": \"%s\", \"nproc\": %ld, \"connections\": %d, "
      "\"ops_per_connection\": %llu, \"wal_fs\": \"%s\", "
      "\"fsync\": \"%s\", \"fsyncs_elided\": %llu, "
      "\"loadavg_before\": %s, \"loadavg_after\": %s}\n",
      spec.name.c_str(), static_cast<unsigned long long>(o.seed),
      o.trace ? 1 : 0, o.git_sha.c_str(), o.source_sha.c_str(),
      ORION_PERFBENCH_BUILD_TYPE, sysconf(_SC_NPROCESSORS_ONLN),
      spec.connections, static_cast<unsigned long long>(ops),
      FsType(o.dir).c_str(), spec.elide_fsync ? "elided" : "on",
      static_cast<unsigned long long>(ElidedFsyncs()), load_before.c_str(),
      LoadAvg().c_str());
}

Outcome RunOne(const WorkloadSpec& spec, Options o, bool tiny) {
  o.dir += "/" + spec.name;
  std::error_code ec;
  fs::create_directories(o.dir, ec);
  SetFsyncElided(spec.elide_fsync);
  const std::string load_before = LoadAvg();
  Outcome out = o.trace ? Traced(spec, o, tiny) : EndToEnd(spec, o, tiny);
  if (!out.setup_failed) {
    PrintStamp(spec, o, OpsPerConnection(spec, o, tiny), load_before);
    out.metrics.PrintTable(o.trace ? "per-layer metrics"
                                   : "end-to-end metrics");
    // A metric that could not be measured gives no result, never a 0.
    for (const std::string& name : out.missing) {
      std::fprintf(stderr, "engine metric %s is missing from Stats()\n",
                   name.c_str());
      out.setup_failed = true;
    }
    for (const auto& [name, metric] : out.metrics.all()) {
      if (!std::isfinite(metric.value)) {
        std::fprintf(stderr, "metric %s is not a number\n", name.c_str());
        out.setup_failed = true;
      }
    }
  }
  fs::remove_all(o.dir, ec);
  return out;
}

/// Per-layer metrics that may be 0 on a healthy run: counts of
/// conflicts, waits, retries and trims, which a run may not meet, and
/// differences of two timings, which noise can take to 0 or below
/// (rpc.wire_us.set where an fsync dominates both).
bool MayBeZero(const std::string& name) {
  static const char* const kNames[] = {
      "rpc.retries_per_op",      "cell.cross_abort_ratio",
      "core.retries_per_commit", "lock.waits_per_commit",
      "lock.wait_us",            "lock.read_acquisitions",
      "mvcc.trim_ratio",         "obs.trace_overhead_pct",
      "rpc.wire_us.set"};
  return std::find(std::begin(kNames), std::end(kNames), name) !=
         std::end(kNames);
}

/// The metrics of `out` that read 0 (or below) although the workload ran
/// what they measure.
std::vector<std::string> ZeroMetrics(const Outcome& out) {
  std::vector<std::string> zero;
  for (const auto& [name, metric] : out.metrics.all()) {
    if (!(metric.value > 0) && !MayBeZero(name)) {
      zero.push_back(name);
    }
  }
  return zero;
}

/// Every workload, end-to-end and traced, at full size or (`tiny`) at
/// self-check size.  Fails unless every run is correct and reports every
/// metric with a value above 0 (see MayBeZero); a tiny run must also have
/// no failed op.
int RunAll(Options o, bool tiny) {
  const int nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  const char* what = tiny ? "selfcheck" : "all";
  bool ok = true;
  for (const WorkloadSpec& spec : Workloads(tiny, nproc)) {
    for (const bool trace : {false, true}) {
      o.trace = trace;
      const Outcome out = RunOne(spec, o, tiny);
      const size_t want = trace ? 35 : 14;
      const std::vector<std::string> zero = ZeroMetrics(out);
      for (const std::string& name : zero) {
        std::printf("%s %s trace=%d: %s is 0\n", what, spec.name.c_str(),
                    trace ? 1 : 0, name.c_str());
      }
      const bool pass = !out.setup_failed && out.correct &&
                        out.attempted > 0 && (!tiny || out.failed == 0) &&
                        out.metrics.all().size() == want && zero.empty();
      std::printf("%s %s trace=%d: %s\n", what, spec.name.c_str(),
                  trace ? 1 : 0, pass ? "ok" : "FAILED");
      ok = ok && pass;
    }
  }
  std::printf("%s %s\n", what, ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: macro --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--dir <d>] [--git-sha <s>] "
               "[--source-sha <s>] [--spans-out <file>]\n"
               "       macro --all --seed <n> --seconds <s> [--dir <d>]\n"
               "       macro --selfcheck [--dir <d>]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    std::optional<std::string> v;
    if (a == "--selfcheck") {
      o.selfcheck = true;
      continue;
    }
    if (a == "--all") {
      o.all = true;
      continue;
    }
    if (!(v = next())) {
      return Usage();
    }
    if (a == "--workload") {
      o.workload = *v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v->c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v->c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = *v == "1";
    } else if (a == "--dir") {
      o.dir = *v;
    } else if (a == "--git-sha") {
      o.git_sha = *v;
    } else if (a == "--source-sha") {
      o.source_sha = *v;
    } else if (a == "--spans-out") {
      o.spans_out = *v;
    } else {
      return Usage();
    }
  }
  if (o.selfcheck || o.all) {
    return RunAll(o, /*tiny=*/o.selfcheck);
  }
  const int nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  for (const WorkloadSpec& spec : Workloads(/*tiny=*/false, nproc)) {
    if (spec.name != o.workload) {
      continue;
    }
    if (!(o.seconds > 0)) {
      return Usage();
    }
    const Outcome out = RunOne(spec, o, /*tiny=*/false);
    if (out.setup_failed) {
      return 2;
    }
    std::printf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": %s}\n",
        out.correct ? "true" : "false",
        static_cast<unsigned long long>(out.attempted),
        static_cast<unsigned long long>(out.failed),
        out.metrics.Json().c_str());
    std::fflush(stdout);
    return out.correct ? 0 : 1;
  }
  std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
  return Usage();
}

}  // namespace
}  // namespace orion::perfbench

int main(int argc, char** argv) { return orion::perfbench::Main(argc, argv); }
