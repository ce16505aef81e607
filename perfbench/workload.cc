#include "workload.h"

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <sstream>
#include <thread>
#include <utility>

#include "core/read_transaction.h"
#include "core/snapshot_codec.h"
#include "lang/sexpr.h"
#include "rpc/wire.h"

namespace orion::perfbench {

std::vector<WorkloadSpec> Workloads(bool tiny, int max_connections) {
  const auto conns = [max_connections](int n) {
    return std::max(1, std::min(n, max_connections));
  };
  // The server runs a thread per connection.  Where nothing parks on I/O,
  // client and server threads of more than nproc/2 connections compete
  // for the cores with each cell's reclaimer thread, and throughput then
  // follows the scheduler rather than the code.
  const int cpu_bound_conns = std::max(1, std::min(2, max_connections / 2));
  // Mix order: get, set, make, delete, xcell, select (per mille).
  WorkloadSpec cad_sync{
      .name = "cad_sync",
      .connections = conns(4),
      .assemblies = tiny ? 16 : 512,
      .parts_per_assembly = tiny ? 4 : 16,
      .mix = {300, 350, 150, 100, 100, 0},
      .probe_mix = {0, 0, 0, 0, 0, 1000},
      .probe_ops = tiny ? 100u : 15000u,
      .hot_reads = false,
      .elide_fsync = false,
      .nominal_ops_per_s_per_conn = 3000,
  };
  WorkloadSpec cad_tmpfs = cad_sync;
  cad_tmpfs.name = "cad_tmpfs";
  cad_tmpfs.connections = cpu_bound_conns;
  cad_tmpfs.elide_fsync = true;
  cad_tmpfs.nominal_ops_per_s_per_conn = 8000;
  // The probe makes before it deletes: a delete needs a made part.
  WorkloadSpec catalog_read{
      .name = "catalog_read",
      .connections = cpu_bound_conns,
      .assemblies = tiny ? 32 : 2048,
      .parts_per_assembly = tiny ? 8 : 32,
      .mix = {940, 10, 0, 0, 0, 50},
      .probe_mix = {0, 0, 400, 300, 300, 0},
      .probe_ops = tiny ? 100u : 3000u,
      .hot_reads = true,
      .elide_fsync = false,
      .nominal_ops_per_s_per_conn = 33000,
  };
  return {cad_sync, cad_tmpfs, catalog_read};
}

ConnState::ConnState(int id_in, uint64_t seed, const Layout& layout)
    : id(id_in), rng(seed * 0x100000001B3ull + 0x9E37ull * (id_in + 1)) {
  for (const uint32_t a : layout.owned[id]) {
    for (const Uid p : layout.parts[a]) {
      own_pos[p] = own_parts.size();
      own_parts.push_back(p);
      w[p] = Stamp(id, 0);
    }
  }
}

void ConnState::Mismatch(std::string what) {
  ++mismatches;
  if (errors.size() < 5) {
    errors.push_back("conn " + std::to_string(id) + ": " + std::move(what));
  }
}

// --- WireBackend -------------------------------------------------------------

namespace {

Result<int64_t> AsInteger(const Value& v) {
  if (v.type() != ValueType::kInteger) {
    return Status::Internal("expected an integer, got " + v.ToString());
  }
  return v.integer();
}

std::string TagQuery(int64_t tag) {
  return "(= Tag " + std::to_string(tag) + ")";
}

}  // namespace

Result<int64_t> WireBackend::GetW(Uid part) {
  ScopedSpan span(log_, SpanName::kRpcCall);
  ORION_ASSIGN_OR_RETURN(Value v, client_->Get(part, "W"));
  return AsInteger(v);
}

Status WireBackend::SetW(Uid part, int64_t w) {
  ScopedSpan span(log_, SpanName::kRpcCall);
  return client_->Set(part, "W", Value::Integer(w));
}

Result<Uid> WireBackend::MakePart(Uid assembly, int64_t w, int64_t tag,
                                  int64_t rev) {
  ScopedSpan span(log_, SpanName::kRpcCall);
  const std::vector<rpc::Request> subops = {
      rpc::MakeRequest("Part", {{assembly.raw, "Parts"}},
                       {{"W", Value::Integer(w)},
                        {"Tag", Value::Integer(tag)}}),
      rpc::SetRequest(assembly, "Rev", Value::Integer(rev)),
  };
  ORION_ASSIGN_OR_RETURN(std::vector<std::string> replies,
                         client_->Txn(subops));
  return rpc::ParseUidResponse(replies.at(0));
}

Status WireBackend::DeletePart(Uid part) {
  ScopedSpan span(log_, SpanName::kRpcCall);
  return client_->Delete(part);
}

Status WireBackend::SetRevs(Uid a1, int64_t r1, Uid a2, int64_t r2) {
  ScopedSpan span(log_, SpanName::kRpcCall);
  const std::vector<rpc::Request> subops = {
      rpc::SetRequest(a1, "Rev", Value::Integer(r1)),
      rpc::SetRequest(a2, "Rev", Value::Integer(r2)),
  };
  return client_->Txn(subops).status();
}

Result<std::vector<Uid>> WireBackend::SelectTag(int64_t tag) {
  ScopedSpan span(log_, SpanName::kRpcCall);
  return client_->Select("Part", TagQuery(tag));
}

// --- InProcBackend -----------------------------------------------------------

InProcBackend::InProcBackend(Cluster* cluster, SpanLog* log)
    : cluster_(cluster),
      log_(log),
      cluster_session_(cluster),
      interp_(&cluster->authority()) {
  for (size_t tag = 1; tag <= cluster->size(); ++tag) {
    cell_sessions_.push_back(std::make_unique<Session>(
        &cluster->cell(static_cast<CellTag>(tag)).db()));
  }
  const Result<ClassId> part = cluster->authority().schema().FindClass("Part");
  part_cls_ = part.ok() ? *part : kInvalidClass;
}

Result<int64_t> InProcBackend::GetW(Uid part) {
  ScopedSpan span(log_, SpanName::kCoreReadGet);
  Database* db = cluster_->CellOf(part);
  if (db == nullptr) {
    return Status::NotFound("no cell owns " + part.ToString());
  }
  ReadTransaction txn(db);
  ORION_ASSIGN_OR_RETURN(const Object* obj, txn.Get(part));
  return AsInteger(obj->Get("W"));
}

Status InProcBackend::SetW(Uid part, int64_t w) {
  Status s;
  {
    ScopedSpan span(log_, SpanName::kCoreRunSet);
    s = cell_sessions_[CellTagOf(part) - 1]->Run([&](TransactionContext& t) {
      ScopedSpan body(log_, SpanName::kCoreBody);
      return t.SetAttribute(part, "W", Value::Integer(w));
    });
  }
  if (s.ok()) {
    RedoRoundTrip({part});
  }
  return s;
}

Result<Uid> InProcBackend::MakePart(Uid assembly, int64_t w, int64_t tag,
                                    int64_t rev) {
  Uid made;
  Status s;
  {
    ScopedSpan span(log_, SpanName::kCoreRunMake);
    s = cluster_session_.Run([&](ClusterTransaction& ct) -> Status {
      ScopedSpan body(log_, SpanName::kCoreBody);
      ORION_ASSIGN_OR_RETURN(
          made, ct.Make("Part", {ParentBinding{assembly, "Parts"}},
                        AttrValues{{"W", Value::Integer(w)},
                                   {"Tag", Value::Integer(tag)}}));
      return ct.SetAttribute(assembly, "Rev", Value::Integer(rev));
    });
  }
  if (!s.ok()) {
    return s;
  }
  RedoRoundTrip({made, assembly});
  return made;
}

Status InProcBackend::DeletePart(Uid part) {
  Database* db = cluster_->CellOf(part);
  if (db == nullptr) {
    return Status::NotFound("no cell owns " + part.ToString());
  }
  // The assembly is the object the delete leaves behind changed; found
  // before the delete, outside every span, and only when it is re-encoded.
  Uid parent;
  if (log_ != nullptr) {
    ReadTransaction txn(db);
    const Result<const Object*> obj = txn.Get(part);
    if (obj.ok() && !(*obj)->reverse_refs().empty()) {
      parent = (*obj)->reverse_refs().front().parent;
    }
  }
  Status s;
  {
    ScopedSpan span(log_, SpanName::kCoreRunDelete);
    s = cell_sessions_[CellTagOf(part) - 1]->Run([&](TransactionContext& t) {
      ScopedSpan body(log_, SpanName::kCoreBody);
      return t.Delete(part);
    });
  }
  if (s.ok()) {
    RedoRoundTrip({parent});
  }
  return s;
}

Status InProcBackend::SetRevs(Uid a1, int64_t r1, Uid a2, int64_t r2) {
  Status s;
  {
    ScopedSpan span(log_, SpanName::kCellRunXcell);
    s = cluster_session_.Run([&](ClusterTransaction& ct) -> Status {
      ScopedSpan body(log_, SpanName::kCoreBody);
      ORION_RETURN_IF_ERROR(ct.SetAttribute(a1, "Rev", Value::Integer(r1)));
      return ct.SetAttribute(a2, "Rev", Value::Integer(r2));
    });
  }
  if (s.ok()) {
    RedoRoundTrip({a1, a2});
  }
  return s;
}

Result<std::vector<Uid>> InProcBackend::SelectTag(int64_t tag) {
  QueryPtr query;
  {
    ScopedSpan span(log_, SpanName::kLangParse);
    ORION_ASSIGN_OR_RETURN(Sexpr expr, ParseSexpr(TagQuery(tag)));
    ORION_ASSIGN_OR_RETURN(query, interp_.ParseQueryExpr(expr));
  }
  Result<std::vector<Uid>> hits = [&] {
    ScopedSpan span(log_, SpanName::kCellSelect);
    return cluster_->Select(part_cls_, query);
  }();
  if (log_ != nullptr) {
    // The per-cell query the scatter runs, measured on its own.
    for (size_t tag_i = 1; tag_i <= cluster_->size(); ++tag_i) {
      ScopedSpan span(log_, SpanName::kQuerySelect);
      ReadTransaction txn(&cluster_->cell(static_cast<CellTag>(tag_i)).db());
      (void)txn.Select(part_cls_, query);  // timed only; the scatter's
                                           // result above is the answer
    }
  }
  return hits;
}

void InProcBackend::RedoRoundTrip(std::initializer_list<Uid> uids) {
  if (log_ == nullptr) {
    return;
  }
  for (const Uid uid : uids) {
    Database* db = uid.valid() ? cluster_->CellOf(uid) : nullptr;
    if (db == nullptr) {
      continue;
    }
    ReadTransaction txn(db);
    const Result<const Object*> obj = txn.Get(uid);
    if (!obj.ok()) {
      continue;
    }
    std::string text;
    {
      ScopedSpan span(log_, SpanName::kCoreRedoEncode);
      std::ostringstream os;
      codec::AppendObjectLines(os, **obj);
      text = os.str();
    }
    codec::ObjectStager stager;
    bool decoded_ok = true;
    {
      ScopedSpan span(log_, SpanName::kCoreRedoDecode);
      size_t pos = 0;
      while (pos < text.size()) {
        size_t eol = text.find('\n', pos);
        if (eol == std::string::npos) {
          eol = text.size();
        }
        Result<std::vector<std::string>> tok =
            codec::Tokenize(text.substr(pos, eol - pos));
        pos = eol + 1;
        ++redo_lines_;
        decoded_ok = decoded_ok && tok.ok() && !tok->empty() &&
                     codec::ObjectStager::Handles(tok->front()) &&
                     stager.Feed(*tok).ok();
      }
    }
    const auto it = stager.objects().find(uid);
    if (!decoded_ok || it == stager.objects().end() ||
        it->second.values() != (*obj)->values()) {
      ++redo_mismatches_;
    }
  }
}

// --- Fixture -----------------------------------------------------------------

namespace {

constexpr int kRootsPerTxn = 64;

/// Tag values shared by ~16 loaded parts each; made parts get negative
/// tags, so a select's answer is fixed by the load.
constexpr int kPartsPerTag = 16;

/// catalog_read's hot-key skew: kHotPerMille of the gets go to a hot set
/// of 1/kHotDivisor of the loaded parts, the rest are uniform.  Both
/// values are an assumption: no published setting or measurement of
/// catalog traffic fixes them (see WORKLOADS.md).
constexpr uint64_t kHotPerMille = 800;
constexpr size_t kHotDivisor = 100;

}  // namespace

Result<std::unique_ptr<Fixture>> Fixture::Create(const WorkloadSpec& spec,
                                                 uint64_t seed,
                                                 const std::string& dir) {
  std::unique_ptr<Fixture> f(new Fixture());
  f->dir_ = dir;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create " + dir + ": " + ec.message());
  }
  f->cluster_ = std::make_unique<Cluster>(2);
  Cluster& cl = *f->cluster_;
  ORION_RETURN_IF_ERROR(cl.EnableDurability(dir));
  ORION_ASSIGN_OR_RETURN(
      ClassId part,
      cl.MakeClass(ClassSpec{.name = "Part",
                             .attributes = {WeakAttr("W", "integer"),
                                            WeakAttr("Tag", "integer")}}));
  ORION_RETURN_IF_ERROR(
      cl.MakeClass(ClassSpec{.name = "Asm",
                             .attributes = {WeakAttr("Rev", "integer"),
                                            CompositeAttr("Parts", "Part",
                                                          /*exclusive=*/true,
                                                          /*dependent=*/true,
                                                          /*is_set=*/true)}})
          .status());
  for (size_t tag = 1; tag <= cl.size(); ++tag) {
    ORION_RETURN_IF_ERROR(
        cl.cell(static_cast<CellTag>(tag)).db().indexes().CreateIndex(part,
                                                                      "Tag"));
  }
  f->server_ = std::make_unique<rpc::Server>(&cl);
  ORION_RETURN_IF_ERROR(f->server_->Start());
  ORION_RETURN_IF_ERROR(f->Load(spec, seed));
  return f;
}

Fixture::~Fixture() { Shutdown(); }

void Fixture::Shutdown() {
  if (server_ != nullptr) {
    server_->Stop();
    server_.reset();
  }
  cluster_.reset();
}

Status Fixture::Load(const WorkloadSpec& spec, uint64_t seed) {
  Layout& L = layout_;
  const int conns = spec.connections;
  const int n = spec.assemblies;
  const int ppa = spec.parts_per_assembly;
  L.connections = conns;
  L.assemblies.resize(n);
  L.assembly_owner.resize(n);
  L.parts.assign(n, {});
  L.owned.assign(conns, {});

  // Roots, a batch per txn from one connection, so round-robin placement
  // alternates cells deterministically.  Owners take assemblies in pairs,
  // so every connection owns assemblies in both cells.
  ORION_ASSIGN_OR_RETURN(std::unique_ptr<rpc::Client> loader,
                         rpc::Client::Connect("127.0.0.1", server_->port()));
  for (int begin = 0; begin < n; begin += kRootsPerTxn) {
    const int end = std::min(n, begin + kRootsPerTxn);
    std::vector<rpc::Request> subops;
    for (int a = begin; a < end; ++a) {
      L.assembly_owner[a] = (a / 2) % conns;
      subops.push_back(rpc::MakeRequest(
          "Asm", {}, {{"Rev", Value::Integer(Stamp(L.assembly_owner[a], 0))}}));
    }
    ORION_ASSIGN_OR_RETURN(std::vector<std::string> replies,
                           loader->Txn(subops));
    for (int a = begin; a < end; ++a) {
      ORION_ASSIGN_OR_RETURN(L.assemblies[a],
                             rpc::ParseUidResponse(replies[a - begin]));
    }
  }
  for (int a = 0; a < n; ++a) {
    L.owned[L.assembly_owner[a]].push_back(static_cast<uint32_t>(a));
    L.in_cell[CellTagOf(L.assemblies[a]) == 1 ? 0 : 1].push_back(
        static_cast<uint32_t>(a));
  }

  // Tags: a seeded permutation spreads each tag's parts over assemblies
  // in both cells.
  Rng rng(seed ^ 0xC0FFEE5EEDull);
  const int total = n * ppa;
  L.tags = std::max(1, total / kPartsPerTag);
  std::vector<int64_t> tag_of(total);
  std::iota(tag_of.begin(), tag_of.end(), 0);
  for (int i = total - 1; i > 0; --i) {
    std::swap(tag_of[i], tag_of[rng.Below(i + 1)]);
  }
  for (int64_t& t : tag_of) {
    t %= L.tags;
  }

  // Parts: one txn per assembly, each connection loading its own.
  std::vector<Status> results(conns, Status::Ok());
  std::vector<std::thread> loaders;
  for (int c = 0; c < conns; ++c) {
    loaders.emplace_back([&, c] {
      Result<std::unique_ptr<rpc::Client>> client =
          rpc::Client::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        results[c] = client.status();
        return;
      }
      for (const uint32_t a : L.owned[c]) {
        std::vector<rpc::Request> subops;
        for (int j = 0; j < ppa; ++j) {
          subops.push_back(rpc::MakeRequest(
              "Part", {{L.assemblies[a].raw, "Parts"}},
              {{"W", Value::Integer(Stamp(c, 0))},
               {"Tag", Value::Integer(tag_of[a * ppa + j])}}));
        }
        Result<std::vector<std::string>> replies = (*client)->Txn(subops);
        if (!replies.ok()) {
          results[c] = replies.status();
          return;
        }
        for (const std::string& reply : *replies) {
          Result<Uid> uid = rpc::ParseUidResponse(reply);
          if (!uid.ok()) {
            results[c] = uid.status();
            return;
          }
          L.parts[a].push_back(*uid);
        }
      }
    });
  }
  for (std::thread& t : loaders) {
    t.join();
  }
  for (const Status& s : results) {
    ORION_RETURN_IF_ERROR(s);
  }

  L.tag_members.assign(L.tags, {});
  for (int a = 0; a < n; ++a) {
    for (int j = 0; j < ppa; ++j) {
      const Uid p = L.parts[a][j];
      L.all_parts.push_back(p);
      L.part_owner.push_back(L.assembly_owner[a]);
      L.tag_members[tag_of[a * ppa + j]].push_back(p);
    }
  }
  for (std::vector<Uid>& members : L.tag_members) {
    std::sort(members.begin(), members.end());
  }
  // The hot set, drawn with the seed.
  const size_t hot = std::max<size_t>(1, L.all_parts.size() / kHotDivisor);
  for (size_t i = 0; i < hot; ++i) {
    L.hot.push_back(static_cast<uint32_t>(rng.Below(L.all_parts.size())));
  }
  return Status::Ok();
}

// --- The closed loop ---------------------------------------------------------

namespace {

SpanName RootName(int op) {
  static const SpanName kRoots[kOpCount] = {
      SpanName::kOpGet,    SpanName::kOpSet,   SpanName::kOpMake,
      SpanName::kOpDelete, SpanName::kOpXcell, SpanName::kOpSelect};
  return kRoots[op];
}

int PickOp(const std::array<int, kOpCount>& mix, ConnState& st) {
  int r = static_cast<int>(st.rng.Below(1000));
  int op = 0;
  while (op < kOpCount - 1 && r >= mix[op]) {
    r -= mix[op];
    ++op;
  }
  if (op == kDelete && st.made_live.empty()) {
    op = kMake;
  }
  return op;
}

uint32_t ToSample(uint64_t ns) {
  return static_cast<uint32_t>(std::min<uint64_t>(ns, UINT32_MAX));
}

void RemoveOwnPart(ConnState& st, Uid p) {
  const auto it = st.own_pos.find(p);
  if (it == st.own_pos.end()) {
    return;
  }
  const size_t pos = it->second;
  st.own_pos.erase(it);
  const Uid last = st.own_parts.back();
  st.own_parts.pop_back();
  if (pos < st.own_parts.size()) {
    st.own_parts[pos] = last;
    st.own_pos[last] = pos;
  }
  st.w.erase(p);
}

}  // namespace

void DriveConnection(const WorkloadSpec& spec,
                     const std::array<int, kOpCount>& mix,
                     const Layout& layout, uint64_t ops, Backend& backend,
                     SpanLog* log, ConnState& st) {
  const int me = st.id;
  for (int op = 0; op < kOpCount; ++op) {
    st.latency_ns[op].reserve(st.latency_ns[op].size() +
                              ops * mix[op] / 1000 + 64);
  }
  for (uint64_t i = 0; i < ops; ++i) {
    const int op = PickOp(mix, st);
    ++st.attempted;
    bool ok = true;
    uint64_t t0 = 0;
    uint64_t t1 = 0;
    switch (op) {
      case kGet: {
        Uid p;
        int owner = me;
        if (spec.hot_reads) {
          const size_t idx = st.rng.Below(1000) < kHotPerMille
                                 ? layout.hot[st.rng.Below(layout.hot.size())]
                                 : st.rng.Below(layout.all_parts.size());
          p = layout.all_parts[idx];
          owner = layout.part_owner[idx];
        } else {
          p = st.own_parts[st.rng.Below(st.own_parts.size())];
        }
        t0 = NowNs();
        Result<int64_t> v = [&] {
          ScopedSpan root(log, RootName(op));
          return backend.GetW(p);
        }();
        t1 = NowNs();
        ok = v.ok();
        if (!ok) {
          break;
        }
        if (owner == me) {
          if (st.uncertain.count(p) == 0 && st.w[p] != *v) {
            st.Mismatch("get " + p.ToString() + " read " +
                        std::to_string(*v) + ", last write was " +
                        std::to_string(st.w[p]));
          }
        } else if (StampOwner(*v) != owner) {
          st.Mismatch("get " + p.ToString() + " read a value not written "
                      "by its owner");
        }
        break;
      }
      case kSet: {
        const Uid p = st.own_parts[st.rng.Below(st.own_parts.size())];
        const int64_t v = Stamp(me, ++st.seq);
        t0 = NowNs();
        const Status s = [&] {
          ScopedSpan root(log, RootName(op));
          return backend.SetW(p, v);
        }();
        t1 = NowNs();
        ok = s.ok();
        if (ok) {
          st.w[p] = v;
        } else {
          st.uncertain.insert(p);
        }
        break;
      }
      case kMake: {
        const uint32_t a =
            layout.owned[me][st.rng.Below(layout.owned[me].size())];
        const int64_t w = Stamp(me, ++st.seq);
        const int64_t rev = Stamp(me, ++st.seq);
        t0 = NowNs();
        const Result<Uid> made = [&] {
          ScopedSpan root(log, RootName(op));
          return backend.MakePart(layout.assemblies[a], w, -1 - me, rev);
        }();
        t1 = NowNs();
        ok = made.ok();
        if (!ok) {
          st.uncertain_assemblies.insert(a);
          break;
        }
        st.own_pos[*made] = st.own_parts.size();
        st.own_parts.push_back(*made);
        st.w[*made] = w;
        st.made_live.push_back(*made);
        st.made_assembly[*made] = a;
        st.rev[a] = RevWrite{rev, t0, t1};
        break;
      }
      case kDelete: {
        const size_t idx = st.rng.Below(st.made_live.size());
        const Uid p = st.made_live[idx];
        t0 = NowNs();
        const Status s = [&] {
          ScopedSpan root(log, RootName(op));
          return backend.DeletePart(p);
        }();
        t1 = NowNs();
        ok = s.ok();
        st.made_live[idx] = st.made_live.back();
        st.made_live.pop_back();
        RemoveOwnPart(st, p);
        if (ok) {
          st.deleted.push_back(p);
        } else {
          st.uncertain.insert(p);
          st.uncertain_assemblies.insert(st.made_assembly[p]);
        }
        st.made_assembly.erase(p);
        break;
      }
      case kXcell: {
        const uint32_t a1 =
            layout.owned[me][st.rng.Below(layout.owned[me].size())];
        const auto& others =
            layout.in_cell[CellTagOf(layout.assemblies[a1]) == 1 ? 1 : 0];
        uint32_t a2 = others[st.rng.Below(others.size())];
        for (int tries = 0;
             tries < 8 && layout.connections > 1 &&
             layout.assembly_owner[a2] == me;
             ++tries) {
          a2 = others[st.rng.Below(others.size())];
        }
        const int64_t r1 = Stamp(me, ++st.seq);
        const int64_t r2 = Stamp(me, ++st.seq);
        t0 = NowNs();
        const Status s = [&] {
          ScopedSpan root(log, RootName(op));
          return backend.SetRevs(layout.assemblies[a1], r1,
                                 layout.assemblies[a2], r2);
        }();
        t1 = NowNs();
        ok = s.ok();
        if (ok) {
          st.rev[a1] = RevWrite{r1, t0, t1};
          st.rev[a2] = RevWrite{r2, t0, t1};
        } else {
          st.uncertain_assemblies.insert(a1);
          st.uncertain_assemblies.insert(a2);
        }
        break;
      }
      case kSelect: {
        const int64_t tag = static_cast<int64_t>(st.rng.Below(layout.tags));
        t0 = NowNs();
        Result<std::vector<Uid>> hits = [&] {
          ScopedSpan root(log, RootName(op));
          return backend.SelectTag(tag);
        }();
        t1 = NowNs();
        ok = hits.ok();
        if (!ok) {
          break;
        }
        st.select_hits += hits->size();
        std::sort(hits->begin(), hits->end());
        if (*hits != layout.tag_members[tag]) {
          st.Mismatch("select Tag " + std::to_string(tag) + " returned " +
                      std::to_string(hits->size()) + " parts, expected " +
                      std::to_string(layout.tag_members[tag].size()));
        }
        break;
      }
      default:
        break;
    }
    // A failed op counts as missing every latency limit.
    st.latency_ns[op].push_back(ok ? ToSample(t1 - t0) : UINT32_MAX);
    if (!ok) {
      ++st.failed;
    }
  }
}

// --- Verification ------------------------------------------------------------

uint64_t VerifyCluster(Cluster& cluster, const Layout& layout,
                       std::vector<ConnState>& states) {
  std::vector<std::unique_ptr<ReadTransaction>> readers;
  for (size_t tag = 1; tag <= cluster.size(); ++tag) {
    readers.push_back(std::make_unique<ReadTransaction>(
        &cluster.cell(static_cast<CellTag>(tag)).db()));
  }
  const auto lookup = [&](Uid uid) -> const Object* {
    const CellTag tag = CellTagOf(uid);
    if (tag < 1 || tag > readers.size()) {
      return nullptr;
    }
    const Result<const Object*> obj = readers[tag - 1]->Get(uid);
    return obj.ok() ? *obj : nullptr;
  };
  uint64_t checked = 0;

  std::vector<std::vector<Uid>> expected_parts = layout.parts;
  for (ConnState& st : states) {
    for (const Uid p : st.made_live) {
      expected_parts[st.made_assembly[p]].push_back(p);
    }
    for (const Uid p : st.own_parts) {
      if (st.uncertain.count(p) > 0) {
        continue;
      }
      ++checked;
      const Object* obj = lookup(p);
      if (obj == nullptr) {
        st.Mismatch("part " + p.ToString() + " is missing");
      } else if (obj->Get("W") != Value::Integer(st.w[p])) {
        st.Mismatch("part " + p.ToString() + " has W " +
                    obj->Get("W").ToString() + ", last acknowledged " +
                    std::to_string(st.w[p]));
      }
    }
    for (const Uid p : st.deleted) {
      ++checked;
      if (lookup(p) != nullptr) {
        st.Mismatch("deleted part " + p.ToString() + " is present");
      }
    }
  }

  for (size_t a = 0; a < layout.assemblies.size(); ++a) {
    ConnState& owner = states[layout.assembly_owner[a]];
    const Uid uid = layout.assemblies[a];
    ++checked;
    const Object* obj = lookup(uid);
    if (obj == nullptr) {
      owner.Mismatch("assembly " + uid.ToString() + " is missing");
      continue;
    }
    if (owner.uncertain_assemblies.count(a) == 0) {
      std::vector<Uid> have = obj->Get("Parts").ReferencedUids();
      std::vector<Uid>& want = expected_parts[a];
      std::sort(have.begin(), have.end());
      std::sort(want.begin(), want.end());
      if (have != want) {
        owner.Mismatch("assembly " + uid.ToString() + " holds " +
                       std::to_string(have.size()) + " parts, expected " +
                       std::to_string(want.size()));
      }
    }
    // Rev is a register several connections write.  Its final value must
    // be some connection's last acknowledged write, and no other write
    // may have started after that one was acknowledged.
    const Value& rev = obj->Get("Rev");
    bool uncertain = false;
    bool written = false;
    const RevWrite* final_write = nullptr;
    for (const ConnState& st : states) {
      uncertain = uncertain || st.uncertain_assemblies.count(a) > 0;
      const auto it = st.rev.find(static_cast<uint32_t>(a));
      if (it != st.rev.end()) {
        written = true;
        if (rev == Value::Integer(it->second.value)) {
          final_write = &it->second;
        }
      }
    }
    if (uncertain) {
      continue;
    }
    if (!written) {
      if (rev != Value::Integer(Stamp(layout.assembly_owner[a], 0))) {
        owner.Mismatch("assembly " + uid.ToString() +
                       " Rev changed with no acknowledged write");
      }
      continue;
    }
    if (final_write == nullptr) {
      owner.Mismatch("assembly " + uid.ToString() + " Rev " +
                     rev.ToString() + " is no connection's last write");
      continue;
    }
    for (const ConnState& st : states) {
      const auto it = st.rev.find(static_cast<uint32_t>(a));
      if (it != st.rev.end() && it->second.start_ns > final_write->ack_ns) {
        owner.Mismatch("assembly " + uid.ToString() + " Rev is a write "
                       "acknowledged before a later write started");
        break;
      }
    }
  }
  return checked;
}

}  // namespace orion::perfbench
