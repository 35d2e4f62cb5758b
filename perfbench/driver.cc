// perfbench_driver: the client half of the served-path benchmark.
//
// run.py starts and stops cpdb_serve; this program generates a workload's
// inputs from a seed, drives them over the wire, checks the answers, and
// prints one JSON object of raw measurements for run.py to aggregate.
//
//   perfbench_driver --mode=preload --workload=W --seed=N --port=P
//       loads W's start state (rows, paste sources, provenance history)
//   perfbench_driver --mode=run --workload=W --seed=N --port=P
//                    --server-pid=PID [--traced --spans-out=FILE]
//       one measured round: registry snapshot, the fixed op list,
//       registry snapshot, the read-back (ingest), the correctness pass
//       (and, traced, an EXPLAIN sample); --traced also arms 1-in-8
//       server trace sampling and records client spans, written to FILE
//       after the round
//   perfbench_driver --mode=replay --workload=W --seed=N --dir=D
//       replays the same round's transactions in-process on a copy of the
//       start state: same engine, same RelationalTargetDb, same durable
//       store, no socket; times the target through a forwarding TargetDb
//   perfbench_driver --mode=inputs --workload=W --seed=N
//       prints a digest of the generated inputs (the self-test's check
//       that another seed gives other inputs)
//
// Every mode takes --scale=X (default 1): row and transaction counts
// are multiplied by X.
//
// Every round of a run uses the same inputs and starts from the same
// compacted store, so a round's work is fixed: the op count, not a clock,
// ends it (the data-table heap grows with every row rewrite, so per-op
// cost depends on how many writes came before).

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cpdb/cpdb.h"
#include "net/client.h"
#include "util/flags.h"
#include "util/rng.h"
#include "workload/zipf.h"

namespace {

using namespace cpdb;
using tree::Path;
using tree::Value;
using update::Update;

constexpr int kFields = 4;  // f1..f4 of cpdb_serve's data table
constexpr size_t kEditsPerTxn = 4;  // field edits (delete + insert each)
constexpr size_t kRowsPerPreloadTxn = 32;
constexpr size_t kExplainSamples = 64;

// ------------------------------------------------------------ workloads

struct Workload {
  size_t conns = 1;
  size_t rows_per_conn = 0;  // edited rows, per connection
  size_t src_rows = 0;       // paste sources (src_*)
  size_t history = 0;        // preload edit passes per row
  size_t txns_per_conn = 0;  // write transactions per round
  // One txn in each run of `paste_every` pastes a src_* row, and one in
  // each run of `getmod_every` is followed by a GETMOD of its row (the
  // position within the run is drawn from the seed; 0 = never). Exact
  // shares keep the work per round the same for every seed.
  size_t paste_every = 0;
  size_t getmod_every = 0;
  size_t reads_per_write = 0;
  // After the write window, each connection's rows are read back with
  // one GETMOD each on fresh connections: the query latency of a
  // workload whose window has no reads.
  bool read_back = false;
  bool zipf = true;
};

/// The named workload, its row and transaction counts multiplied by
/// `scale` (the self-test runs at reduced size).
bool LookupWorkload(const std::string& name, double scale, Workload* w) {
  if (name == "curate") {
    // The paper's curator session: its time goes to commit apply (the
    // FindRow heap scan) and the WAL seal, the path an access-path fix
    // shortens; the src_* rows stand in for a mounted source DB.
    w->rows_per_conn = 1000;
    w->src_rows = 32;
    w->txns_per_conn = 600;
    w->paste_every = 4;
    w->getmod_every = 10;
  } else if (name == "audit") {
    // Provenance reads over rows with history, with writes beside them so
    // that a read speed-up paid for by writes shows in commit latency.
    w->rows_per_conn = 400;
    w->history = 4;
    w->txns_per_conn = 200;
    w->reads_per_write = 9;
  } else if (name == "ingest") {
    // Concurrent committers sharing the commit queue, the exclusive latch
    // and the WAL seal, which the 1-connection workloads never contend.
    w->conns = 4;
    w->rows_per_conn = 48;
    w->txns_per_conn = 300;
    w->read_back = true;
    w->zipf = false;
  } else {
    return false;
  }
  auto scaled = [scale](size_t n) {
    return std::max<size_t>(1, static_cast<size_t>(static_cast<double>(n) * scale + 0.5));
  };
  w->rows_per_conn = scaled(w->rows_per_conn);
  w->txns_per_conn = scaled(w->txns_per_conn);
  return true;
}

std::string RowName(const Workload& w, size_t conn, size_t i) {
  return w.conns > 1 ? "c" + std::to_string(conn) + "r" + std::to_string(i)
                     : "r" + std::to_string(i);
}
std::string FieldName(int f) { return "f" + std::to_string(f + 1); }
Path DataPath() { return Path::MustParse("T/data"); }
Path RowPath(const std::string& row) { return DataPath().Child(row); }

using RowFields = std::vector<std::string>;      // kFields values
using Model = std::map<std::string, RowFields>;  // row -> last acked fields

/// Renders a row the way the server's GET does: {f1: "v", ...}.
std::string RenderRow(const RowFields& f) {
  std::string out = "{";
  for (int i = 0; i < kFields; ++i) {
    if (i) out += ", ";
    out += FieldName(i) + ": \"" + f[static_cast<size_t>(i)] + "\"";
  }
  return out + "}";
}

/// A field value unique per (seed, connection, sequence number), of the
/// same length for every seed, so that no seed writes more bytes.
std::string FixedWidthValue(char kind, uint64_t seed, size_t conn, size_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%c%03u_%zu_%06zu", kind,
                static_cast<unsigned>(seed % 1000), conn, seq % 1000000);
  return buf;
}

/// One step of a connection's op list: a write transaction or one read.
struct Step {
  bool is_txn = true;
  std::vector<Update> ups;  // txn
  std::string row;          // the row the step touches
  net::ReqType verb = net::ReqType::kGetMod;  // read
  Path path;                                  // read
};

/// Appends "field f of row gets value v" as delete + insert.
void EditField(const std::string& row, int f, const std::string& v,
               std::vector<Update>* ups) {
  ups->push_back(Update::Delete(RowPath(row), FieldName(f)));
  ups->push_back(Update::Insert(RowPath(row), FieldName(f), Value(v)));
}

/// Start state: the preload transactions and the model they leave.
void BuildPreload(const Workload& w, uint64_t seed,
                  std::vector<std::vector<Update>>* txns, Model* model) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  std::vector<std::string> rows;
  for (size_t j = 0; j < w.src_rows; ++j) rows.push_back("src_" + std::to_string(j));
  for (size_t c = 0; c < w.conns; ++c) {
    for (size_t i = 0; i < w.rows_per_conn; ++i) rows.push_back(RowName(w, c, i));
  }
  size_t seq = 0;
  auto fresh = [&] { return FixedWidthValue('p', seed, 0, seq++); };
  for (size_t at = 0; at < rows.size(); at += kRowsPerPreloadTxn) {
    std::vector<Update> t;
    for (size_t k = at; k < std::min(rows.size(), at + kRowsPerPreloadTxn); ++k) {
      t.push_back(Update::Insert(DataPath(), rows[k]));
      RowFields f(kFields);
      for (int i = 0; i < kFields; ++i) {
        f[static_cast<size_t>(i)] = fresh();
        t.push_back(Update::Insert(RowPath(rows[k]), FieldName(i), Value(f[static_cast<size_t>(i)])));
      }
      (*model)[rows[k]] = f;
    }
    txns->push_back(std::move(t));
  }
  // Provenance history: `history` passes, each editing one field of
  // every edited row, so each row carries several committed tids.
  for (size_t h = 0; h < w.history; ++h) {
    for (size_t at = w.src_rows; at < rows.size(); at += kRowsPerPreloadTxn) {
      std::vector<Update> t;
      for (size_t k = at; k < std::min(rows.size(), at + kRowsPerPreloadTxn); ++k) {
        int f = static_cast<int>(rng.NextIndex(kFields));
        std::string v = fresh();
        EditField(rows[k], f, v, &t);
        (*model)[rows[k]][static_cast<size_t>(f)] = v;
      }
      txns->push_back(std::move(t));
    }
  }
}

/// Connection `conn`'s op list for one round, applied to `model` (the
/// state every acknowledged step leaves).
std::vector<Step> BuildSteps(const Workload& w, uint64_t seed, size_t conn,
                             Model* model) {
  Rng rng(seed * 0xBF58476D1CE4E5B9ULL + conn * 7919 + 1);
  workload::ZipfGenerator zipf(w.rows_per_conn, w.zipf ? 0.99 : 0.0,
                               seed * 1315423911ULL + conn);
  auto pick = [&] {
    return RowName(w, conn, w.zipf ? zipf.NextScrambled() : rng.NextIndex(w.rows_per_conn));
  };
  // The slot of the txn in the current run of `every` that is chosen.
  auto chosen = [&rng](size_t t, size_t every, size_t* slot) {
    if (every == 0) return false;
    if (t % every == 0) *slot = rng.NextIndex(every);
    return t % every == *slot;
  };
  std::vector<Step> steps;
  size_t seq = 0, paste_slot = 0, getmod_slot = 0;
  for (size_t t = 0; t < w.txns_per_conn; ++t) {
    Step s;
    s.row = pick();
    RowFields& fields = (*model)[s.row];
    if (chosen(t, w.paste_every, &paste_slot)) {
      std::string src = "src_" + std::to_string(rng.NextIndex(w.src_rows));
      s.ups.push_back(Update::Copy(RowPath(src), RowPath(s.row)));
      fields = (*model)[src];
    } else {
      for (size_t e = 0; e < kEditsPerTxn; ++e) {
        int f = static_cast<int>(rng.NextIndex(kFields));
        std::string v = FixedWidthValue('v', seed, conn, seq++);
        EditField(s.row, f, v, &s.ups);
        fields[static_cast<size_t>(f)] = v;
      }
    }
    const std::string edited = s.row;
    steps.push_back(std::move(s));
    if (chosen(t, w.getmod_every, &getmod_slot)) {
      Step r;
      r.is_txn = false;
      r.row = edited;
      r.path = RowPath(edited);
      steps.push_back(std::move(r));
    }
    for (size_t k = 0; k < w.reads_per_write; ++k) {
      Step r;
      r.is_txn = false;
      r.row = pick();
      double u = rng.NextDouble();
      if (u < 0.7) {
        r.verb = net::ReqType::kGetMod;
        r.path = RowPath(r.row);
      } else if (u < 0.9) {
        r.verb = net::ReqType::kTraceBack;
        r.path = RowPath(r.row).Child(FieldName(static_cast<int>(rng.NextIndex(kFields))));
      } else {
        r.verb = net::ReqType::kGet;
        r.path = RowPath(r.row);
      }
      steps.push_back(std::move(r));
    }
  }
  return steps;
}

// ------------------------------------------------------------- helpers

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void AppendJsonList(std::string* out, const char* key, const std::vector<double>& v) {
  *out += "\"" + std::string(key) + "\":[";
  char buf[32];
  for (size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), i ? ",%.3f" : "%.3f", v[i]);
    *out += buf;
  }
  *out += "]";
}

std::string Num(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// On-CPU time of process `pid`'s threads, in seconds: the sum of each
/// thread's schedstat run time (nanosecond resolution; stolen time is
/// not counted). Every server thread lives through a round's window.
double ProcessCpuSeconds(long pid) {
  const std::string task = "/proc/" + std::to_string(pid) + "/task";
  DIR* dir = opendir(task.c_str());
  if (dir == nullptr) return -1;
  uint64_t ns = 0;
  while (struct dirent* e = readdir(dir)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream in(task + "/" + e->d_name + "/schedstat");
    uint64_t run_ns = 0;
    if (in >> run_ns) ns += run_ns;
  }
  closedir(dir);
  return static_cast<double>(ns) / 1e9;
}

/// The machine's stolen and total CPU time so far, in ticks, from the
/// first line of /proc/stat (time a hypervisor gave to other guests).
struct MachineTicks {
  uint64_t steal = 0, total = 0;
};
MachineTicks ReadMachineTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  MachineTicks t;
  uint64_t v = 0;
  for (int i = 0; i < 8 && (in >> v); ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

/// Sums and counters of a Prometheus text render, bucket lines dropped,
/// as a JSON object keyed by the full series name.
std::string RegistryJson(const std::string& text) {
  std::string out = "{";
  std::istringstream lines(text);
  std::string line;
  bool first = true;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#' || line.find("_bucket") != std::string::npos) continue;
    size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    std::string key = line.substr(0, sp);
    std::string esc;
    for (char c : key) {
      if (c == '"' || c == '\\') esc += '\\';
      esc += c;
    }
    out += (first ? "\"" : ",\"") + esc + "\":" + line.substr(sp + 1);
    first = false;
  }
  return out + "}";
}

/// Integer after `"key":` at or after `from` in `json` (0 if absent).
uint64_t JsonUintAfter(const std::string& json, const std::string& key, size_t from) {
  size_t at = json.find("\"" + key + "\":", from);
  if (at == std::string::npos) return 0;
  return std::stoull(json.substr(at + key.size() + 3));
}

// ------------------------------------------------------------- preload

int Preload(const Workload& w, uint64_t seed, int port) {
  std::vector<std::vector<Update>> txns;
  Model model;
  BuildPreload(w, seed, &txns, &model);
  net::Client client;
  Status st = client.Connect("127.0.0.1", port);
  if (!st.ok()) {
    std::fprintf(stderr, "preload: %s\n", st.ToString().c_str());
    return 1;
  }
  for (const auto& t : txns) {
    for (const Update& u : t) (void)client.Send(net::Request::Apply(u));
    (void)client.Send(net::Request::Commit());
    for (size_t i = 0; i < t.size() + 1; ++i) {
      auto resp = client.Recv();
      if (!resp.ok() || resp->code != net::RespCode::kOk) {
        std::fprintf(stderr, "preload: %s\n",
                     resp.ok() ? resp->body.c_str() : resp.status().ToString().c_str());
        return 1;
      }
    }
  }
  return 0;
}

// ------------------------------------------------------------------ run

struct ClientSpan {
  double start_us, end_us;
  size_t requests;
  bool is_txn;
};

struct ConnResult {
  std::vector<double> commit_us, query_us;
  std::vector<ClientSpan> spans;
  std::map<std::string, size_t> commits_per_row;
  size_t requests = 0, txn_requests = 0, committed = 0, update_ops = 0;
  size_t errors = 0, shed = 0, transport = 0;
};

/// Leases a session on a new connection with one untimed GET of `row`,
/// so that the session build is not in any timed request.
Status ConnectAndLease(net::Client* client, int port, const std::string& row) {
  Status st = client->Connect("127.0.0.1", port);
  if (st.ok()) st = client->Get(RowPath(row)).status();
  return st;
}

void RunConnection(const Workload& w, const std::vector<Step>& steps, int port,
                   bool traced, uint64_t seed, size_t conn,
                   std::atomic<size_t>* ready, ConnResult* r) {
  net::Client client;
  Status st = ConnectAndLease(&client, port, steps.front().row);
  ready->fetch_add(1);
  while (ready->load() < w.conns + 1) std::this_thread::yield();
  if (!st.ok()) {
    r->transport++;
    return;
  }
  if (traced) {
    client.set_trace_sampling(8, seed * 0x85EBCA6BULL + conn);
    r->spans.reserve(steps.size());
  }
  for (const Step& s : steps) {
    const size_t n = s.is_txn ? s.ups.size() + 1 : 1;
    r->requests += n;
    const double t0 = NowUs();
    bool ok = true, retry = false;
    if (s.is_txn) {
      r->txn_requests += n;
      for (const Update& u : s.ups) ok = ok && client.Send(net::Request::Apply(u)).ok();
      ok = ok && client.Send(net::Request::Commit()).ok();
      for (size_t i = 0; ok && i < n; ++i) {
        auto resp = client.Recv();
        if (!resp.ok()) {
          ok = false;
        } else if (resp->code == net::RespCode::kRetry ||
                   resp->code == net::RespCode::kDraining) {
          retry = true;
        } else if (resp->code != net::RespCode::kOk) {
          r->errors++;
        }
      }
    } else {
      net::Request req = s.verb == net::ReqType::kGetMod ? net::Request::GetMod(s.path)
                         : s.verb == net::ReqType::kTraceBack ? net::Request::TraceBack(s.path)
                                                              : net::Request::Get(s.path);
      auto resp = client.Call(req);
      if (!resp.ok()) ok = false;
      else if (resp->code != net::RespCode::kOk) r->errors++;
    }
    const double t1 = NowUs();
    if (!ok) {
      r->transport++;
      return;
    }
    if (traced) r->spans.push_back({t0, t1, n, s.is_txn});
    if (!s.is_txn) {
      r->query_us.push_back(t1 - t0);
    } else if (retry) {
      r->shed++;
    } else {
      r->commit_us.push_back(t1 - t0);
      r->committed++;
      r->update_ops += s.ups.size();
      r->commits_per_row[s.row]++;
    }
  }
}

/// Connection `conn`'s read-back: one timed GETMOD of each of its rows,
/// closed loop, started together with the other connections'.
void ReadBack(const Workload& w, int port, size_t conn, std::atomic<size_t>* ready,
              ConnResult* r) {
  net::Client client;
  Status st = ConnectAndLease(&client, port, RowName(w, conn, 0));
  ready->fetch_add(1);
  while (ready->load() < w.conns) std::this_thread::yield();
  if (!st.ok()) {
    r->transport++;
    return;
  }
  for (size_t i = 0; i < w.rows_per_conn; ++i) {
    r->requests++;
    const double t0 = NowUs();
    auto resp = client.Call(net::Request::GetMod(RowPath(RowName(w, conn, i))));
    const double t1 = NowUs();
    if (!resp.ok()) {
      r->transport++;
      return;
    }
    if (resp->code != net::RespCode::kOk) r->errors++;
    r->query_us.push_back(t1 - t0);
  }
}

int Run(const Workload& w, uint64_t seed, int port, long server_pid, bool traced,
        const std::string& spans_out) {
  std::vector<std::vector<Update>> preload;
  Model model;
  BuildPreload(w, seed, &preload, &model);
  std::vector<std::vector<Step>> steps;
  for (size_t c = 0; c < w.conns; ++c) steps.push_back(BuildSteps(w, seed, c, &model));

  net::Client admin;
  Status st = admin.Connect("127.0.0.1", port);
  if (!st.ok()) {
    std::fprintf(stderr, "run: %s\n", st.ToString().c_str());
    return 1;
  }
  std::vector<ConnResult> results(w.conns);
  std::vector<std::thread> threads;
  std::atomic<size_t> ready{0};
  for (size_t c = 0; c < w.conns; ++c) {
    threads.emplace_back(RunConnection, std::cref(w), std::cref(steps[c]), port, traced,
                         seed, c, &ready, &results[c]);
  }
  while (ready.load() < w.conns) std::this_thread::yield();
  auto before = admin.Metrics();
  auto stats = admin.Stats();
  if (!before.ok() || !stats.ok()) return 1;
  const int64_t base_tid = static_cast<int64_t>(JsonUintAfter(*stats, "last_tid", 0));
  const double cpu0 = ProcessCpuSeconds(server_pid);
  const MachineTicks ticks0 = ReadMachineTicks();
  const double t0 = NowUs();
  ready.fetch_add(1);
  for (auto& t : threads) t.join();
  const double window_s = (NowUs() - t0) / 1e6;
  const double cpu_s = ProcessCpuSeconds(server_pid) - cpu0;
  const MachineTicks ticks1 = ReadMachineTicks();
  const double steal = ticks1.total > ticks0.total
                           ? static_cast<double>(ticks1.steal - ticks0.steal) /
                                 static_cast<double>(ticks1.total - ticks0.total)
                           : 0.0;
  // The registry delta spans the window alone: no read-back, no check.
  auto after = admin.Metrics();
  if (!after.ok()) return 1;

  std::vector<ConnResult> read_back(w.read_back ? w.conns : 0);
  if (w.read_back) {
    std::vector<std::thread> readers;
    std::atomic<size_t> leased{0};
    for (size_t c = 0; c < w.conns; ++c) {
      readers.emplace_back(ReadBack, std::cref(w), port, c, &leased, &read_back[c]);
    }
    for (auto& t : readers) t.join();
  }

  ConnResult all;
  size_t window_requests = 0;
  for (const ConnResult& r : results) window_requests += r.requests;
  for (ConnResult& r : read_back) results.push_back(std::move(r));
  for (ConnResult& r : results) {
    all.commit_us.insert(all.commit_us.end(), r.commit_us.begin(), r.commit_us.end());
    all.query_us.insert(all.query_us.end(), r.query_us.begin(), r.query_us.end());
    for (const auto& [row, n] : r.commits_per_row) all.commits_per_row[row] += n;
    all.requests += r.requests;
    all.txn_requests += r.txn_requests;
    all.committed += r.committed;
    all.update_ops += r.update_ops;
    all.errors += r.errors;
    all.shed += r.shed;
    all.transport += r.transport;
  }

  // Correctness pass on a fresh connection (a freshly acquired session
  // sees every acknowledged commit): each touched row's fields equal the
  // model, and its GETMOD holds exactly its acknowledged commits. With
  // one connection the tids are known (base+1, base+2, ... in step order).
  std::map<std::string, std::set<int64_t>> expect_tids;
  if (w.conns == 1) {
    int64_t tid = base_tid;
    for (const Step& s : steps[0]) {
      if (s.is_txn) expect_tids[s.row].insert(++tid);
    }
  }
  const int64_t last_tid = base_tid + static_cast<int64_t>(all.committed);
  size_t checks = 0, check_failures = 0;
  net::Client verify;
  if (!verify.Connect("127.0.0.1", port).ok()) return 1;
  for (const auto& [row, n] : all.commits_per_row) {
    checks += 2;
    auto got = verify.Get(RowPath(row));
    if (!got.ok() || *got != RenderRow(model[row])) {
      check_failures++;
      std::fprintf(stderr, "check: GET %s = %s, want %s\n", row.c_str(),
                   got.ok() ? got->c_str() : got.status().ToString().c_str(),
                   RenderRow(model[row]).c_str());
    }
    auto mods = verify.GetMod(RowPath(row));
    std::set<int64_t> window;
    bool in_range = mods.ok();
    if (mods.ok()) {
      for (int64_t t : *mods) {
        if (t > base_tid) window.insert(t);
        if (t > last_tid) in_range = false;
      }
    }
    const bool exact = w.conns == 1 ? window == expect_tids[row] : window.size() == n;
    if (!in_range || !exact) {
      check_failures++;
      std::fprintf(stderr, "check: GETMOD %s has %zu window tids, want %zu\n",
                   row.c_str(), window.size(), n);
    }
  }
  const size_t dropped = w.txns_per_conn * w.conns - all.committed - all.shed;

  std::string out = "{";
  AppendJsonList(&out, "commit_us", all.commit_us);
  out += ",";
  AppendJsonList(&out, "query_us", all.query_us);
  out += ",\"window_s\":" + Num(window_s) + ",\"server_cpu_s\":" + Num(cpu_s);
  out += ",\"steal\":" + Num(steal);
  out += ",\"committed\":" + std::to_string(all.committed);
  out += ",\"update_ops\":" + std::to_string(all.update_ops);
  out += ",\"requests\":" + std::to_string(all.requests);
  out += ",\"window_requests\":" + std::to_string(window_requests);
  out += ",\"txn_requests\":" + std::to_string(all.txn_requests);
  out += ",\"errors\":" + std::to_string(all.errors);
  out += ",\"shed\":" + std::to_string(all.shed);
  out += ",\"transport\":" + std::to_string(all.transport + dropped);
  out += ",\"checks\":" + std::to_string(checks);
  out += ",\"check_failures\":" + std::to_string(check_failures);
  out += ",\"registry_before\":" + RegistryJson(*before);
  out += ",\"registry_after\":" + RegistryJson(*after);

  if (traced) {
    // EXPLAIN a fixed sample of audit-style reads over the edited rows.
    Rng rng(seed * 0xD6E8FEB86659FD93ULL + 5);
    uint64_t rows = 0, trips = 0;
    for (size_t i = 0; i < kExplainSamples; ++i) {
      std::string row = RowName(w, rng.NextIndex(w.conns), rng.NextIndex(w.rows_per_conn));
      double u = rng.NextDouble();
      net::ReqType verb = u < 0.7 ? net::ReqType::kGetMod
                          : u < 0.9 ? net::ReqType::kTraceBack : net::ReqType::kGet;
      Path p = verb == net::ReqType::kTraceBack ? RowPath(row).Child(FieldName(0)) : RowPath(row);
      auto explained = verify.Explain(verb, p);
      if (!explained.ok()) return 1;
      size_t at = explained->find("\"kind\":\"query.execute\"");
      rows += JsonUintAfter(*explained, "rows", at);
      trips += JsonUintAfter(*explained, "round_trips", at);
    }
    out += ",\"explain_queries\":" + std::to_string(kExplainSamples);
    out += ",\"explain_rows\":" + std::to_string(rows);
    out += ",\"explain_round_trips\":" + std::to_string(trips);

    // Client spans go out only now, after the measured window.
    std::FILE* f = std::fopen(spans_out.c_str(), "w");
    if (f == nullptr) return 1;
    for (size_t c = 0; c < results.size(); ++c) {
      for (const ClientSpan& s : results[c].spans) {
        std::fprintf(f, "{\"conn\":%zu,\"kind\":\"%s\",\"start_us\":%.3f,\"dur_us\":%.3f,\"requests\":%zu}\n",
                     c, s.is_txn ? "client.txn" : "client.read", s.start_us - t0,
                     s.end_us - s.start_us, s.requests);
      }
    }
    std::fclose(f);
  }
  std::printf("%s}\n", out.c_str());
  return 0;
}

// --------------------------------------------------------------- inputs

/// Prints a digest of everything the seed generates: the preload and
/// every connection's op list.
int Inputs(const Workload& w, uint64_t seed) {
  std::vector<std::vector<Update>> preload;
  Model model;
  BuildPreload(w, seed, &preload, &model);
  std::string text;
  for (const auto& t : preload) {
    for (const Update& u : t) text += u.ToString() + "\n";
  }
  for (size_t c = 0; c < w.conns; ++c) {
    for (const Step& s : BuildSteps(w, seed, c, &model)) {
      if (s.is_txn) {
        for (const Update& u : s.ups) text += u.ToString() + "\n";
      } else {
        text += std::string(net::ReqTypeName(s.verb)) + " " + s.path.ToString() + "\n";
      }
    }
  }
  uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (unsigned char ch : text) h = (h ^ ch) * 1099511628211ULL;
  std::printf("{\"digest\":\"%016llx\",\"bytes\":%zu}\n",
              static_cast<unsigned long long>(h), text.size());
  return 0;
}

// --------------------------------------------------------------- replay

/// Forwards every TargetDb call to the served RelationalTargetDb and
/// times the write path (ApplyBatch / ApplyNative).
class TimedTarget : public wrap::TargetDb {
 public:
  explicit TimedTarget(wrap::TargetDb* inner) : inner_(inner) {}
  const std::string& name() const override { return inner_->name(); }
  Result<tree::Tree> TreeFromDb() override { return inner_->TreeFromDb(); }
  Status ApplyNative(const update::Update& u, const tree::Tree* pasted) override {
    const double t0 = NowUs();
    Status st = inner_->ApplyNative(u, pasted);
    Add(NowUs() - t0);
    return st;
  }
  Status ApplyBatch(const std::vector<wrap::NativeOp>& ops) override {
    const double t0 = NowUs();
    Status st = inner_->ApplyBatch(ops);
    Add(NowUs() - t0);
    return st;
  }
  Status Sync() override { return inner_->Sync(); }
  bool CheapSnapshots() const override { return inner_->CheapSnapshots(); }
  bool PrepareParallelApply(const std::vector<tree::Path>& claims) override {
    return inner_->PrepareParallelApply(claims);
  }
  relstore::CostModel& cost() override { return inner_->cost(); }

  double apply_us() const { return apply_ns_.load() / 1e3; }

 private:
  void Add(double us) { apply_ns_.fetch_add(static_cast<uint64_t>(us * 1e3)); }
  wrap::TargetDb* inner_;
  std::atomic<uint64_t> apply_ns_{0};
};

int Replay(const Workload& w, uint64_t seed, const std::string& dir) {
  std::vector<std::vector<Update>> preload;
  Model model;
  BuildPreload(w, seed, &preload, &model);
  std::vector<std::vector<Step>> steps;
  for (size_t c = 0; c < w.conns; ++c) steps.push_back(BuildSteps(w, seed, c, &model));

  auto opened = relstore::Database::Open("curated", dir);
  if (!opened.ok()) {
    std::fprintf(stderr, "replay: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<relstore::Database> db = std::move(opened).value();
  provenance::ProvBackend backend(db.get());
  wrap::RelationalTargetDb relational("T", db.get(), std::vector<std::string>{"data"});
  TimedTarget target(&relational);
  service::Engine engine(&backend, &target);
  service::SessionPool pool(&engine, service::SessionOptions{});
  auto data = db->GetTable("data");
  if (!data.ok()) return 1;

  const size_t prov_rows0 = backend.RowCount();
  const size_t prov_bytes0 = backend.PhysicalBytes();
  std::vector<std::vector<double>> commit_us(w.conns);
  std::atomic<size_t> failures{0}, update_ops{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < w.conns; ++c) {
    threads.emplace_back([&, c] {
      auto session = pool.Acquire();
      if (!session.ok()) {
        failures++;
        return;
      }
      for (const Step& s : steps[c]) {
        if (!s.is_txn) continue;
        const double t0 = NowUs();
        bool ok = true;
        for (const Update& u : s.ups) ok = (*session)->Apply(u).ok() && ok;
        ok = (*session)->Commit().ok() && ok;
        commit_us[c].push_back(NowUs() - t0);
        if (!ok) failures++;
        update_ops += s.ups.size();
      }
      pool.Release(std::move(*session));
    });
  }
  for (auto& t : threads) t.join();

  std::vector<double> all;
  for (const auto& v : commit_us) all.insert(all.end(), v.begin(), v.end());

  // Heap shape of the data table at window end: slot-directory entries
  // up to each page's last live slot (a lower bound on what a full scan
  // walks), per live row; and the time of one full Table::Scan.
  std::map<uint32_t, uint32_t> last_live;
  (*data)->Scan([&](const relstore::Rid& rid, const relstore::Row&) {
    uint32_t& m = last_live[rid.page];
    m = std::max<uint32_t>(m, rid.slot + 1u);
    return true;
  });
  uint64_t slots = 0;
  for (const auto& [page, n] : last_live) slots += n;
  std::vector<double> scans;
  for (int i = 0; i < 5; ++i) {
    size_t seen = 0;
    const double t0 = NowUs();
    (*data)->Scan([&](const relstore::Rid&, const relstore::Row&) { return ++seen > 0; });
    scans.push_back(NowUs() - t0);
  }
  std::sort(scans.begin(), scans.end());

  std::string out = "{";
  AppendJsonList(&out, "commit_us", all);
  out += ",\"failures\":" + std::to_string(failures.load());
  out += ",\"committed\":" + std::to_string(all.size());
  out += ",\"update_ops\":" + std::to_string(update_ops.load());
  out += ",\"apply_batch_us\":" + Num(target.apply_us());
  out += ",\"prov_rows\":" + std::to_string(backend.RowCount() - prov_rows0);
  out += ",\"prov_bytes\":" + std::to_string(backend.PhysicalBytes() - prov_bytes0);
  out += ",\"heap_slots\":" + std::to_string(slots);
  out += ",\"live_rows\":" + std::to_string((*data)->RowCount());
  out += ",\"full_scan_us\":" + Num(scans[scans.size() / 2]);
  std::printf("%s}\n", out.c_str());
  return db->Close().ok() && failures.load() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string mode = flags.GetString("mode", "");
  Workload w;
  if (!LookupWorkload(flags.GetString("workload", ""), flags.GetDouble("scale", 1.0), &w)) {
    std::fprintf(stderr, "perfbench_driver: unknown --workload\n");
    return 2;
  }
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const int port = static_cast<int>(flags.GetInt("port", 0));
  if (mode == "preload") return Preload(w, seed, port);
  if (mode == "run") {
    return Run(w, seed, port, static_cast<long>(flags.GetInt("server-pid", 0)),
               flags.GetBool("traced", false), flags.GetString("spans-out", ""));
  }
  if (mode == "replay") return Replay(w, seed, flags.GetString("dir", ""));
  if (mode == "inputs") return Inputs(w, seed);
  std::fprintf(stderr, "perfbench_driver: unknown --mode\n");
  return 2;
}
