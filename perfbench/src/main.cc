/// \file main.cc
/// \brief zvbench — the repository's benchmark: drives the public
/// QueryService and wire API on one seeded workload, checks every result
/// against the serial oracle, and prints every metric by name with its
/// unit. See README.md in this directory.
///
///   zvbench --workload explore|filter_scan|dashboard --seed N
///           --seconds S --trace 0|1 [--commit SHA] [--source-digest HEX]
///           [--spans FILE]
///   zvbench --self-test
///
/// The last line of standard output is one JSON object:
///   {"correct":…, "attempted":…, "failed":…, "metrics":{name:{value,unit}}}
/// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
/// per-layer ones from the traced run.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cpuid.h>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "api/protocol.h"
#include "api/service.h"
#include "common.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "engine/roaring_db.h"
#include "engine/scan_db.h"
#include "layers.h"
#include "oracle.h"
#include "server/query_service.h"
#include "tasks/simd.h"
#include "workloads.h"

#ifndef ZVBENCH_BUILD_TYPE
#define ZVBENCH_BUILD_TYPE "unknown"
#endif

namespace zvbench {
namespace {

/// Setups per run; setup_s is their median. The first is kept and served;
/// the others run after the oracle check, so the served setup is always
/// made in a fresh process and peak_rss_mb does not depend on what earlier
/// setups left in the allocator.
constexpr int kSetups = 3;
/// Replaces measured after the traced window on the single-session
/// workloads; dashboard's writer replaces during the window.
constexpr int kReplaceReps = 5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool self_test = false;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto next = [&](std::string* v) {
      if (i + 1 >= argc) return false;
      *v = argv[++i];
      return true;
    };
    std::string v;
    if (k == "--self-test") {
      a->self_test = true;
    } else if (k == "--workload") {
      if (!next(&a->workload)) return false;
    } else if (k == "--seed") {
      if (!next(&v)) return false;
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      if (!next(&v)) return false;
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      if (!next(&v) || (v != "0" && v != "1")) return false;
      a->trace = v == "1";
    } else if (k == "--commit") {
      if (!next(&a->commit)) return false;
    } else if (k == "--source-digest") {
      if (!next(&a->source_digest)) return false;
    } else if (k == "--spans") {
      if (!next(&a->spans)) return false;
    } else {
      return false;
    }
  }
  if (a->self_test) return true;
  return (a->workload == "explore" || a->workload == "filter_scan" ||
          a->workload == "dashboard") &&
         a->seconds > 0;
}

std::string CpuModel() {
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002 + i, &regs[i * 4], &regs[i * 4 + 1], &regs[i * 4 + 2],
                &regs[i * 4 + 3]);
  }
  std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
  s = s.c_str();
  while (!s.empty() && s.back() == ' ') s.pop_back();
  while (!s.empty() && s.front() == ' ') s.erase(s.begin());
  return s;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t TableSeed(uint64_t seed, int version) {
  return seed * 1000003ULL + 17 + static_cast<uint64_t>(version) * 7919ULL;
}

// ---------------------------------------------------------------------------
// Setup
// ---------------------------------------------------------------------------

/// Everything a run serves, built before the timed window.
struct Env {
  std::vector<std::shared_ptr<zv::Table>> tables;  ///< [0] is served first
  std::unique_ptr<zv::MetricsRegistry> metrics;
  std::unique_ptr<zv::server::QueryService> service;
  std::vector<zv::server::SessionId> sessions;
  double generate_ms = 0;
  double register_ms = 0;
  double total_s = 0;
};

std::shared_ptr<zv::Database> MakeBackend(const std::string& workload) {
  // explore runs on the Fig 7.4 scan backend; the others on the service
  // default, the Roaring bitmap backend.
  if (workload == "explore") return std::make_shared<zv::ScanDatabase>();
  return std::make_shared<zv::RoaringDatabase>();
}

zv::Status Setup(const std::string& workload, const Sizes& sizes, uint64_t seed,
                 Env* env) {
  const auto t0 = SteadyNow();
  const int versions = workload == "dashboard" ? 2 : 1;
  for (int v = 0; v < versions; ++v) env->tables.push_back(MakeTable(sizes, TableSeed(seed, v)));
  env->generate_ms = MsSince(t0);

  const auto t1 = SteadyNow();
  std::shared_ptr<zv::Database> db = MakeBackend(workload);
  ZV_RETURN_NOT_OK(db->RegisterTable(env->tables[0]));
  env->register_ms = MsSince(t1);

  env->metrics = std::make_unique<zv::MetricsRegistry>();
  zv::server::ServiceOptions options;
  options.metrics = env->metrics.get();
  env->service = std::make_unique<zv::server::QueryService>(options);
  ZV_RETURN_NOT_OK(env->service->RegisterDataset(env->tables[0], db));
  for (size_t s = 0; s < sizes.sessions; ++s) {
    ZV_ASSIGN_OR_RETURN(zv::server::SessionId id, env->service->CreateSession());
    env->sessions.push_back(id);
  }

  // Warm-up: one pass of each session's query cycle, from a warm-up
  // stream whose queries never recur in the measured stream.
  if (workload == "dashboard") {
    for (size_t s = 0; s < sizes.sessions; ++s) {
      DashboardStream warm(sizes, seed + 101 * s, /*warmup=*/true);
      for (int i = 0; i < 20; ++i) {
        (void)zv::api::HandleWireRequest(*env->service, env->sessions[s], warm.Next().doc);
      }
    }
  } else {
    QueryStream warm(workload, sizes, seed, /*warmup=*/true);
    for (int i = 0; i < 10; ++i) {
      auto h = env->service->Submit(env->sessions[0], "sales", warm.Next().text);
      if (!h.ok()) return h.status();
      ZV_RETURN_NOT_OK(h->Wait());
    }
  }
  env->total_s = MsSince(t0) / 1000.0;
  return zv::Status::OK();
}

// ---------------------------------------------------------------------------
// Timed windows
// ---------------------------------------------------------------------------

/// Whether query `i` of a session runs traced: whole cycles alternate, so
/// traced and untraced queries see the same class mix.
bool TracedSlot(bool trace_run, size_t i, size_t cycle) {
  return trace_run && (i / cycle) % 2 == 1;
}

/// explore / filter_scan: one session, closed loop through Submit.
double RunSingleSession(const Args& args, const Sizes& sizes, Env* env,
                        std::vector<Record>* records) {
  QueryStream stream(args.workload, sizes, args.seed);
  const size_t cycle = 10;  // both workloads' class cycles are 10 long
  const auto start = SteadyNow();
  const double budget_ms = args.seconds * 1000.0;
  for (size_t i = 0; MsSince(start) < budget_ms; ++i) {
    Record r;
    r.spec = stream.Next();
    r.traced = TracedSlot(args.trace, i, cycle);
    const auto t0 = SteadyNow();
    auto h = env->service->Submit(env->sessions[0], "sales", r.spec.text, {}, r.traced);
    if (h.ok() && h->Wait().ok()) {
      r.ok = true;
      r.result = h->result();
      r.stats = h->stats();
    }
    r.ms = MsSince(t0);
    if (h.ok() && r.traced) {
      if (auto trace = h->trace()) r.trace = zv::EncodeTraceSpan(trace->root());
    }
    records->push_back(std::move(r));
  }
  return MsSince(start);
}

/// dashboard: one client thread per session, wire requests through
/// HandleWireRequest; session 0 also replaces the dataset after every
/// `replace_every` of its own requests.
double RunDashboard(const Args& args, const Sizes& sizes, Env* env,
                    std::vector<Record>* records, std::vector<double>* replace_ms,
                    uint64_t* replace_failures) {
  std::vector<std::vector<Record>> per_session(sizes.sessions);
  std::atomic<uint64_t> failures{0};
  const auto start = SteadyNow();
  const double budget_ms = args.seconds * 1000.0;
  zv::server::QueryService& svc = *env->service;
  auto client = [&](size_t s) {
    DashboardStream stream(sizes, args.seed * 31 + s);
    int version = 0;
    size_t replaced_at = 0;  // request count at the last replace
    for (size_t i = 0;;) {
      if (MsSince(start) >= budget_ms) break;
      if (s == 0 && i > 0 && i % sizes.replace_every == 0 && replaced_at != i) {
        replaced_at = i;
        version = 1 - version;
        const auto t0 = SteadyNow();
        auto db = std::make_shared<zv::RoaringDatabase>();
        zv::Status st = db->RegisterTable(env->tables[static_cast<size_t>(version)]);
        if (st.ok()) st = svc.ReplaceDataset(env->tables[static_cast<size_t>(version)], db);
        replace_ms->push_back(MsSince(t0));
        if (!st.ok()) failures.fetch_add(1);
        continue;
      }
      WireRequest req = stream.Next();
      Record r;
      r.session = s;
      r.spec = req.spec;
      r.doc = req.doc;
      r.expect_error = req.expect_error;
      r.traced = TracedSlot(args.trace, i++, 20) && req.expect_error.empty();
      const std::string doc =
          r.traced ? req.doc.substr(0, req.doc.size() - 1) + ",\"trace\":true}" : req.doc;
      auto epoch = svc.DatasetEpoch("sales");
      r.epoch_lo = epoch.ok() ? *epoch : 0;
      const auto t0 = SteadyNow();
      r.response = zv::api::HandleWireRequest(svc, env->sessions[s], doc);
      r.ms = MsSince(t0);
      epoch = svc.DatasetEpoch("sales");
      r.epoch_hi = epoch.ok() ? *epoch : 0;
      per_session[s].push_back(std::move(r));
    }
  };
  std::vector<std::thread> threads;
  for (size_t s = 0; s < sizes.sessions; ++s) threads.emplace_back(client, s);
  for (auto& t : threads) t.join();
  const double wall = MsSince(start);
  for (auto& v : per_session) {
    for (auto& r : v) records->push_back(std::move(r));
  }
  *replace_failures = failures.load();
  return wall;
}

// ---------------------------------------------------------------------------
// Correctness
// ---------------------------------------------------------------------------

/// Oracle threads: the oracle is serial per query; independent queries
/// are checked side by side.
size_t CheckThreads() {
  return std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
}

/// Runs `fn(thread, i)` for every i in [0, n) on `threads` threads.
template <typename Fn>
void ParallelIndex(size_t n, size_t threads, Fn fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(t, i);
    });
  }
  for (auto& th : pool) th.join();
}

struct CheckResult {
  uint64_t mismatches = 0;  ///< answers that differ from the oracle
  bool self_test_ok = false;
};

/// explore / filter_scan: every query's outputs against the oracle.
CheckResult CheckSingleSession(const std::shared_ptr<zv::Table>& table,
                               std::vector<Record>* records) {
  CheckResult out;
  const size_t threads = CheckThreads();
  std::vector<std::unique_ptr<Oracle>> oracles;
  for (size_t t = 0; t < threads; ++t) oracles.push_back(std::make_unique<Oracle>(table));
  std::vector<int> verdict(records->size(), 0);  // 0 ok, 1 mismatch, 2 error
  ParallelIndex(records->size(), threads, [&](size_t t, size_t i) {
    const Record& r = (*records)[i];
    if (!r.ok) {
      verdict[i] = 2;
      return;
    }
    auto want = oracles[t]->Digest(r.spec.text);
    verdict[i] = !want.ok() ? 2 : (*want == OutputsDigest(*r.result) ? 0 : 1);
  });
  for (size_t i = 0; i < verdict.size(); ++i) {
    if (verdict[i] == 1) ++out.mismatches;
    if (verdict[i] != 0) (*records)[i].ok = false;
  }
  // Self-test: a corrupted copy of the first answer must be rejected.
  for (const Record& r : *records) {
    if (!r.ok) continue;
    zv::zql::ZqlResult bad = *r.result;
    if (!Corrupt(&bad)) continue;
    auto want = oracles[0]->Digest(r.spec.text);
    out.self_test_ok = want.ok() && *want == OutputsDigest(*r.result) &&
                       *want != OutputsDigest(bad);
    break;
  }
  return out;
}

/// dashboard: every answer against the oracle of the table version it ran
/// on, repeats against their first issue, errors against the structured
/// error the request must produce.
CheckResult CheckDashboard(const Env& env, std::vector<Record>* records) {
  CheckResult out;
  std::vector<std::string> outputs(records->size()), errors(records->size());
  std::vector<bool> parsed(records->size(), false);
  for (size_t i = 0; i < records->size(); ++i) {
    Record& r = (*records)[i];
    auto json = zv::Json::Parse(r.response);
    parsed[i] = json.ok() && WireOutputs(*json, &outputs[i], &errors[i]);
    if (!parsed[i]) continue;
    if (auto resp = zv::api::DecodeResponse(*json); resp.ok()) {
      r.stats = resp->stats;
      r.trace = resp->trace;
    }
  }
  // Oracle answers per (request, table version), computed in parallel.
  std::map<std::pair<std::string, size_t>, std::string> want;
  for (size_t i = 0; i < records->size(); ++i) {
    const Record& r = (*records)[i];
    if (!parsed[i] || !r.expect_error.empty()) continue;
    for (uint64_t e = r.epoch_lo; e <= r.epoch_hi; ++e) {
      want.emplace(std::make_pair(r.doc, static_cast<size_t>((e - 1) % 2)), "");
    }
  }
  std::vector<std::map<std::pair<std::string, size_t>, std::string>::iterator> jobs;
  for (auto it = want.begin(); it != want.end(); ++it) jobs.push_back(it);
  const size_t threads = CheckThreads();
  std::vector<std::vector<std::unique_ptr<Oracle>>> oracles(threads);
  for (auto& per_thread : oracles) {
    for (const auto& table : env.tables) per_thread.push_back(std::make_unique<Oracle>(table));
  }
  ParallelIndex(jobs.size(), threads, [&](size_t t, size_t j) {
    auto digest = oracles[t][jobs[j]->first.second]->WireDigest(jobs[j]->first.first);
    // A failed oracle run can never equal a served `outputs` document.
    jobs[j]->second = digest.ok() ? *digest : "oracle failed: " + digest.status().ToString();
  });

  std::map<std::pair<std::string, uint64_t>, std::string> first_issue;
  for (size_t i = 0; i < records->size(); ++i) {
    Record& r = (*records)[i];
    bool good = parsed[i];
    if (good && !r.expect_error.empty()) {
      good = errors[i] == r.expect_error;
    } else if (good) {
      if (!errors[i].empty()) {
        good = false;
      } else {
        bool match = false;
        for (uint64_t e = r.epoch_lo; e <= r.epoch_hi && !match; ++e) {
          match = want[{r.doc, static_cast<size_t>((e - 1) % 2)}] == outputs[i];
        }
        if (r.epoch_lo == r.epoch_hi) {
          auto [it, inserted] = first_issue.emplace(std::make_pair(r.doc, r.epoch_lo), outputs[i]);
          if (!inserted && it->second != outputs[i]) match = false;
        }
        if (!match) {
          good = false;
          ++out.mismatches;
        }
      }
    }
    r.ok = good;
  }
  // Self-test: a corrupted answer, packaged by the wire codec, must differ
  // from the oracle's.
  for (size_t i = 0; i < records->size(); ++i) {
    const Record& r = (*records)[i];
    if (!r.ok || !r.expect_error.empty() || r.epoch_lo != r.epoch_hi) continue;
    auto json = zv::Json::Parse(r.response);
    auto resp = zv::api::DecodeResponse(*json);
    if (!resp.ok() || resp->outputs.empty()) continue;
    zv::zql::ZqlResult bad;
    for (const auto& o : resp->outputs) bad.outputs.push_back({o.name, o.visuals});
    if (!Corrupt(&bad)) continue;
    for (size_t o = 0; o < bad.outputs.size(); ++o) resp->outputs[o].visuals = bad.outputs[o].visuals;
    const zv::Json encoded = zv::api::EncodeResponse(*resp);
    const std::string corrupted = encoded.Find("outputs")->Dump();
    out.self_test_ok = outputs[i] == want[{r.doc, static_cast<size_t>((r.epoch_lo - 1) % 2)}] &&
                       corrupted != outputs[i];
    break;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string ProvenanceJson(const Args& args, const Sizes& sizes,
                           const std::string& dataset_digest,
                           const std::string& stream_digest) {
  zv::Json p = zv::Json::MakeObject();
  p.Set("workload", zv::Json::Str(args.workload));
  p.Set("seed", zv::Json::Int(static_cast<int64_t>(args.seed)));
  p.Set("seconds", zv::Json::Double(args.seconds));
  p.Set("trace", zv::Json::Bool(args.trace));
  p.Set("nproc", zv::Json::Int(static_cast<int64_t>(std::thread::hardware_concurrency())));
  p.Set("cpu_model", zv::Json::Str(CpuModel()));
  p.Set("simd_width", zv::Json::Int(static_cast<int64_t>(zv::simd::ActiveWidth())));
  p.Set("build_type", zv::Json::Str(ZVBENCH_BUILD_TYPE));
  p.Set("git_commit", zv::Json::Str(args.commit));
  p.Set("source_digest", zv::Json::Str(args.source_digest));
  p.Set("rows", zv::Json::Int(static_cast<int64_t>(sizes.rows)));
  p.Set("products", zv::Json::Int(static_cast<int64_t>(sizes.products)));
  p.Set("sessions", zv::Json::Int(static_cast<int64_t>(sizes.sessions)));
  p.Set("dataset_digest", zv::Json::Str(dataset_digest));
  p.Set("stream_digest", zv::Json::Str(stream_digest));
  return p.Dump();
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    const std::string n = m.samples > 0 ? "n=" + std::to_string(m.samples) : "";
    std::printf("  %-34s %14.6g %-6s %-7s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                n.c_str(), m.feeds.c_str());
  }
}

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  zv::Json m = zv::Json::MakeObject();
  for (const Metric& metric : metrics) {
    zv::Json v = zv::Json::MakeObject();
    v.Set("value", zv::Json::Double(metric.value));
    v.Set("unit", zv::Json::Str(metric.unit));
    m.Set(metric.name, std::move(v));
  }
  zv::Json out = zv::Json::MakeObject();
  out.Set("correct", zv::Json::Bool(correct));
  out.Set("attempted", zv::Json::Int(static_cast<int64_t>(attempted)));
  out.Set("failed", zv::Json::Int(static_cast<int64_t>(failed)));
  out.Set("metrics", std::move(m));
  return out.Dump();
}

/// Checker self-test on a small table, through the check every run
/// makes: the serial oracle must accept the service's answers and reject a
/// corrupted copy of one.
int SelfTest() {
  Sizes sizes;
  sizes.rows = 20000;
  sizes.products = 20;
  const auto table = MakeTable(sizes, 5);
  zv::server::QueryService svc;
  if (!svc.RegisterDataset(table).ok()) return 1;
  auto session = svc.CreateSession();
  if (!session.ok()) return 1;
  QueryStream stream("filter_scan", sizes, 5);
  std::vector<Record> records(10);
  for (Record& r : records) {
    r.spec = stream.Next();
    auto h = svc.Submit(*session, "sales", r.spec.text);
    if (h.ok() && h->Wait().ok()) {
      r.ok = true;
      r.result = h->result();
    }
  }
  const CheckResult check = CheckSingleSession(table, &records);
  const bool all_ok = std::all_of(records.begin(), records.end(),
                                  [](const Record& r) { return r.ok; });
  std::printf("self-test: %zu answers, %llu mismatches, correct answers %s, "
              "corrupted answer %s\n",
              records.size(), static_cast<unsigned long long>(check.mismatches),
              all_ok ? "accepted" : "REJECTED",
              check.self_test_ok ? "rejected" : "ACCEPTED");
  return all_ok && check.mismatches == 0 && check.self_test_ok ? 0 : 1;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: zvbench --workload explore|filter_scan|dashboard --seed N "
                 "--seconds S --trace 0|1 [--commit SHA] [--source-digest HEX] "
                 "[--spans FILE] | --self-test\n");
    return 2;
  }
  if (args.self_test) return SelfTest();

  const Sizes sizes = SizesFor(args.workload);
  std::vector<double> setup_s, generate_ms, register_ms;
  const auto set_up = [&](Env* e) {
    const zv::Status st = Setup(args.workload, sizes, args.seed, e);
    if (!st.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
      return false;
    }
    setup_s.push_back(e->total_s);
    generate_ms.push_back(e->generate_ms);
    register_ms.push_back(e->register_ms);
    return true;
  };
  Env env;
  if (!set_up(&env)) return 1;
  const auto phase = SteadyNow();
  const std::string dataset_digest = DatasetDigest(*env.tables[0]);
  const std::string stream_digest = StreamDigest(args.workload, sizes, args.seed);
  const std::string provenance = ProvenanceJson(args, sizes, dataset_digest, stream_digest);
  std::printf("provenance %s\n", provenance.c_str());
  std::fflush(stdout);

  std::vector<Record> records;
  std::vector<double> replace_ms;
  uint64_t replace_failures = 0;
  uint64_t replace_attempts = 0;
  double wall_ms = 0;
  if (args.workload == "dashboard") {
    wall_ms = RunDashboard(args, sizes, &env, &records, &replace_ms, &replace_failures);
    replace_attempts = replace_ms.size();
  } else {
    wall_ms = RunSingleSession(args, sizes, &env, &records);
  }
  const double peak_rss = PeakRssMb();
  std::fprintf(stderr, "timed window: %.2f s\n", MsSince(phase) / 1000.0);
  const auto check_start = SteadyNow();

  const CheckResult check = args.workload == "dashboard" ? CheckDashboard(env, &records)
                                                         : CheckSingleSession(env.tables[0], &records);
  std::fprintf(stderr, "oracle check: %.2f s\n", MsSince(check_start) / 1000.0);

  if (args.trace && args.workload != "dashboard") {
    for (int i = 0; i < kReplaceReps; ++i) {
      const auto t0 = SteadyNow();
      std::shared_ptr<zv::Database> db = MakeBackend(args.workload);
      zv::Status st = db->RegisterTable(env.tables[0]);
      if (st.ok()) st = env.service->ReplaceDataset(env.tables[0], db);
      replace_ms.push_back(MsSince(t0));
      ++replace_attempts;
      if (!st.ok()) ++replace_failures;
    }
  }

  for (int i = 1; i < kSetups; ++i) {
    Env extra;
    if (!set_up(&extra)) return 1;
  }
  std::fprintf(stderr, "setup: %d x %.2f s (median)\n", kSetups, Median(setup_s));

  std::vector<double> all_ms, traced_ms, untraced_ms;
  std::map<int, std::vector<double>> class_ms;
  uint64_t completed = 0;
  for (const Record& r : records) {
    all_ms.push_back(r.ms);
    (r.traced ? traced_ms : untraced_ms).push_back(r.ms);
    class_ms[r.spec.klass].push_back(r.ms);
    if (r.ok) ++completed;
  }
  const uint64_t attempted = records.size() + replace_attempts;
  const uint64_t failed = (records.size() - completed) + replace_failures;
  const bool correct = check.mismatches == 0 && failed == 0 && check.self_test_ok;

  const std::vector<std::string> classes = ClassNames(args.workload);
  std::printf("workload %s: %zu queries in %.1f s, %llu failed (%llu mismatches), "
              "checker self-test %s\n",
              args.workload.c_str(), records.size(), wall_ms / 1000.0,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(check.mismatches),
              check.self_test_ok ? "passed" : "FAILED");
  for (const auto& [k, v] : class_ms) {
    std::printf("  class %-12s n=%-5zu share=%.3f p50=%.3f ms p90=%.3f ms\n",
                classes[static_cast<size_t>(k)].c_str(), v.size(),
                static_cast<double>(v.size()) / all_ms.size(), Quantile(v, 0.5),
                Quantile(v, 0.9));
  }
  if (args.workload == "dashboard") {
    size_t repeats = 0;
    const double stale = RepeatAfterReplaceShare(records, &repeats);
    const zv::server::ServiceStats st = env.service->stats();
    const double lookups = static_cast<double>(st.cache_hits + st.cache_misses);
    std::printf("  %zu replaces; %zu repeats, %.3f of them after a replace; result-cache "
                "hit rate %.3f; contexts reused per executed query %.3f\n",
                replace_ms.size(), repeats, stale, lookups > 0 ? st.cache_hits / lookups : 0,
                st.cache_misses > 0 ? static_cast<double>(st.contexts_reused) / st.cache_misses
                                    : 0);
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", Median(setup_s), "s", setup_s.size(), ""},
        {"query_p50_ms", Quantile(all_ms, 0.5), "ms", all_ms.size(), ""},
        {"query_p90_ms", Quantile(all_ms, 0.9), "ms", all_ms.size(), ""},
        {"queries_per_s", completed / (wall_ms / 1000.0), "1/s", completed, ""},
        {"peak_rss_mb", peak_rss, "MB", 0, ""},
    };
    PrintTable("end-to-end metrics:", metrics);
  } else {
    LayerInputs in;
    in.workload = args.workload;
    in.records = &records;
    in.service = env.service.get();
    in.generate_ms = generate_ms;
    in.register_ms = register_ms;
    in.replace_ms = replace_ms;
    in.untraced_p50_ms = Quantile(untraced_ms, 0.5);
    in.traced_p50_ms = Quantile(traced_ms, 0.5);
    in.spans_path = args.spans;
    in.provenance = provenance;
    metrics = MeasureLayers(in);
    PrintTable("per-layer metrics:", metrics);
    if (!args.spans.empty()) std::printf("spans written to %s\n", args.spans.c_str());
  }
  std::printf("%s\n", ResultLine(correct, attempted, failed, metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace zvbench

int main(int argc, char** argv) { return zvbench::Main(argc, argv); }
