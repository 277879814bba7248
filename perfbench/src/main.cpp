//===- perfbench/src/main.cpp - The repository benchmark's entry point ----===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
//   perfbench --workload compile|marshal|rpc_bulk|rpc_open --seed N
//             --seconds S --trace 0|1 [--trace-dir DIR]
//
// Prints the host fingerprint, human-readable notes (workload-specific
// metrics, sample counts, failed checks), and as the last
// line one JSON object {"correct", "attempted", "failed", "metrics"}.
// Untraced runs report every end-to-end metric; traced runs report every
// per-layer metric (zero for a layer the workload does not exercise).
// Exits 1 when any output check failed, 2 on bad usage.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"
#include "support/BuildInfo.h"
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <malloc.h>
#include <sched.h>
#include <string>
#include <sys/resource.h>
#include <thread>

namespace pb {

double peakRssMb() {
  // VmHWM is this program's own high-water mark; ru_maxrss survives exec,
  // so it would report the launcher's peak when that is the larger.
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // in kB
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

CpuRotation::CpuRotation() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return;
  Saved.assign(reinterpret_cast<unsigned char *>(&Set),
               reinterpret_cast<unsigned char *>(&Set) + sizeof(Set));
  for (int C = 0; C != CPU_SETSIZE; ++C)
    if (CPU_ISSET(C, &Set))
      Cpus.push_back(C);
}

CpuRotation::~CpuRotation() {
  if (Saved.size() == sizeof(cpu_set_t))
    sched_setaffinity(0, sizeof(cpu_set_t),
                      reinterpret_cast<const cpu_set_t *>(Saved.data()));
}

void CpuRotation::tick(uint64_t NowNs) {
  if (Cpus.size() < 2 || NowNs < NextNs)
    return;
  NextNs = NowNs + StepNs;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpus[Pos], &Set);
  Pos = (Pos + 1) % Cpus.size();
  sched_setaffinity(0, sizeof(Set), &Set);
}

void reportLatency(RunResult &R, const SliceReport &S) {
  R.set("latency_p50_us", S.Lat.P50, "us");
  R.set("latency_p90_us", S.Lat.Tail, "us");
  R.Notes.push_back(fmt("latency_p50_us %.3f us, latency_p90_us %.3f us "
                        "(p%g; n=%zu in %zu slices, mean %.3f us)",
                        S.Lat.P50, S.Lat.Tail, S.Lat.TailLevel * 100,
                        S.Lat.Count, S.Slices, S.Lat.Mean));
}

void reportTraceIntegrity(RunResult &R, double BaseOpUs, double TracedOpUs,
                          const Tracer &T) {
  R.set("trace.overhead_frac", BaseOpUs > 0 ? TracedOpUs / BaseOpUs - 1 : 0,
        "ratio");
  LayerTotals Root = T.find("op");
  R.set("trace.unattributed_frac",
        Root.TotalNs > 0 ? Root.SelfNs / Root.TotalNs : 0, "ratio");
}

void saveTrace(RunResult &R, const RunOptions &O, const char *Workload,
               const std::vector<const Tracer *> &Tracers) {
  std::string Path = O.TraceDir + "/" + Workload + ".json";
  uint64_t Dropped = 0;
  for (const Tracer *T : Tracers)
    Dropped += T->dropped();
  if (writeTraceFile(Path, Tracers))
    R.Notes.push_back(fmt("spans of seed %llu written to %s (%llu beyond "
                          "the keep cap counted but not written)",
                          static_cast<unsigned long long>(O.Seed),
                          Path.c_str(),
                          static_cast<unsigned long long>(Dropped)));
  else
    R.Notes.push_back("could not write spans to " + Path);
}

} // namespace pb

namespace {

using namespace pb;

/// Every end-to-end metric, reported by every workload.
const char *const EndToEnd[] = {"setup_s",        "peak_rss_mb",
                                "throughput_mb_per_s", "latency_p50_us",
                                "latency_p90_us"};

/// Every per-layer metric with its unit; a traced run reports each one,
/// zero where its workload does not exercise the layer.
const std::pair<const char *, const char *> PerLayer[] = {
    {"frontends.parse_us_per_kb", "us/KB"},
    {"aoi.verify_us_per_kb", "us/KB"},
    {"presgen.generate_us_per_kb", "us/KB"},
    {"presgen.mint_nodes", "count"},
    {"presgen.free_us_per_kb", "us/KB"},
    {"backends.generate_us_per_kb", "us/KB"},
    {"backends.stubs_us_per_kb", "us/KB"},
    {"backends.print_us_per_kb", "us/KB"},
    {"backends.passes_us_per_kb", "us/KB"},
    {"backends.out_bytes_per_in_byte", "ratio"},
    {"backends.generated_kb", "KB"},
    {"stubs.xdr.encode.small_ns_per_kb", "ns/KB"},
    {"stubs.xdr.encode.large_ns_per_kb", "ns/KB"},
    {"stubs.xdr.decode.small_ns_per_kb", "ns/KB"},
    {"stubs.xdr.decode.large_ns_per_kb", "ns/KB"},
    {"stubs.cdr.encode.small_ns_per_kb", "ns/KB"},
    {"stubs.cdr.encode.large_ns_per_kb", "ns/KB"},
    {"stubs.cdr.decode.small_ns_per_kb", "ns/KB"},
    {"stubs.cdr.decode.large_ns_per_kb", "ns/KB"},
    {"stubs.buf_grows_per_op", "count"},
    {"specialize.xdr.encode.small_ns_per_kb", "ns/KB"},
    {"specialize.xdr.encode.large_ns_per_kb", "ns/KB"},
    {"specialize.xdr.decode.small_ns_per_kb", "ns/KB"},
    {"specialize.xdr.decode.large_ns_per_kb", "ns/KB"},
    {"specialize.compile_us", "us"},
    {"specialize.cache_hit_frac", "ratio"},
    {"specialize.interp_dispatches", "count"},
    {"client.invoke_us", "us"},
    {"server.dispatch_us", "us"},
    {"transport.us_per_rpc", "us"},
    {"transport.copies_per_rpc", "count"},
    {"transport.bytes_copied_per_rpc", "B"},
    {"transport.syscalls_per_rpc", "count"},
    {"transport.pool_hit_frac", "ratio"},
    {"transport.gather_refs_per_rpc", "count"},
    {"async.submit_us_p50", "us"},
    {"async.submit_us_p99", "us"},
    {"async.stall_frac", "ratio"},
    {"async.corr_drops", "count"},
    {"transport.queue_wait_us", "us"},
    {"transport.steals_per_rpc", "count"},
    {"server.worker_busy_frac", "ratio"},
    {"gen.lag_us_p99", "us"},
    {"trace.overhead_frac", "ratio"},
    {"trace.unattributed_frac", "ratio"},
};

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      if (Colon != std::string::npos)
        return Line.substr(Line.find_first_not_of(' ', Colon + 1));
    }
  return "unknown";
}

std::string jsonNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

int usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "compile|marshal|rpc_bulk|rpc_open --seed N --seconds S "
               "--trace 0|1 [--trace-dir DIR]\n",
               Msg);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  // Keep freed memory in the process: repeated set-ups then reuse pages
  // instead of faulting fresh ones in, so set-up time measures the
  // benchmark's work rather than the kernel's page zeroing.
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  RunOptions O;
  O.IdlDir = PERFBENCH_IDL_DIR;
  O.TraceDir = ".";
  std::string Workload;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + A).c_str());
    std::string V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      Workload = V;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V.c_str(), &End, 10);
      HaveSeed = End && !*End && !V.empty();
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V.c_str(), &End);
      HaveSeconds = End && !*End && O.Seconds > 0 && O.Seconds <= 600;
    } else if (A == "--trace") {
      HaveTrace = V == "0" || V == "1";
      O.Traced = V == "1";
    } else if (A == "--trace-dir") {
      O.TraceDir = V;
    } else {
      return usage(("unknown option " + A).c_str());
    }
  }
  if (!HaveSeed || !HaveSeconds || !HaveTrace)
    return usage("--seed, --seconds and --trace need valid values");

  RunResult (*Run)(const RunOptions &) =
      Workload == "compile"    ? runCompile
      : Workload == "marshal"  ? runMarshal
      : Workload == "rpc_bulk" ? runRpcBulk
      : Workload == "rpc_open" ? runRpcOpen
                               : nullptr;
  if (!Run)
    return usage(("unknown workload '" + Workload + "'").c_str());

  std::printf("host nproc=%u cpu=\"%s\" build=%s\n",
              std::thread::hardware_concurrency(), cpuModel().c_str(),
              flick_build_info_json().c_str());
  std::printf("workload %s seed %llu seconds %g trace %d\n", Workload.c_str(),
              static_cast<unsigned long long>(O.Seed), O.Seconds,
              O.Traced ? 1 : 0);
  std::fflush(stdout);

  RunResult R = Run(O);

  // Fill the per-layer metrics this workload does not exercise, and
  // refuse a result that lacks an end-to-end metric.
  if (O.Traced) {
    for (const auto &[Name, Unit] : PerLayer)
      if (!R.Metrics.count(Name))
        R.set(Name, 0, Unit);
  } else {
    for (const char *Name : EndToEnd)
      if (!R.Metrics.count(Name)) {
        R.Notes.push_back(std::string("missing metric ") + Name);
        ++R.Failed;
        R.Attempted = std::max<uint64_t>(R.Attempted, 1);
      }
  }
  double FailedFrac =
      R.Attempted ? static_cast<double>(R.Failed) / R.Attempted : 1;
  R.Notes.push_back(fmt("failed_frac %.6g (failed %llu / attempted %llu)",
                        FailedFrac, static_cast<unsigned long long>(R.Failed),
                        static_cast<unsigned long long>(R.Attempted)));
  for (const std::string &N : R.Notes)
    std::printf("%s\n", N.c_str());

  bool Correct = R.Failed == 0 && R.Attempted > 0;
  std::string Json = std::string("{\"correct\": ") +
                     (Correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(R.Attempted) +
                     ", \"failed\": " + std::to_string(R.Failed) +
                     ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, M] : R.Metrics) {
    Json += (First ? "\"" : ", \"") + Name + "\": {\"value\": " +
            jsonNumber(M.Value) + ", \"unit\": \"" + M.Unit + "\"}";
    First = false;
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return Correct ? 0 : 1;
}
