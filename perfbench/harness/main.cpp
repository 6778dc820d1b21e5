// perfbench: one workload, one run.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> [--git-sha <sha>] [--source-digest <hex>]
//
// Prints two JSON lines on stdout. The first is the full report: host
// metadata, the workload's reason, every metric with its sample count,
// and the first few problems the checks found. The last is the summary
// {"correct", "attempted", "failed", "metrics"} with the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1).
#include <sys/statfs.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>

#include "workloads.hpp"

namespace {

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<pb::Metric>& ms, bool with_samples) {
  std::string out = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    if (i) out += ", ";
    out += json_str(ms[i].name) + ": {\"value\": " + json_num(ms[i].value) +
           ", \"unit\": " + json_str(ms[i].unit);
    if (with_samples) out += ", \"samples\": " + std::to_string(ms[i].samples);
    out += "}";
  }
  return out + "}";
}

std::string fs_name(const std::string& path) {
  struct statfs s {};
  if (statfs(path.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53: return "ext4";
    case 0x794c7630: return "overlayfs";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx", static_cast<unsigned long>(s.f_type));
      return buf;
    }
  }
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir> [--git-sha <sha>] "
               "[--source-digest <hex>]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) usage(("bad argument " + key).c_str());
    args[key.substr(2)] = argv[++i];
  }
  for (const char* required : {"workload", "seed", "seconds", "trace", "work-dir"}) {
    if (!args.count(required)) usage((std::string("missing --") + required).c_str());
  }
  pb::RunConfig config;
  config.workload = args["workload"];
  config.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  config.seconds = std::atof(args["seconds"].c_str());
  config.trace = args["trace"] == "1";
  config.work_dir = args["work-dir"];
  if (config.seconds <= 0) usage("--seconds must be positive");

  std::filesystem::create_directories(config.work_dir);
  std::string journal_fs = fs_name(config.work_dir);

  pb::RunResult r;
  try {
    r = pb::run_workload(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", config.workload.c_str(), e.what());
    return 1;
  }

  utsname u{};
  uname(&u);
  const char* lock_cache_env = std::getenv("IW_LOCK_CACHE");
  const char* compress_env = std::getenv("IW_COMPRESS");
  std::string host = "{\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                     ", \"kernel\": " + json_str(std::string(u.sysname) + " " + u.release) +
                     ", \"machine\": " + json_str(u.machine) +
                     ", \"compiler\": " + json_str(PERFBENCH_COMPILER) +
                     ", \"build_type\": " + json_str(PERFBENCH_BUILD_TYPE) +
                     ", \"git_sha\": " + json_str(args.count("git-sha") ? args["git-sha"] : "unknown") +
                     ", \"source_digest\": " + json_str(args.count("source-digest") ? args["source-digest"] : "unknown") +
                     ", \"journal_fs\": " + json_str(journal_fs) +
                     ", \"journal_flush\": " +
                     json_str("WAL group commit (kBatch): fdatasync at most every 5 ms") +
                     ", \"IW_LOCK_CACHE\": " + json_str(lock_cache_env ? lock_cache_env : "") +
                     ", \"IW_COMPRESS\": " + json_str(compress_env ? compress_env : "") + "}";
  std::string knobs = "{";
  for (size_t i = 0; i < r.config.size(); ++i) {
    if (i) knobs += ", ";
    knobs += json_str(r.config[i].first) + ": " + json_str(r.config[i].second);
  }
  knobs += "}";
  std::string conditions = "{";
  for (size_t i = 0; i < r.conditions.size(); ++i) {
    if (i) conditions += ", ";
    conditions += json_str(r.conditions[i].first) + ": " + json_num(r.conditions[i].second);
  }
  conditions += "}";
  std::string problems = "[";
  for (size_t i = 0; i < r.problems.size(); ++i) {
    if (i) problems += ", ";
    problems += json_str(r.problems[i]);
  }
  problems += "]";

  std::string counts = "\"correct\": " + std::string(r.correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(r.attempted) +
                       ", \"failed\": " + std::to_string(r.failed);
  std::printf(
      "{\"report\": \"perfbench\", \"workload\": %s, \"why\": %s, \"seed\": %llu, "
      "\"seconds\": %s, \"trace\": %d, \"host\": %s, \"conditions\": %s, "
      "\"config\": %s, %s, "
      "\"problems\": %s, \"end_to_end\": %s, \"per_layer\": %s}\n",
      json_str(config.workload).c_str(), json_str(r.why).c_str(),
      static_cast<unsigned long long>(config.seed), json_num(config.seconds).c_str(),
      config.trace ? 1 : 0, host.c_str(), conditions.c_str(), knobs.c_str(), counts.c_str(),
      problems.c_str(), metrics_json(r.end_to_end, true).c_str(),
      metrics_json(r.per_layer, true).c_str());
  std::printf("{%s, \"metrics\": %s}\n", counts.c_str(),
              metrics_json(config.trace ? r.per_layer : r.end_to_end, false).c_str());
  return 0;
}
