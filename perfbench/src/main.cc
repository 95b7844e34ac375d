/**
 * @file
 * perfbench pipeline: the repository's end-to-end benchmark.
 *
 *   pipeline --workload ingest|serve|offline --seed N --seconds S
 *            --trace 0|1 [--work-dir DIR]
 *
 * Drives the library in process through one workload, checks its
 * outputs, and prints a human-readable report, one JSON line with
 * every number (calibration, checks, all metrics), and finally the
 * one-line result: {"correct", "attempted", "failed", "metrics"} with
 * the end-to-end metrics (--trace 0) or the per-layer metrics
 * (--trace 1). Exits 1 when a check or an operation failed.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include <sched.h>

#include "support/logging.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

/** The metric names BENCHMARK.json declares, in its order. */
const char *const kEndToEnd[] = {"setup_s",    "ops_per_s",  "op_p50_ms",
                                 "op_tail_ms", "ack_p50_ms", "peak_rss_mb"};

const char *const kPerLayer[] = {
    "collect.ns", "collect.sim_instr_per_s", "collect.samples",
    "profile.serialize_ns", "profile.parse_ns", "profile.bytes",
    "transport.push_ns", "transport.self_ns",
    "transport.attempts_per_shard", "aggregate.fold_ns",
    "aggregate.rebuild_ns", "aggregate.reject_ratio", "journal.record_ns",
    "journal.compact_ns", "journal.bytes_per_record", "store.pin_ns",
    "store.deposit_ns", "store.bytes_per_entry", "blockmap.build_ns",
    "blockmap.blocks", "bbec.estimate_ns", "bbec.ns_per_stream",
    "bbec.lbr_streams", "bbec.lbr_discard_ratio", "bbec.ebs_unmapped_ratio",
    "bbec.biased_branches", "classify.ns", "classify.lbr_share", "mix.ns",
    "render.ns", "render.bytes", "service.serve_ns", "service.analysis_ns",
    "service.hit_ratio", "service.analyses", "query.roundtrip_ns",
    "query.self_ns", "query.reply_bytes", "generator.late_ms",
    "tracing.overhead_pct", "replay.analysis_ns"};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "pipeline: %s\nusage: pipeline --workload "
                 "ingest|serve|offline --seed N --seconds S --trace 0|1 "
                 "[--work-dir DIR]\n",
                 why);
    std::exit(2);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
metricJson(const Metric &m, bool full)
{
    std::string out = "{\"value\": " + jsonNumber(m.value) +
                      ", \"unit\": " + jsonString(m.unit);
    if (full)
        out += ", \"n\": " + std::to_string(m.n) +
               ", \"note\": " + jsonString(m.note);
    return out + "}";
}

std::string
metricsJson(const std::map<std::string, Metric> &metrics, bool full)
{
    std::string out = "{";
    for (const auto &[name, m] : metrics) {
        if (out.size() > 1)
            out += ", ";
        out += jsonString(name) + ": " + metricJson(m, full);
    }
    return out + "}";
}

/** CPUs every thread of the load shares. */
constexpr int kLoadCpus = 2;

/**
 * Pin this thread, and so every thread it starts later, to the
 * kLoadCpus highest CPUs it may run on (fewer if fewer are allowed).
 * Returns them as "2,3", or "none" when pinning failed.
 */
std::string
pinLoadCpus()
{
    cpu_set_t allowed, load;
    CPU_ZERO(&allowed);
    CPU_ZERO(&load);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
        return "none";
    std::string cpus;
    for (int cpu = CPU_SETSIZE - 1, n = 0; cpu >= 0 && n < kLoadCpus;
         cpu--) {
        if (!CPU_ISSET(cpu, &allowed))
            continue;
        CPU_SET(cpu, &load);
        cpus = std::to_string(cpu) + (n++ ? "," : "") + cpus;
    }
    if (cpus.empty() || sched_setaffinity(0, sizeof(load), &load) != 0)
        return "none";
    return cpus;
}

void
printSection(const char *label, const std::map<std::string, Metric> &ms)
{
    for (const auto &[name, m] : ms)
        std::printf("%-7s %-32s %16.6g %-6s n=%-7zu %s\n", label,
                    name.c_str(), m.value, m.unit.c_str(), m.n,
                    m.note.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    RunArgs args;
    args.work_dir = ".bench_build/work";
    int trace_flag = -1;
    for (int i = 1; i < argc; i++) {
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing option value");
            return argv[++i];
        };
        if (std::strcmp(argv[i], "--workload") == 0)
            args.workload = value();
        else if (std::strcmp(argv[i], "--seed") == 0)
            args.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (std::strcmp(argv[i], "--seconds") == 0)
            args.seconds = std::atoi(value().c_str());
        else if (std::strcmp(argv[i], "--trace") == 0)
            trace_flag = std::atoi(value().c_str());
        else if (std::strcmp(argv[i], "--work-dir") == 0)
            args.work_dir = value();
        else
            usage("unknown option");
    }
    if (args.workload != "ingest" && args.workload != "serve" &&
        args.workload != "offline")
        usage("--workload must be ingest, serve or offline");
    if (args.seconds < 1 || args.seconds > 600)
        usage("--seconds must be 1..600");
    if (trace_flag != 0 && trace_flag != 1)
        usage("--trace must be 0 or 1");
    args.trace = trace_flag == 1;
    std::filesystem::create_directories(args.work_dir);
    // Exceptional paths warn; the happy path must not print.
    hbbp::setLogLevel(hbbp::LogLevel::Normal);

    Report report;
    report.calibration = calibrate();
    // A shared 4-vCPU host can swing between 1 and 4 effective cores
    // from run to run. A fixed two-CPU budget for every thread of the
    // load keeps runs comparable while senders, clients and the poll
    // thread can still overlap; the calibration above still records
    // what the machine offered.
    std::string pinned_cpus = pinLoadCpus();

    if (args.workload == "ingest")
        runIngest(args, report);
    else if (args.workload == "serve")
        runServe(args, report);
    else
        runOffline(args, report);

    if (args.trace)
        for (const char *name : kPerLayer)
            report.check(std::string("per-layer metric ") + name +
                             " measured",
                         report.layer.count(name) != 0);
    for (const char *name : kEndToEnd)
        report.check(std::string("end-to-end metric ") + name + " measured",
                     report.e2e.count(name) != 0);

    const Calibration &c = report.calibration;
    uint64_t failed_checks = report.failedChecks();
    double fail_ratio =
        failRatio(report.failed, failed_checks, report.attempted);
    report.detail["fail_ratio"] = {fail_ratio, "ratio", report.attempted,
                                   "failed ops + failed checks / attempted"};

    std::printf("perfbench pipeline workload=%s seed=%llu seconds=%d "
                "trace=%d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    std::printf("calibration nproc=%u effective_cores=%.2f spin_1_ms=%.1f "
                "spin_n_ms=%.1f clock_read_ns=%.1f pinned_cpus=%s seed=%llu\n",
                c.nproc, c.effective_cores, c.spin_1_ms, c.spin_n_ms,
                c.clock_read_ns, pinned_cpus.c_str(),
                static_cast<unsigned long long>(args.seed));
    printSection("e2e", report.e2e);
    printSection("detail", report.detail);
    printSection("layer", report.layer);
    for (const auto &[name, ok] : report.checks)
        std::printf("check   %-4s %s\n", ok ? "ok" : "FAIL", name.c_str());

    std::string checks = "[";
    for (const auto &[name, ok] : report.checks) {
        if (checks.size() > 1)
            checks += ", ";
        checks += "{\"name\": " + jsonString(name) +
                  ", \"ok\": " + (ok ? "true" : "false") + "}";
    }
    checks += "]";
    std::printf(
        "{\"report\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %d, "
        "\"trace\": %d, \"calibration\": {\"nproc\": %u, "
        "\"effective_cores\": %s, \"spin_1_ms\": %s, \"spin_n_ms\": %s, "
        "\"clock_read_ns\": %s, \"pinned_cpus\": %s}, \"end_to_end\": %s, "
        "\"detail\": %s, \"per_layer\": %s, \"checks\": %s}}\n",
        jsonString(args.workload).c_str(),
        static_cast<unsigned long long>(args.seed), args.seconds,
        args.trace ? 1 : 0, c.nproc, jsonNumber(c.effective_cores).c_str(),
        jsonNumber(c.spin_1_ms).c_str(), jsonNumber(c.spin_n_ms).c_str(),
        jsonNumber(c.clock_read_ns).c_str(), jsonString(pinned_cpus).c_str(),
        metricsJson(report.e2e, true).c_str(),
        metricsJson(report.detail, true).c_str(),
        metricsJson(report.layer, true).c_str(), checks.c_str());

    bool correct = failed_checks == 0 && report.failed == 0;
    std::map<std::string, Metric> result;
    if (args.trace) {
        for (const char *name : kPerLayer)
            result[name] = report.layer[name];
    } else {
        for (const char *name : kEndToEnd)
            result[name] = report.e2e[name];
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(
                    std::max<uint64_t>(report.attempted, 1)),
                static_cast<unsigned long long>(report.failed +
                                                failed_checks),
                metricsJson(result, false).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
