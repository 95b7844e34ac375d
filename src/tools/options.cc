#include "tools/options.hh"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdlib>

#include "support/logging.hh"
#include "support/strings.hh"

namespace hbbp {

namespace {

/**
 * A positional sink that demands exactly @p want arguments; shared by
 * every command whose grammar is `command <arg> [flags]`.
 */
std::vector<std::string>
exactPositionals(ArgParser &parser, size_t want, const char *what)
{
    std::vector<std::string> positionals;
    parser.run(&positionals);
    if (positionals.size() < want)
        fatal("missing %s argument", what);
    if (positionals.size() > want)
        fatal("unexpected argument '%s'", positionals[want].c_str());
    return positionals;
}

} // namespace

// ---------------------------------------------------------------------------
// ArgParser.
// ---------------------------------------------------------------------------

std::string
ArgParser::needValue(const char *flag)
{
    if (i_ >= argc_)
        fatal("missing value for %s", flag);
    return argv_[i_++];
}

// std::stoul/stod would throw (or wrap negatives) on bad input; every
// malformed flag value should die with a fatal() diagnostic.
uint64_t
ArgParser::needCount(const char *flag, uint64_t max)
{
    std::string value = needValue(flag);
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(value.c_str(), &end, 10);
    if (value.empty() || *end != '\0' || errno == ERANGE ||
        value[0] == '-')
        fatal("invalid value '%s' for %s (expected a non-negative "
              "integer)", value.c_str(), flag);
    // Narrowing would silently truncate (e.g. 2^32 shards -> 0).
    if (v > max)
        fatal("value '%s' for %s is out of range (max %llu)",
              value.c_str(), flag, static_cast<unsigned long long>(max));
    return v;
}

double
ArgParser::needNumber(const char *flag)
{
    std::string value = needValue(flag);
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(value.c_str(), &end);
    if (value.empty() || *end != '\0' || errno == ERANGE)
        fatal("invalid value '%s' for %s (expected a number)",
              value.c_str(), flag);
    return v;
}

void
ArgParser::value(const char *flag, std::string *out)
{
    handlers_[flag] = [this, flag, out] { *out = needValue(flag); };
}

void
ArgParser::list(const char *flag, std::vector<std::string> *out)
{
    handlers_[flag] = [this, flag, out] {
        *out = split(needValue(flag), ',');
    };
}

void
ArgParser::number(const char *flag, double *out)
{
    handlers_[flag] = [this, flag, out] { *out = needNumber(flag); };
}

void
ArgParser::boolean(const char *flag, bool *out, bool value)
{
    handlers_[flag] = [out, value] { *out = value; };
}

void
ArgParser::action(const char *flag, std::function<void()> action)
{
    handlers_[flag] = std::move(action);
}

void
ArgParser::run(std::vector<std::string> *positionals)
{
    while (i_ < argc_) {
        std::string arg = argv_[i_++];
        auto it = handlers_.find(arg);
        if (it != handlers_.end()) {
            it->second();
            continue;
        }
        if (!arg.empty() && arg[0] == '-')
            fatal("unknown option '%s'", arg.c_str());
        if (positionals) {
            positionals->push_back(arg);
            continue;
        }
        fatal("unexpected argument '%s'", arg.c_str());
    }
}

void
parseHostPort(const std::string &value, const char *flag,
              std::string *host, uint16_t *port)
{
    size_t colon = value.rfind(':');
    if (colon == std::string::npos || colon + 1 >= value.size())
        fatal("%s expects HOST:PORT, got '%s'", flag, value.c_str());
    *host = value.substr(0, colon);
    // Bare digits only: strtoul would skip whitespace and accept
    // signs, the exact laxity the manifest parser rejects.
    std::string port_str = value.substr(colon + 1);
    unsigned long parsed = 0;
    bool digits = port_str.size() <= 5;
    for (char c : port_str)
        if (!std::isdigit(static_cast<unsigned char>(c)))
            digits = false;
    if (digits)
        parsed = std::strtoul(port_str.c_str(), nullptr, 10);
    if (!digits || parsed == 0 || parsed > UINT16_MAX)
        fatal("invalid port in '%s'", value.c_str());
    *port = static_cast<uint16_t>(parsed);
}

// ---------------------------------------------------------------------------
// Shared groups.
// ---------------------------------------------------------------------------

std::map<std::string, std::string>
AnalysisOptions::toQueryParams() const
{
    // Only the non-default knobs travel: the canonical (shortest)
    // request form, so in-process, socket and test-driven requests
    // for the same analysis hash to the same cache key.
    std::map<std::string, std::string> params;
    if (source != "hbbp")
        params["source"] = source;
    // The member `format` shadows hbbp::format() in this scope.
    if (cutoff != 18.0)
        params["cutoff"] = hbbp::format("%.17g", cutoff);
    if (!bias_rule)
        params["bias"] = "0";
    if (patch_kernel)
        params["patch"] = "1";
    if (!pivot.empty())
        params["pivot"] = join(pivot, ",");
    if (top != 0)
        params["top"] = hbbp::format("%zu", top);
    if (!function.empty())
        params["function"] = function;
    if (!host.empty())
        params["host"] = host;
    if (format != "text")
        params["format"] = format;
    return params;
}

void
addAnalysisFlags(ArgParser &parser, AnalysisOptions *opts)
{
    parser.value("--source", &opts->source);
    parser.number("--cutoff", &opts->cutoff);
    parser.boolean("--no-bias-rule", &opts->bias_rule, false);
    parser.boolean("--patch-kernel", &opts->patch_kernel, true);
    parser.list("--pivot", &opts->pivot);
    parser.count("--top", &opts->top);
    parser.value("--function", &opts->function);
    parser.value("--format", &opts->format);
    parser.action("--csv", [opts] { opts->format = "csv"; });
}

void
CollectionOptions::finalize()
{
    if (jobs == 0)
        fatal("--jobs must be >= 1");
    if (shards == 0)
        shards = jobs;
}

void
addCollectionFlags(ArgParser &parser, CollectionOptions *opts)
{
    parser.count("--jobs", &opts->jobs,
                 static_cast<uint64_t>(UINT_MAX));
    parser.count("--shards", &opts->shards, UINT32_MAX);
    parser.value("--store", &opts->store_dir);
}

void
addDaemonFlags(ArgParser &parser, DaemonOptions *opts)
{
    parser.count("--listen", &opts->listen_port, UINT16_MAX);
    parser.value("--bind", &opts->bind_addr);
    parser.value("--port-file", &opts->port_file);
    parser.value("--state", &opts->state_file);
    parser.count("--expect", &opts->expect);
    parser.count("--timeout-ms", &opts->timeout_ms,
                 static_cast<uint64_t>(INT_MAX));
    parser.count("--metrics-port", &opts->metrics_port, UINT16_MAX);
    parser.value("--metrics-port-file", &opts->metrics_port_file);
    parser.value("--event-log", &opts->event_log);
    parser.number("--stall-warn-s", &opts->stall_warn_s);
}

// ---------------------------------------------------------------------------
// Per-command parsers. All parse argv[2..): main() consumed the
// command name in argv[1].
// ---------------------------------------------------------------------------

CollectOptions
CollectOptions::parse(int argc, char **argv)
{
    CollectOptions opts;
    ArgParser p(argc, argv, 2);
    p.value("-o", &opts.profile_out);
    addCollectionFlags(p, &opts.coll);
    opts.workload = exactPositionals(p, 1, "workload")[0];
    opts.coll.finalize();
    return opts;
}

MergeOptions
MergeOptions::parse(int argc, char **argv)
{
    MergeOptions opts;
    ArgParser p(argc, argv, 2);
    p.value("-o", &opts.profile_out);
    p.run(&opts.inputs);
    return opts;
}

BatchOptions
BatchOptions::parse(int argc, char **argv)
{
    BatchOptions opts;
    ArgParser p(argc, argv, 2);
    addCollectionFlags(p, &opts.coll);
    addAnalysisFlags(p, &opts.analysis);
    opts.workloads = exactPositionals(p, 1, "workload list")[0];
    opts.coll.finalize();
    return opts;
}

ExportOptions
ExportOptions::parse(int argc, char **argv)
{
    ExportOptions opts;
    ArgParser p(argc, argv, 2);
    p.value("--host", &opts.host);
    p.value("--export-dir", &opts.export_dir);
    p.count("--seq", &opts.seq, UINT32_MAX);
    addCollectionFlags(p, &opts.coll);
    opts.workload = exactPositionals(p, 1, "workload")[0];
    opts.coll.finalize();
    return opts;
}

PushOptions
PushOptions::parse(int argc, char **argv)
{
    PushOptions opts;
    ArgParser p(argc, argv, 2);
    p.value("--host", &opts.host);
    p.value("--to", &opts.to);
    p.value("--export-dir", &opts.export_dir);
    p.value("-o", &opts.profile_out);
    p.value("--event-log", &opts.event_log);
    p.count("--seq", &opts.seq, UINT32_MAX);
    p.count("--shards", &opts.shards, UINT32_MAX);
    p.count("--retries", &opts.retries,
            static_cast<uint64_t>(INT_MAX));
    p.count("--jobs", &opts.jobs, static_cast<uint64_t>(UINT_MAX));
    opts.workload = exactPositionals(p, 1, "workload")[0];
    if (opts.jobs == 0)
        fatal("--jobs must be >= 1");
    return opts;
}

AggregateOptions
AggregateOptions::parse(int argc, char **argv)
{
    AggregateOptions opts;
    ArgParser p(argc, argv, 2);
    p.value("--watch-dir", &opts.watch_dir);
    p.value("-o", &opts.profile_out);
    p.value("--store", &opts.store_dir);
    addDaemonFlags(p, &opts.daemon);
    p.run();
    return opts;
}

RelayCliOptions
RelayCliOptions::parse(int argc, char **argv)
{
    RelayCliOptions opts;
    ArgParser p(argc, argv, 2);
    p.value("--to", &opts.to);
    p.value("--relay-id", &opts.relay_id);
    p.value("--store", &opts.store_dir);
    p.count("--flush-every", &opts.flush_every);
    p.count("--retries", &opts.retries,
            static_cast<uint64_t>(INT_MAX));
    addDaemonFlags(p, &opts.daemon);
    p.run();
    return opts;
}

StoreOptions
StoreOptions::parse(int argc, char **argv)
{
    StoreOptions opts;
    ArgParser p(argc, argv, 2);
    p.value("--store", &opts.store_dir);
    p.count("--max-age-s", &opts.max_age_s,
            static_cast<uint64_t>(INT64_MAX));
    p.count("--max-bytes", &opts.max_bytes,
            static_cast<uint64_t>(INT64_MAX));
    opts.action = exactPositionals(p, 1, "store action")[0];
    return opts;
}

StatsOptions
StatsOptions::parse(int argc, char **argv)
{
    StatsOptions opts;
    ArgParser p(argc, argv, 2);
    p.value("--from", &opts.from);
    p.boolean("--tree", &opts.tree, true);
    p.boolean("--healthz", &opts.healthz, true);
    p.number("--watch", &opts.watch_s);
    p.count("--count", &opts.watch_count);
    p.run();
    if (opts.watch_s < 0.0)
        fatal("--watch expects a non-negative interval in seconds");
    if ((opts.tree || opts.healthz || opts.watch_s > 0.0) &&
        opts.from.empty())
        fatal("--tree/--healthz/--watch need --from HOST:PORT");
    return opts;
}

EventsOptions
EventsOptions::parse(int argc, char **argv)
{
    EventsOptions opts;
    ArgParser p(argc, argv, 2);
    p.value("--from", &opts.from);
    p.value("--code", &opts.code);
    p.count("--since", &opts.since_ms);
    p.run();
    if (opts.from.empty())
        fatal("events needs --from FILE (an --event-log file)");
    return opts;
}

MigrateOptions
MigrateOptions::parse(int argc, char **argv)
{
    MigrateOptions opts;
    ArgParser p(argc, argv, 2);
    p.value("-o", &opts.profile_out);
    opts.input = exactPositionals(p, 1, "input profile")[0];
    return opts;
}

AnalyzeOptions
AnalyzeOptions::parse(int argc, char **argv)
{
    AnalyzeOptions opts;
    ArgParser p(argc, argv, 2);
    p.value("-i", &opts.profile_in);
    addAnalysisFlags(p, &opts.analysis);
    opts.workload = exactPositionals(p, 1, "workload")[0];
    return opts;
}

FdoOptions
FdoOptions::parse(int argc, char **argv)
{
    FdoOptions opts;
    ArgParser p(argc, argv, 2);
    p.value("-i", &opts.profile_in);
    p.value("-o", &opts.profile_out);
    addAnalysisFlags(p, &opts.analysis);
    opts.workload = exactPositionals(p, 1, "workload")[0];
    return opts;
}

QueryCliOptions
QueryCliOptions::parse(int argc, char **argv)
{
    QueryCliOptions opts;
    ArgParser p(argc, argv, 2);
    p.value("--from", &opts.from);
    p.value("--host", &opts.analysis.host);
    addAnalysisFlags(p, &opts.analysis);
    opts.verb = exactPositionals(p, 1, "query verb")[0];
    return opts;
}

} // namespace hbbp
