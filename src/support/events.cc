#include "support/events.hh"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "support/bytes.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "support/telemetry.hh"

namespace hbbp {
namespace events {

namespace {

uint64_t
wallUs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

/** The process-wide sink: one file, one mutex, flushed per line. */
struct Sink
{
    std::mutex mu;
    FILE *file = nullptr;
    std::string node;
};

Sink &
sink()
{
    static Sink *s = new Sink(); // leaked: outlive static dtors
    return *s;
}

// ------------------------------------------------------------------
// A minimal parser for the exact JSON this file writes: one flat
// object with number/string values plus one nested "fields" object
// of string values. Tolerant of key order, intolerant of damage.
// ------------------------------------------------------------------

struct Cursor
{
    const std::string &s;
    size_t i = 0;

    void skipWs()
    {
        while (i < s.size() &&
               (s[i] == ' ' || s[i] == '\t' || s[i] == '\r'))
            i++;
    }
    bool eat(char c)
    {
        skipWs();
        if (i >= s.size() || s[i] != c)
            return false;
        i++;
        return true;
    }
    bool peek(char c)
    {
        skipWs();
        return i < s.size() && s[i] == c;
    }
};

bool
parseJsonString(Cursor &c, std::string *out)
{
    if (!c.eat('"'))
        return false;
    out->clear();
    while (c.i < c.s.size()) {
        char ch = c.s[c.i++];
        if (ch == '"')
            return true;
        if (ch == '\\') {
            if (c.i >= c.s.size())
                return false;
            char esc = c.s[c.i++];
            switch (esc) {
              case '"': out->push_back('"'); break;
              case '\\': out->push_back('\\'); break;
              case '/': out->push_back('/'); break;
              case 'n': out->push_back('\n'); break;
              case 't': out->push_back('\t'); break;
              case 'r': out->push_back('\r'); break;
              case 'u': {
                if (c.i + 4 > c.s.size())
                    return false;
                unsigned v = 0;
                for (int k = 0; k < 4; k++) {
                    char h = c.s[c.i++];
                    v <<= 4;
                    if (h >= '0' && h <= '9')
                        v |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        v |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        v |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return false;
                }
                // The writer only escapes control bytes.
                out->push_back(static_cast<char>(v & 0xff));
                break;
              }
              default:
                return false;
            }
        } else {
            out->push_back(ch);
        }
    }
    return false;
}

bool
parseJsonNumber(Cursor &c, uint64_t *out)
{
    c.skipWs();
    size_t start = c.i;
    while (c.i < c.s.size() && c.s[c.i] >= '0' && c.s[c.i] <= '9')
        c.i++;
    if (c.i == start)
        return false;
    errno = 0;
    *out = std::strtoull(c.s.substr(start, c.i - start).c_str(),
                         nullptr, 10);
    return errno != ERANGE;
}

} // namespace

std::atomic<bool> detail::log_open{false};

const char *
name(Level level)
{
    switch (level) {
      case Level::Info: return "info";
      case Level::Warn: return "warn";
      case Level::Error: return "error";
      default:
        panic("name: bad event Level %d", static_cast<int>(level));
    }
}

bool
levelFromName(const std::string &s, Level *out)
{
    if (s == "info")
        *out = Level::Info;
    else if (s == "warn")
        *out = Level::Warn;
    else if (s == "error")
        *out = Level::Error;
    else
        return false;
    return true;
}

std::string
Event::field(const std::string &key) const
{
    for (const auto &[k, v] : fields)
        if (k == key)
            return v;
    return "";
}

std::string
Event::render() const
{
    std::string out = format("%llu %-5s %s node=%s",
                             static_cast<unsigned long long>(ts_us / 1000),
                             name(level), code.c_str(), node.c_str());
    for (const auto &[k, v] : fields)
        out += " " + k + "=" + v;
    return out;
}

void
openLog(const std::string &path, const std::string &node)
{
    Sink &s = sink();
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.file)
        std::fclose(s.file);
    s.file = nullptr;
    s.node.clear();
    detail::log_open.store(false, std::memory_order_relaxed);
    if (path.empty())
        return;
    s.file = std::fopen(path.c_str(), "ab");
    if (!s.file)
        fatal("cannot open event log '%s': %s", path.c_str(),
              std::strerror(errno));
    s.node = node;
    detail::log_open.store(true, std::memory_order_relaxed);
}

std::string
logNode()
{
    Sink &s = sink();
    std::lock_guard<std::mutex> lock(s.mu);
    return s.node;
}

void
emit(Level level, const std::string &code,
     std::initializer_list<std::pair<std::string, std::string>> fields)
{
    Sink &s = sink();
    std::lock_guard<std::mutex> lock(s.mu);
    if (!s.file)
        return;
    static telemetry::Counter &m_events =
        telemetry::counter("hbbp_events_total");
    m_events.add();
    std::string line = "{\"ts_us\":" + std::to_string(wallUs()) +
                       ",\"level\":\"" + name(level) + "\",\"code\":\"" +
                       jsonEscape(code) + "\",\"node\":\"" +
                       jsonEscape(s.node) + "\",\"fields\":{";
    bool first = true;
    for (const auto &[k, v] : fields) {
        if (!first)
            line += ",";
        first = false;
        line += "\"" + jsonEscape(k) + "\":\"" + jsonEscape(v) + "\"";
    }
    line += "}}\n";
    std::fwrite(line.data(), 1, line.size(), s.file);
    std::fflush(s.file);
}

bool
parseEventLine(const std::string &line, Event *out, std::string *why)
{
    Cursor c{line};
    *out = Event();
    bool have_ts = false, have_code = false, have_level = false;
    if (!c.eat('{')) {
        *why = "record does not start with '{'";
        return false;
    }
    bool first = true;
    while (!c.peek('}')) {
        if (!first && !c.eat(',')) {
            *why = "missing ',' between members";
            return false;
        }
        first = false;
        std::string key;
        if (!parseJsonString(c, &key) || !c.eat(':')) {
            *why = "malformed member key";
            return false;
        }
        if (key == "ts_us") {
            if (!parseJsonNumber(c, &out->ts_us)) {
                *why = "malformed ts_us";
                return false;
            }
            have_ts = true;
        } else if (key == "level") {
            std::string level_name;
            if (!parseJsonString(c, &level_name) ||
                !levelFromName(level_name, &out->level)) {
                *why = "malformed level";
                return false;
            }
            have_level = true;
        } else if (key == "code") {
            if (!parseJsonString(c, &out->code)) {
                *why = "malformed code";
                return false;
            }
            have_code = true;
        } else if (key == "node") {
            if (!parseJsonString(c, &out->node)) {
                *why = "malformed node";
                return false;
            }
        } else if (key == "fields") {
            if (!c.eat('{')) {
                *why = "malformed fields object";
                return false;
            }
            bool ffirst = true;
            while (!c.peek('}')) {
                if (!ffirst && !c.eat(',')) {
                    *why = "missing ',' in fields";
                    return false;
                }
                ffirst = false;
                std::string fk, fv;
                if (!parseJsonString(c, &fk) || !c.eat(':') ||
                    !parseJsonString(c, &fv)) {
                    *why = "malformed field member";
                    return false;
                }
                out->fields.emplace_back(std::move(fk), std::move(fv));
            }
            c.eat('}');
        } else {
            // Unknown members are skipped if string/number shaped —
            // future writers may add them.
            std::string ignored;
            uint64_t ignored_n;
            if (!parseJsonString(c, &ignored) &&
                !parseJsonNumber(c, &ignored_n)) {
                *why = format("unparseable member '%s'", key.c_str());
                return false;
            }
        }
    }
    if (!c.eat('}')) {
        *why = "record does not end with '}'";
        return false;
    }
    if (!have_ts || !have_code || !have_level) {
        *why = "record misses ts_us, level or code";
        return false;
    }
    return true;
}

bool
loadEvents(const std::string &path, const std::string &code,
           uint64_t since_ms, std::vector<Event> *out, std::string *why)
{
    std::string content = readFileBytes(path, why);
    if (!why->empty())
        return false;

    size_t lineno = 0;
    for (const std::string &line : split(content, '\n')) {
        lineno++;
        if (line.empty())
            continue;
        Event e;
        std::string parse_why;
        if (!parseEventLine(line, &e, &parse_why)) {
            *why = format("%s:%zu: %s", path.c_str(), lineno,
                          parse_why.c_str());
            return false;
        }
        if (!code.empty() && e.code != code)
            continue;
        if (e.ts_us / 1000 < since_ms)
            continue;
        out->push_back(std::move(e));
    }
    return true;
}

// ---------------------------------------------------------------------
// StallWatchdog.
// ---------------------------------------------------------------------

StallWatchdog::~StallWatchdog()
{
    stop();
}

void
StallWatchdog::start(double stall_warn_s)
{
    if (stall_warn_s <= 0.0 || thread_.joinable())
        return;
    stop_.store(false, std::memory_order_relaxed);
    thread_ = std::thread([this, stall_warn_s] { watch(stall_warn_s); });
}

void
StallWatchdog::stop()
{
    if (!thread_.joinable())
        return;
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
}

void
StallWatchdog::watch(double stall_warn_s)
{
    static telemetry::Counter &m_stalls =
        telemetry::counter("hbbp_watchdog_stalls_total");
    bool flagged[telemetry::kStageCount] = {};
    while (!stop_.load(std::memory_order_relaxed)) {
        int64_t now = telemetry::healthNowMs();
        for (const telemetry::StageHealth &h :
             telemetry::stageHealth(now)) {
            size_t idx = static_cast<size_t>(h.stage);
            if (!h.loop)
                continue;
            if (h.age_s <= stall_warn_s) {
                flagged[idx] = false; // Recovered: re-arm.
                continue;
            }
            if (flagged[idx])
                continue; // One event per stall episode.
            flagged[idx] = true;
            m_stalls.add();
            emit(Level::Error, "watchdog_stall",
                 {{"stage", telemetry::name(h.stage)},
                  {"age_s", format("%.3f", h.age_s)},
                  {"threshold_s", format("%.3f", stall_warn_s)}});
            warn("watchdog: stage %s has not progressed for %.1fs "
                 "(threshold %.1fs)",
                 telemetry::name(h.stage), h.age_s, stall_warn_s);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
    }
}

} // namespace events
} // namespace hbbp
