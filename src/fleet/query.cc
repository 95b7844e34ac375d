#include "fleet/query.hh"

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>

#include "fleet/socket_client.hh"
#include "support/bytes.hh"
#include "support/events.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "support/telemetry.hh"

namespace hbbp {

std::string
encodeQueryFrame(const std::string &body)
{
    ByteWriter w;
    w.u64(kQueryFrameMagic);
    w.u32(static_cast<uint32_t>(body.size()));
    std::string frame = w.bytes();
    frame += body;
    return frame;
}

std::string
renderQueryReplyBody(const QueryReply &reply)
{
    std::string out = "hbbp-reply/1\n";
    out += format("status=%s\n", reply.ok ? "ok" : "error");
    out += format("epoch=%llu\n",
                  static_cast<unsigned long long>(reply.epoch));
    out += format("cached=%d\n", reply.cached ? 1 : 0);
    if (reply.has_timing)
        out += format(
            "timing=parse:%llu,cache:%llu,analysis:%llu,render:%llu\n",
            static_cast<unsigned long long>(reply.parse_ns),
            static_cast<unsigned long long>(reply.cache_ns),
            static_cast<unsigned long long>(reply.analysis_ns),
            static_cast<unsigned long long>(reply.render_ns));
    if (!reply.trace_id.empty())
        out += "trace=" + reply.trace_id + "\n";
    if (!reply.ok) {
        // Header values are single-line by construction.
        std::string error = reply.error;
        for (char &c : error)
            if (c == '\n')
                c = ' ';
        out += "error=" + error + "\n";
    }
    out += "\n";
    out += reply.payload;
    return out;
}

bool
parseQueryReplyBody(const std::string &body, QueryReply *reply,
                    std::string *why)
{
    size_t sep = body.find("\n\n");
    if (sep == std::string::npos) {
        *why = "malformed reply: missing blank line after headers";
        return false;
    }
    std::vector<std::string> headers =
        split(body.substr(0, sep), '\n');
    reply->payload = body.substr(sep + 2);

    if (headers.empty() || headers[0] != "hbbp-reply/1") {
        *why = format("malformed reply: unexpected version line '%s'",
                      headers.empty() ? "" : headers[0].c_str());
        return false;
    }
    bool have_status = false, have_epoch = false;
    for (size_t i = 1; i < headers.size(); i++) {
        const std::string &line = headers[i];
        size_t eq = line.find('=');
        if (eq == std::string::npos || eq == 0) {
            *why = format("malformed reply header '%s'", line.c_str());
            return false;
        }
        std::string key = line.substr(0, eq);
        std::string value = line.substr(eq + 1);
        if (key == "status") {
            if (value != "ok" && value != "error") {
                *why = format("malformed reply status '%s'",
                              value.c_str());
                return false;
            }
            reply->ok = value == "ok";
            have_status = true;
        } else if (key == "epoch") {
            char *end = nullptr;
            reply->epoch = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0') {
                *why = format("malformed reply epoch '%s'",
                              value.c_str());
                return false;
            }
            have_epoch = true;
        } else if (key == "cached") {
            reply->cached = value == "1";
        } else if (key == "timing") {
            // Tolerant parse: unknown phases are skipped so the
            // header can grow phases without breaking old clients.
            for (const std::string &part : split(value, ',')) {
                size_t colon = part.find(':');
                if (colon == std::string::npos)
                    continue;
                std::string phase = part.substr(0, colon);
                uint64_t ns = std::strtoull(
                    part.c_str() + colon + 1, nullptr, 10);
                if (phase == "parse")
                    reply->parse_ns = ns;
                else if (phase == "cache")
                    reply->cache_ns = ns;
                else if (phase == "analysis")
                    reply->analysis_ns = ns;
                else if (phase == "render")
                    reply->render_ns = ns;
            }
            reply->has_timing = true;
        } else if (key == "trace") {
            reply->trace_id = value;
        } else if (key == "error") {
            reply->error = value;
        }
        // Unknown headers are skipped: a newer server may add some.
    }
    if (!have_status || !have_epoch) {
        *why = "malformed reply: missing status/epoch headers";
        return false;
    }
    return true;
}

std::string
queryErrorReplyBody(const std::string &error)
{
    QueryReply reply;
    reply.error = error;
    return renderQueryReplyBody(reply);
}

// ---------------------------------------------------------------------------
// QueryClient.
// ---------------------------------------------------------------------------

QueryClient::QueryClient(std::string host, uint16_t port,
                         int io_timeout_ms)
    : host_(std::move(host)), port_(port),
      io_timeout_ms_(io_timeout_ms)
{
}

QueryClient::~QueryClient()
{
    disconnect();
}

void
QueryClient::disconnect()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
QueryClient::ensureConnected(std::string *why)
{
    if (fd_ >= 0)
        return true;
    fd_ = netConnect(host_, port_, io_timeout_ms_, why);
    return fd_ >= 0;
}

bool
QueryClient::query(const std::string &request_body, QueryReply *reply,
                   std::string *why)
{
    if (request_body.empty() ||
        request_body.size() > kMaxQueryBodyBytes) {
        *why = format("query body size %zu out of range (max %zu)",
                      request_body.size(), kMaxQueryBodyBytes);
        return false;
    }
    if (!ensureConnected(why))
        return false;

    std::string frame = encodeQueryFrame(request_body);
    if (!netWriteAll(fd_, frame.data(), frame.size(),
                     io_timeout_ms_)) {
        disconnect();
        *why = format("cannot send query to %s:%u: %s", host_.c_str(),
                      port_, std::strerror(errno));
        return false;
    }

    char header[kQueryFrameHeaderBytes];
    if (!netReadFull(fd_, header, sizeof(header))) {
        disconnect();
        *why = format("no reply from %s:%u (connection closed or "
                      "timed out)", host_.c_str(), port_);
        return false;
    }
    uint64_t magic;
    uint32_t body_len;
    std::memcpy(&magic, header, 8);
    std::memcpy(&body_len, header + 8, 4);
    if (magic != kQueryReplyMagic || body_len == 0 ||
        body_len > kMaxQueryBodyBytes) {
        disconnect();
        *why = format("malformed reply frame from %s:%u",
                      host_.c_str(), port_);
        return false;
    }
    std::string body(body_len, '\0');
    if (!netReadFull(fd_, body.data(), body.size())) {
        disconnect();
        *why = format("truncated reply from %s:%u", host_.c_str(),
                      port_);
        return false;
    }
    if (!parseQueryReplyBody(body, reply, why)) {
        disconnect();
        return false;
    }
    return true;
}

// ---------------------------------------------------------------------------
// AggregatorProfileSource.
// ---------------------------------------------------------------------------

std::vector<HostSlice>
AggregatorProfileSource::hostSlices() const
{
    std::vector<HostSlice> slices;
    for (const IncrementalAggregator::HostProgress &c :
         agg_.hostProgress())
        slices.push_back({c.host, c.covered, c.pending});
    return slices;
}

// ---------------------------------------------------------------------------
// QueryEndpoint.
// ---------------------------------------------------------------------------

QueryEndpoint::QueryEndpoint(AnalysisService &service)
    : service_(service)
{
    telemetry::beatEnable(telemetry::Stage::Query);
}

namespace {

/** Steady-clock nanoseconds for the per-query timing header. */
int64_t
queryNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

std::string
QueryEndpoint::handle(const std::string &request_body)
{
    static telemetry::Histogram &m_serve_ms = telemetry::histogram(
        "hbbp_query_serve_ms", telemetry::latencyBucketsMs());
    int64_t start_ms = steadyNowMs();
    int64_t t0 = queryNowNs();

    QueryReply reply;
    reply.has_timing = true;
    std::string why;
    std::optional<QueryRequest> request =
        QueryRequest::parseText(request_body, &why);
    int64_t t_parsed = queryNowNs();
    reply.parse_ns = static_cast<uint64_t>(t_parsed - t0);
    std::string verb = "?";
    if (!request) {
        reply.epoch = service_.epoch();
        reply.error = why;
    } else if (request->verb == "shutdown") {
        // Transport-level: acknowledged here, the listener's
        // should_stop hook observes stopRequested() next poll round.
        verb = request->verb;
        stop_ = true;
        reply.ok = true;
        reply.epoch = service_.epoch();
        reply.payload = "shutting down\n";
    } else {
        verb = request->verb;
        ServeTiming timing;
        QueryResult result = service_.serve(*request, &timing);
        reply.cache_ns = timing.cache_ns;
        reply.analysis_ns = timing.analysis_ns;
        reply.ok = result.error.empty();
        reply.epoch = result.epoch;
        reply.cached = result.cached;
        reply.error = result.error;
        if (reply.ok) {
            int64_t t_render = queryNowNs();
            // serve() validated the format parameter.
            reply.payload = result.render(*renderFormatFromName(
                request->param("format", "text")));
            reply.render_ns =
                static_cast<uint64_t>(queryNowNs() - t_render);
        }
    }
    // The query's join point into the shard-lifecycle trace: one
    // query_serve span on the daemon's own timeline, id echoed in the
    // reply so the caller can find it.
    if (events::logActive()) {
        reply.trace_id = format(
            "query-%s-%llu", events::logNode().c_str(),
            static_cast<unsigned long long>(++query_seq_));
        events::emit(events::Level::Info, "query_serve",
                     {{"trace", reply.trace_id},
                      {"verb", verb},
                      {"epoch", format("%llu",
                                       static_cast<unsigned long long>(
                                           reply.epoch))},
                      {"cached", reply.cached ? "1" : "0"}});
    }
    telemetry::beat(telemetry::Stage::Query);
    m_serve_ms.observe(
        static_cast<uint64_t>(steadyNowMs() - start_ms));
    return renderQueryReplyBody(reply);
}

} // namespace hbbp
