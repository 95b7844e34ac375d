#include "trace.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench::trace {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};

struct Buffer
{
    uint32_t thread = 0;
    std::vector<SpanRecord> spans;
    std::vector<uint64_t> stack;
};

std::mutex g_registry_mu;
std::vector<std::shared_ptr<Buffer>> g_buffers;

Buffer &
localBuffer()
{
    thread_local std::shared_ptr<Buffer> buf;
    if (!buf) {
        buf = std::make_shared<Buffer>();
        std::lock_guard<std::mutex> lock(g_registry_mu);
        buf->thread = static_cast<uint32_t>(g_buffers.size());
        g_buffers.push_back(buf);
    }
    return *buf;
}

} // namespace

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
setEnabled(bool on)
{
    g_enabled.store(on, std::memory_order_relaxed);
}

bool
enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

Span::Span(const char *name, std::string parent_key) : name_(name)
{
    if (!enabled())
        return;
    on_ = true;
    Buffer &b = localBuffer();
    id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
    parent_ = b.stack.empty() ? 0 : b.stack.back();
    parent_key_ = std::move(parent_key);
    b.stack.push_back(id_);
    start_ = nowNs();
}

Span::~Span()
{
    if (!on_)
        return;
    int64_t end = nowNs();
    Buffer &b = localBuffer();
    b.stack.pop_back();
    SpanRecord r;
    r.id = id_;
    r.parent = parent_;
    r.name = name_;
    r.key = std::move(key_);
    r.parent_key = std::move(parent_key_);
    r.thread = b.thread;
    r.start_ns = start_;
    r.end_ns = end;
    b.spans.push_back(std::move(r));
}

std::vector<SpanRecord>
drain()
{
    std::lock_guard<std::mutex> lock(g_registry_mu);
    std::vector<SpanRecord> out;
    for (const std::shared_ptr<Buffer> &b : g_buffers) {
        for (SpanRecord &r : b->spans)
            out.push_back(std::move(r));
        b->spans.clear();
    }
    return out;
}

int64_t
coveredNs(int64_t start, int64_t end,
          std::vector<std::pair<int64_t, int64_t>> children)
{
    for (auto &[s, e] : children) {
        s = std::max(s, start);
        e = std::min(e, end);
    }
    std::sort(children.begin(), children.end());
    int64_t covered = 0, cur_s = 0, cur_e = 0;
    bool open = false;
    for (const auto &[s, e] : children) {
        if (e <= s)
            continue;
        if (open && s <= cur_e) {
            cur_e = std::max(cur_e, e);
            continue;
        }
        if (open)
            covered += cur_e - cur_s;
        cur_s = s;
        cur_e = e;
        open = true;
    }
    if (open)
        covered += cur_e - cur_s;
    return covered;
}

Tree
buildTree(std::vector<SpanRecord> spans)
{
    Tree t;
    t.spans = std::move(spans);
    std::unordered_map<uint64_t, long> by_id;
    std::unordered_map<std::string, long> by_key;
    for (size_t i = 0; i < t.spans.size(); i++) {
        by_id[t.spans[i].id] = static_cast<long>(i);
        if (!t.spans[i].key.empty())
            by_key[t.spans[i].key] = static_cast<long>(i);
    }
    t.parent.assign(t.spans.size(), -1);
    std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(
        t.spans.size());
    for (size_t i = 0; i < t.spans.size(); i++) {
        const SpanRecord &s = t.spans[i];
        long p = -1;
        if (!s.parent_key.empty()) {
            auto it = by_key.find(s.parent_key);
            if (it != by_key.end())
                p = it->second;
            else
                t.unresolved++;
        } else if (s.parent != 0) {
            auto it = by_id.find(s.parent);
            if (it != by_id.end())
                p = it->second;
        }
        t.parent[i] = p;
        if (p >= 0)
            kids[p].emplace_back(s.start_ns, s.end_ns);
    }
    t.self_ns.resize(t.spans.size());
    for (size_t i = 0; i < t.spans.size(); i++) {
        const SpanRecord &s = t.spans[i];
        t.self_ns[i] =
            s.duration() - coveredNs(s.start_ns, s.end_ns, kids[i]);
    }
    return t;
}

std::map<std::string, NameStats>
statsByName(const Tree &tree)
{
    std::map<std::string, NameStats> out;
    for (size_t i = 0; i < tree.spans.size(); i++) {
        NameStats &n = out[tree.spans[i].name];
        n.count++;
        n.total_ns += tree.spans[i].duration();
        n.self_total_ns += tree.self_ns[i];
    }
    return out;
}

double
accountedRatio(const Tree &tree, const std::string &op)
{
    // Root of each span, found by walking parents (trees are shallow).
    std::vector<long> root(tree.spans.size());
    for (size_t i = 0; i < tree.spans.size(); i++) {
        long r = static_cast<long>(i);
        while (tree.parent[r] >= 0)
            r = tree.parent[r];
        root[i] = r;
    }
    int64_t self_sum = 0, op_sum = 0;
    for (size_t i = 0; i < tree.spans.size(); i++) {
        const SpanRecord &r = tree.spans[root[i]];
        if (op != r.name)
            continue;
        self_sum += tree.self_ns[i];
        if (root[i] == static_cast<long>(i))
            op_sum += r.duration();
    }
    return op_sum ? static_cast<double>(self_sum) / op_sum : 0.0;
}

} // namespace perfbench::trace
