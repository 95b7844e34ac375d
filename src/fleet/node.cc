#include "fleet/node.hh"

#include <utility>

#include "fleet/metrics.hh"
#include "support/events.hh"
#include "support/logging.hh"
#include "support/rng.hh"

namespace hbbp {

IngestNode::IngestNode(IngestOptions options)
    : options_(std::move(options))
{
    const std::string &state = options_.state_file;
    if (!state.empty())
        journal_.emplace(state);
    if (!options_.store_dir.empty()) {
        store_.emplace(options_.store_dir);
        if (!state.empty())
            pin_.emplace(*store_,
                         format("state-%016llx",
                                static_cast<unsigned long long>(
                                    fnv1a(state))));
    }
}

size_t
IngestNode::restore()
{
    // A state that cannot be used is a cold start that re-imports the
    // shards: the journal warns, never dies.
    if (journal_)
        journal_->restore(agg_);
    // A crashed predecessor's pins guarded arrivals that are either in
    // the restored state (durable) or were never acknowledged (their
    // senders retry, pinning again): safe to release either way, and
    // leaking them would exempt the entries from gc forever.
    if (pin_ && pin_->restored() > 0) {
        inform("releasing %zu pin%s inherited from a previous run",
               pin_->restored(), pin_->restored() == 1 ? "" : "s");
        pin_->release();
    }
    return agg_.restoredShards();
}

void
IngestNode::accept(const ShardManifest &m, const ProfileData *profile,
                   const std::vector<std::string> &payloads)
{
    for (const std::string &id : m.trace_ids)
        events::emit(events::Level::Info, options_.accept_span,
                     {{"trace", id}, {"from", m.host}});
    // Federation discovery rides the shard tree: a sender that
    // advertises a scrape endpoint becomes a child to merge.
    if (options_.federator && !m.metrics_endpoint.empty())
        options_.federator->noteChild(m.host, m.metrics_endpoint);
    // Pin before depositing: until the arrival is durable below, a
    // concurrent `store gc` must not evict what a restart would need.
    if (pin_)
        pin_->pin(m.checksum);
    if (store_ && payloads.size() == 1)
        // Exact profile-file bytes: no re-parse or re-serialize.
        store_->depositBytesByChecksum(m.checksum, payloads[0]);
    else if (store_ && profile)
        store_->insertByChecksum(m.checksum, *profile);
    if (journal_)
        journal_->record(agg_, m, payloads);
    if (pin_)
        pin_->unpin(m.checksum);
}

void
IngestNode::release()
{
    if (pin_)
        pin_->release();
}

} // namespace hbbp
