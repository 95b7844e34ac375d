/**
 * @file
 * A test-only encoder for the fixed-width profile payload of format
 * versions 2 and 3. The library still reads both (version 2 through
 * `hbbp-tool migrate` only) but writes version 4 alone, so the tests
 * that prove older files stay readable build their inputs here.
 */

#ifndef HBBP_TESTS_PROFILE_V3_HH
#define HBBP_TESTS_PROFILE_V3_HH

#include <string>

#include "collect/profile.hh"
#include "support/bytes.hh"
#include "support/rng.hh"

namespace hbbp::testutil {

/** The version-2/3 payload: every sample field at its full width. */
inline std::string
encodeFixedWidthBody(const ProfileData &pd)
{
    ByteWriter w;
    w.u64(pd.sim_periods.ebs);
    w.u64(pd.sim_periods.lbr);
    w.u64(pd.paper_periods.ebs);
    w.u64(pd.paper_periods.lbr);
    w.u8(static_cast<uint8_t>(pd.runtime_class));
    w.u64(pd.features.cycles);
    w.u64(pd.features.instructions);
    w.u64(pd.features.block_entries);
    w.u64(pd.features.taken_branches);
    w.u64(pd.features.simd_instructions);
    w.u64(pd.pmi_count);
    w.u32(static_cast<uint32_t>(pd.mmaps.size()));
    for (const MmapRecord &m : pd.mmaps) {
        w.str(m.name);
        w.u64(m.base);
        w.u64(m.size);
        w.u8(m.kernel ? 1 : 0);
    }
    w.u64(pd.ebs.size());
    for (const EbsSample &s : pd.ebs) {
        w.u64(s.ip);
        w.u64(s.cycle);
        w.u8(static_cast<uint8_t>(s.ring));
    }
    w.u64(pd.lbr.size());
    for (const LbrStackSample &s : pd.lbr) {
        w.u8(static_cast<uint8_t>(s.entries.size()));
        for (const LbrEntry &e : s.entries) {
            w.u64(e.source);
            w.u64(e.target);
        }
        w.u64(s.cycle);
        w.u8(static_cast<uint8_t>(s.ring));
        w.u64(s.eventing_ip);
    }
    return w.take();
}

/** @p pd as a version-3 profile: checksummed header, fixed-width body. */
inline std::string
encodeProfileV3(const ProfileData &pd, uint64_t *checksum_out = nullptr)
{
    std::string body = encodeFixedWidthBody(pd);
    uint64_t checksum = fnv1a(body);
    if (checksum_out)
        *checksum_out = checksum;
    ByteWriter w;
    w.u64(0x48424250'50524f46ULL); // "HBBPPROF"
    w.u32(3);
    w.u64(body.size());
    w.u64(checksum);
    return w.take() + body;
}

/** @p pd as a legacy version-2 profile: magic and version, no checksum. */
inline std::string
encodeProfileV2(const ProfileData &pd)
{
    ByteWriter w;
    w.u64(0x48424250'50524f46ULL);
    w.u32(2);
    return w.take() + encodeFixedWidthBody(pd);
}

} // namespace hbbp::testutil

#endif // HBBP_TESTS_PROFILE_V3_HH
