#!/usr/bin/env python3
"""Gate a fresh scale-bench JSON against a committed BENCH_*.json baseline.

Usage:
    check_bench.py BASELINE FRESH [--tolerance X]

Checks, failing loudly (exit 1) on the first violation:

  1. Structure: both files parse, name the same bench, and carry a
     "fold" section with a positive kernel_ns_per_fold.
  2. Perf regression: the fresh kernel_ns_per_fold must be within
     --tolerance of the baseline (default 4.0 -- CI machines differ
     wildly from the machine that recorded the baseline; the gate
     catches order-of-magnitude regressions, e.g. the kernels losing
     their optimization, not single-digit noise).
  3. Telemetry overhead: when the fresh run carries a "telemetry"
     section (scale_relay does), its overhead_pct -- the fold-path
     cost of metrics enabled vs compiled-in-but-idle -- must stay
     under --telemetry-overhead-max (default 2.0%%) plus the run's
     own measured noise floor (telemetry.noise_pct, an A/A control
     the bench computes by comparing two halves of the
     telemetry-disabled samples; on a quiet machine it is ~0 and the
     budget applies as-is). Benches without the section (and
     baselines recorded before it existed) skip the gate with a
     warning.
  4. Federation: when the fresh run carries a "federation" section
     (scale_relay does -- measured with a live MetricsFederator
     scraping a child endpoint while the telemetry overhead above is
     sampled), rollup_consistent must be true (the marker counter's
     agg="subtree" series equals own + child exactly), merges_per_s
     and scrape_ms must be positive, and merges_per_s must be within
     --tolerance of the baseline when the baseline has the section.

Benches whose JSON carries a "query" section instead of "fold"
(scale_query) take a different gate -- see check_query(): the cached
path must never re-analyze, cached_speedup must clear
--query-speedup-floor (default 2.0), and cold_qps must be within
--tolerance of the baseline.

Benches carrying a "store" section (scale_store) gate the profile
store's indexed read path -- see check_store():
mmap_bytes_identical must be true (the zero-copy and plain-read
paths saw the same bytes), indexed_speedup must clear
--store-speedup-floor (default 5.0 -- the in-memory index has to
beat enumerating the directory by far more than that at 10k
entries; the low floor only absorbs noisy-runner variance), and
deposit_per_s must be within --tolerance of the baseline.

Defaults can be overridden via HBBP_BENCH_TOLERANCE,
HBBP_BENCH_TELEMETRY_OVERHEAD_MAX, HBBP_BENCH_QUERY_SPEEDUP_FLOOR
and HBBP_BENCH_STORE_SPEEDUP_FLOOR for one-off noisy runners.
"""

import argparse
import json
import os
import sys


def fail(msg):
    print(f"check_bench: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def warn(msg):
    print(f"check_bench: warning: {msg}", file=sys.stderr)


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {path}: {e}")


def check_query(base, fresh, args):
    """Gate a scale_query run: the epoch cache must pay for itself.

    - cached_no_reanalysis must be true (the bench itself fatal()s,
      but a hand-edited or stale JSON must not pass the gate);
    - cached_speedup must clear --query-speedup-floor: serving from
      the result cache has to beat re-running the analyzer by a
      healthy margin on any machine, loud or quiet;
    - cold_qps must be within --tolerance of the baseline (the same
      wide CI-machines-differ ratio the fold gate uses): a collapse
      here means the uncached serving path itself regressed.
    batch_speedup is reported, not gated -- on loopback the connect
    cost it prices is small enough to drown in scheduler noise.
    """
    bench = fresh.get("bench", "?")
    bq = base.get("query")
    fq = fresh.get("query")
    if not isinstance(fq, dict):
        fail(f"{bench}: fresh run has no \"query\" section")
    if not isinstance(bq, dict):
        fail(f"{bench}: baseline has no \"query\" section")

    if fq.get("cached_no_reanalysis") is not True:
        fail(
            f"{bench}: cached path fell back to re-analysis "
            f"(cached_no_reanalysis="
            f"{fq.get('cached_no_reanalysis')})"
        )

    speedup = fq.get("cached_speedup", 0.0)
    if not isinstance(speedup, (int, float)) or speedup < args.query_speedup_floor:
        fail(
            f"{bench}: cached_speedup {speedup} below floor "
            f"{args.query_speedup_floor} (cold "
            f"{fq.get('cold_qps')} qps vs cached "
            f"{fq.get('cached_qps')} qps)"
        )

    base_cold = bq.get("cold_qps", 0.0)
    fresh_cold = fq.get("cold_qps", 0.0)
    if base_cold <= 0.0 or fresh_cold <= 0.0:
        fail(f"{bench}: non-positive cold_qps")
    if fresh_cold * args.tolerance < base_cold:
        fail(
            f"{bench}: cold path regressed: {fresh_cold:.1f} qps vs "
            f"baseline {base_cold:.1f} (tolerance {args.tolerance}x)"
        )
    print(
        f"check_bench: {bench}: cold {fresh_cold:.1f} qps (baseline "
        f"{base_cold:.1f}), cached {fq.get('cached_qps', 0.0):.1f} qps "
        f"({speedup:.1f}x, floor {args.query_speedup_floor}), batch "
        f"{fq.get('batch_speedup', 0.0):.2f}x over per-query connects"
    )
    print(f"check_bench: {bench}: OK")


def check_store(base, fresh, args):
    """Gate a scale_store run: the index must pay for itself.

    - mmap_bytes_identical must be true: the mmap'd and plain-read
      consumption of the same entry digested to the same bytes --
      the correctness half of the zero-copy read path;
    - indexed_speedup must clear --store-speedup-floor: membership
      from the in-memory index has to beat a directory enumeration
      decisively at bench scale, or contains() silently became a
      readdir again;
    - deposit_per_s must be within --tolerance of the baseline: a
      collapse means the flock'd deposit critical section grew
      (e.g. an accidental full index reload per deposit).
    indexed_lookup_per_s and the MB/s figures are reported, not
    gated -- absolute rates are machine property, the ratios are
    the contract.
    """
    bench = fresh.get("bench", "?")
    bs = base.get("store")
    fs_ = fresh.get("store")
    if not isinstance(fs_, dict):
        fail(f"{bench}: fresh run has no \"store\" section")
    if not isinstance(bs, dict):
        fail(f"{bench}: baseline has no \"store\" section")

    if fs_.get("mmap_bytes_identical") is not True:
        fail(
            f"{bench}: mmap and plain-read paths disagree "
            f"(mmap_bytes_identical="
            f"{fs_.get('mmap_bytes_identical')})"
        )

    speedup = fs_.get("indexed_speedup", 0.0)
    if not isinstance(speedup, (int, float)) or speedup < args.store_speedup_floor:
        fail(
            f"{bench}: indexed_speedup {speedup} below floor "
            f"{args.store_speedup_floor} (indexed "
            f"{fs_.get('indexed_lookup_per_s')}/s vs scan "
            f"{fs_.get('scan_lookup_per_s')}/s at "
            f"{fs_.get('entries')} entries)"
        )

    base_dep = bs.get("deposit_per_s", 0.0)
    fresh_dep = fs_.get("deposit_per_s", 0.0)
    if base_dep <= 0.0 or fresh_dep <= 0.0:
        fail(f"{bench}: non-positive deposit_per_s")
    if fresh_dep * args.tolerance < base_dep:
        fail(
            f"{bench}: contended deposit path regressed: "
            f"{fresh_dep:.1f}/s vs baseline {base_dep:.1f} "
            f"(tolerance {args.tolerance}x)"
        )
    print(
        f"check_bench: {bench}: indexed {speedup:.0f}x over dir scan "
        f"(floor {args.store_speedup_floor}) at {fs_.get('entries')} "
        f"entries, deposits {fresh_dep:.0f}/s (baseline "
        f"{base_dep:.0f}), mmap {fs_.get('mmap_mb_s', 0.0):.0f} MB/s "
        f"vs read {fs_.get('read_mb_s', 0.0):.0f} MB/s"
    )
    print(f"check_bench: {bench}: OK")


def fold_ns(doc, path):
    fold = doc.get("fold")
    if not isinstance(fold, dict):
        fail(f"{path} has no \"fold\" section")
    ns = fold.get("kernel_ns_per_fold")
    if not isinstance(ns, (int, float)) or ns <= 0.0:
        fail(f"{path} has no positive fold.kernel_ns_per_fold")
    return ns


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("HBBP_BENCH_TOLERANCE", "4.0")),
        help="max allowed fresh/baseline kernel_ns_per_fold ratio",
    )
    ap.add_argument(
        "--telemetry-overhead-max",
        type=float,
        default=float(
            os.environ.get("HBBP_BENCH_TELEMETRY_OVERHEAD_MAX", "2.0")
        ),
        help="max telemetry.overhead_pct when the section is present",
    )
    ap.add_argument(
        "--query-speedup-floor",
        type=float,
        default=float(
            os.environ.get("HBBP_BENCH_QUERY_SPEEDUP_FLOOR", "2.0")
        ),
        help="min cached_speedup for query-section benches",
    )
    ap.add_argument(
        "--store-speedup-floor",
        type=float,
        default=float(
            os.environ.get("HBBP_BENCH_STORE_SPEEDUP_FLOOR", "5.0")
        ),
        help="min indexed_speedup for store-section benches",
    )
    args = ap.parse_args()

    base = load(args.baseline)
    fresh = load(args.fresh)

    if base.get("bench") != fresh.get("bench"):
        fail(
            f"bench name mismatch: baseline is "
            f"{base.get('bench')!r}, fresh is {fresh.get('bench')!r}"
        )
    bench = fresh.get("bench", "?")

    # Query-path benches carry a "query" section instead of "fold":
    # the read path has no fold math to gate, it has a cache story.
    if "query" in fresh or "query" in base:
        check_query(base, fresh, args)
        return

    # Store-path benches carry a "store" section: the embedded-index
    # read path has no fold math either, it has an index story.
    if "store" in fresh or "store" in base:
        check_store(base, fresh, args)
        return

    base_ns = fold_ns(base, args.baseline)
    fresh_ns = fold_ns(fresh, args.fresh)
    if fresh_ns > base_ns * args.tolerance:
        fail(
            f"{bench}: fold kernel regressed: {fresh_ns:.1f} ns/fold vs "
            f"baseline {base_ns:.1f} (tolerance {args.tolerance}x)"
        )
    print(
        f"check_bench: {bench}: {fresh_ns:.1f} ns/fold (baseline "
        f"{base_ns:.1f}, ratio {fresh_ns / base_ns:.2f}, limit "
        f"{args.tolerance}x)"
    )

    telemetry = fresh.get("telemetry")
    if telemetry is None:
        warn(f"{bench}: no telemetry section; overhead gate skipped")
    else:
        pct = telemetry.get("overhead_pct")
        if not isinstance(pct, (int, float)):
            fail(f"{bench}: telemetry section lacks a numeric overhead_pct")
        # The bench's A/A control (disabled vs disabled) prices the
        # runner's noise: an overhead smaller than that floor is not a
        # resolvable signal, so the budget stretches by it.
        noise = telemetry.get("noise_pct")
        noise = noise if isinstance(noise, (int, float)) else 0.0
        limit = args.telemetry_overhead_max + noise
        if pct > limit:
            fail(
                f"{bench}: telemetry overhead {pct:.3f}% on the fold "
                f"path exceeds the {args.telemetry_overhead_max}% budget "
                f"+ {noise:.3f}% measured noise floor "
                f"(enabled {telemetry.get('enabled_seconds')}s vs "
                f"disabled {telemetry.get('disabled_seconds')}s)"
            )
        print(
            f"check_bench: {bench}: telemetry overhead {pct:.3f}% "
            f"(budget {args.telemetry_overhead_max}% + noise floor "
            f"{noise:.3f}%)"
        )

    federation = fresh.get("federation")
    if federation is None:
        warn(f"{bench}: no federation section; federation gate skipped")
    else:
        if federation.get("rollup_consistent") is not True:
            fail(
                f"{bench}: federated rollup arithmetic broken "
                f"(rollup_consistent="
                f"{federation.get('rollup_consistent')})"
            )
        merges = federation.get("merges_per_s", 0.0)
        scrape_ms = federation.get("scrape_ms", 0.0)
        if not isinstance(merges, (int, float)) or merges <= 0.0:
            fail(f"{bench}: non-positive federation merges_per_s")
        if not isinstance(scrape_ms, (int, float)) or scrape_ms <= 0.0:
            fail(f"{bench}: non-positive federation scrape_ms")
        base_fed = base.get("federation")
        if isinstance(base_fed, dict) and base_fed.get("merges_per_s", 0.0) > 0.0:
            base_merges = base_fed["merges_per_s"]
            if merges * args.tolerance < base_merges:
                fail(
                    f"{bench}: federated merge regressed: "
                    f"{merges:.0f} merges/s vs baseline "
                    f"{base_merges:.0f} (tolerance {args.tolerance}x)"
                )
            print(
                f"check_bench: {bench}: federation merge "
                f"{merges:.0f}/s (baseline {base_merges:.0f}), "
                f"scrape {scrape_ms:.3f} ms, rollup consistent"
            )
        else:
            warn(
                f"{bench}: baseline predates the federation section; "
                f"merge-rate comparison skipped"
            )
            print(
                f"check_bench: {bench}: federation merge {merges:.0f}/s, "
                f"scrape {scrape_ms:.3f} ms, rollup consistent"
            )

    print(f"check_bench: {bench}: OK")


if __name__ == "__main__":
    main()
