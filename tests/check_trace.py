#!/usr/bin/env python3
"""Assert a complete shard-lifecycle trace in an --event-log JSONL file.

Usage: check_trace.py <events.jsonl> <host> [--serve] [--query-trace ID]

Spans are event records whose `code` is the span name and whose
`fields.trace` is the trace id; records without a trace id are plain
events and are skipped. Finds the trace id stamped by
`push --host <host>` and checks that its span records reconstruct the
full collector -> relay -> root chain (push_start, push_acked,
relay_accept, relay_flush, root_fold) with monotonic microsecond
wall-clock timestamps along the lifecycle. Used by
cli_relay_smoke.cmake and, on hand-made bad chains,
check_trace_rejects.cmake.

With --serve the chain is the query-serving root's shorter
push_start/push_acked/root_fold lifecycle (no relay hops), and
--query-trace ID additionally joins one served query onto it: trace ID
must hold a query_serve span emitted by the root node that follows the
shard's root_fold in wall-clock time — the query demonstrably observed
the folded shard. Used by cli_serve_smoke.cmake.
"""

import argparse
import json
import sys


def load_traces(path):
    """trace id -> span name (record code) -> list of records."""
    traces = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                sys.exit(f"{path}:{lineno}: invalid JSON: {e}")
            for key in ("ts_us", "node", "code", "fields"):
                if key not in rec:
                    sys.exit(f"{path}:{lineno}: missing key '{key}'")
            trace = rec["fields"].get("trace")
            if trace is None:
                continue
            traces.setdefault(trace, {}).setdefault(
                rec["code"], []).append(rec)
    return traces


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("trace_file")
    ap.add_argument("host")
    ap.add_argument("--serve", action="store_true",
                    help="expect a query-serving root's relay-less chain")
    ap.add_argument("--query-trace", default=None,
                    help="join this query trace onto the shard chain")
    args = ap.parse_args()
    path, host = args.trace_file, args.host

    traces = load_traces(path)

    target = None
    for trace, by_span in traces.items():
        if any(r["node"] == "collector:" + host
               for r in by_span.get("push_start", [])):
            target = trace
            break
    if target is None:
        sys.exit(f"no push_start from collector:{host} in {path} "
                 f"(traces: {sorted(traces)})")

    by_span = traces[target]
    if args.serve:
        required = ["push_start", "push_acked", "root_fold"]
        order = ["push_start", "root_fold"]
    else:
        required = ["push_start", "push_acked", "relay_accept",
                    "relay_flush", "root_fold"]
        order = ["push_start", "relay_accept", "relay_flush",
                 "root_fold"]
    for span in required:
        if span not in by_span:
            sys.exit(f"trace {target}: missing span '{span}' "
                     f"(have {sorted(by_span)})")

    # The lifecycle must move forward in wall-clock time. push_acked is
    # checked separately: it lands after relay_accept but its ordering
    # against the relay's later spans is not part of the lifecycle.
    ts = [min(r["ts_us"] for r in by_span[s]) for s in order]
    for (sa, a), (sb, b) in zip(zip(order, ts), zip(order[1:], ts[1:])):
        if b < a:
            sys.exit(f"trace {target}: {sb} (ts_us={b}) precedes "
                     f"{sa} (ts_us={a})")
    if min(r["ts_us"] for r in by_span["push_acked"]) < ts[0]:
        sys.exit(f"trace {target}: push_acked precedes push_start")

    joined = ""
    if args.query_trace:
        q_by_span = traces.get(args.query_trace)
        if q_by_span is None:
            sys.exit(f"query trace {args.query_trace} absent from "
                     f"{path} (traces: {sorted(traces)})")
        if "query_serve" not in q_by_span:
            sys.exit(f"query trace {args.query_trace}: no query_serve "
                     f"span (have {sorted(q_by_span)})")
        q_recs = q_by_span["query_serve"]
        if not any(r["node"] == "root" for r in q_recs):
            sys.exit(f"query trace {args.query_trace}: query_serve not "
                     f"emitted by the root node")
        fold_ts = min(r["ts_us"] for r in by_span["root_fold"])
        q_ts = min(r["ts_us"] for r in q_recs)
        if q_ts < fold_ts:
            sys.exit(f"query trace {args.query_trace}: query_serve "
                     f"(ts_us={q_ts}) precedes the shard's root_fold "
                     f"(ts_us={fold_ts}) — the query cannot have "
                     f"observed the fold")
        joined = (f"; query {args.query_trace} joined "
                  f"{q_ts - fold_ts}us after root_fold")

    total = sum(len(recs) for recs in by_span.values())
    print(f"trace OK: {target}: {' -> '.join(order)} monotonic "
          f"({total} span records){joined}")


if __name__ == "__main__":
    main()
