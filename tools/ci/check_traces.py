#!/usr/bin/env python3
"""Schema-validate a cpdb TRACES dump (obs::SpanStore::TracesJson).

    cpdb_bench_client --mode=traces > traces.json
    python3 tools/ci/check_traces.py traces.json \
        [--min-traces=1] [--require-kind=server.GETMOD] \
        [--require-slow-kind=server.COMMIT] \
        [--require-child=query.execute] [--trace-id=N]

Checks, in order:

1. The document parses as JSON with the TracesJson envelope:
   {"slow_threshold_us":..., "recorded":..., "slow_recorded":...,
    "traces":[...], "slow":[...]}.
2. Every trace tree is well-formed: a nonzero trace_id, a root span
   whose span_id resolves, every child's parent present in the tree,
   spans counted correctly, and no span with a kind missing or empty.
3. Stage timings are sane: dur_us >= 0 everywhere, every child's
   start_us >= the root's start_us, and every child's dur_us <= the
   root's dur_us (children nest inside the request).
4. --require-kind: at least one recorded trace's root has that kind.
5. --require-slow-kind: at least one tree in the slow ring has a root of
   that kind (e.g. a commit past --slow-query-ms is a server.COMMIT).
6. --require-child: every trace whose root kind matches --require-kind,
   and every slow tree whose root kind matches --require-slow-kind,
   contains a child span of that kind (e.g. a traced server.GETMOD
   must show its query.execute stage, a slow server.COMMIT its
   commit.seal). With neither kind given it applies to every trace.
7. --trace-id: that exact trace id is present (the handle a sampled
   client printed).
8. --min-traces: at least that many assembled traces were recorded.

Exit 0 on success; nonzero with a message on any violation. Used by the
CI socket smoke after a sampled load.
"""

import argparse
import json
import sys


def fail(msg):
    print(f"check_traces: {msg}", file=sys.stderr)
    sys.exit(1)


def walk(span, out):
    out.append(span)
    for child in span.get("children", []):
        walk(child, out)
    return out


def check_tree(tree, where):
    if not isinstance(tree, dict):
        fail(f"{where}: trace entry is not an object")
    for key in ("trace_id", "spans", "root"):
        if key not in tree:
            fail(f"{where}: missing '{key}'")
    if not isinstance(tree["trace_id"], int) or tree["trace_id"] == 0:
        fail(f"{where}: bad trace_id {tree['trace_id']!r}")
    root = tree["root"]
    spans = walk(root, [])
    if tree["spans"] != len(spans):
        fail(f"{where}: 'spans' says {tree['spans']}, tree has {len(spans)}")
    ids = set()
    for s in spans:
        for key in ("span_id", "parent_span_id", "kind", "start_us", "dur_us"):
            if key not in s:
                fail(f"{where}: span missing '{key}'")
        if not s["kind"]:
            fail(f"{where}: span {s['span_id']} has an empty kind")
        if s["span_id"] in ids:
            fail(f"{where}: duplicate span_id {s['span_id']}")
        ids.add(s["span_id"])
        if s["dur_us"] < 0:
            fail(f"{where}: span {s['span_id']} has negative dur_us")
        for counter in ("rows", "round_trips"):
            if counter in s and s[counter] < 0:
                fail(f"{where}: span {s['span_id']} negative {counter}")
    for s in spans:
        if s is root:
            continue
        # Monotonic stage timings: children start at or after the root
        # and fit inside it (floating-point micros; allow 1us slack).
        if s["start_us"] + 1.0 < root["start_us"]:
            fail(f"{where}: span {s['span_id']} ({s['kind']}) starts before "
                 "the root span")
        if s["dur_us"] > root["dur_us"] + 1.0:
            fail(f"{where}: span {s['span_id']} ({s['kind']}) outlasts the "
                 "root span")
    return root, spans


def main():
    parser = argparse.ArgumentParser(
        description="Schema-validate a cpdb TRACES dump")
    parser.add_argument("path", help="traces JSON file ('-' = stdin)")
    parser.add_argument("--min-traces", type=int, default=1)
    parser.add_argument("--require-kind", action="append", default=[],
                        help="root span kind that must appear (repeatable)")
    parser.add_argument("--require-slow-kind", action="append", default=[],
                        help="root kind that must appear in the slow ring "
                             "(repeatable)")
    parser.add_argument("--require-child", action="append", default=[],
                        help="child kind every matching trace must contain")
    parser.add_argument("--trace-id", type=int, default=0,
                        help="exact trace id that must be present")
    args = parser.parse_args()

    text = (sys.stdin.read() if args.path == "-"
            else open(args.path).read())
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        fail(f"not valid JSON: {e}")

    for key in ("slow_threshold_us", "recorded", "slow_recorded", "traces",
                "slow"):
        if key not in doc:
            fail(f"missing top-level '{key}'")
    if not isinstance(doc["traces"], list) or not isinstance(doc["slow"], list):
        fail("'traces' and 'slow' must be arrays")

    roots = []
    for i, tree in enumerate(doc["traces"]):
        root, _ = check_tree(tree, f"traces[{i}]")
        roots.append((tree, root))
    slow_roots = []
    for i, tree in enumerate(doc["slow"]):
        root, _ = check_tree(tree, f"slow[{i}]")
        slow_roots.append((tree, root))

    if len(doc["traces"]) < args.min_traces:
        fail(f"only {len(doc['traces'])} trace(s) recorded, "
             f"need {args.min_traces}")
    for kind in args.require_kind:
        if not any(root["kind"] == kind for _, root in roots):
            fail(f"no trace with root kind '{kind}'")
    for kind in args.require_slow_kind:
        if not any(root["kind"] == kind for _, root in slow_roots):
            fail(f"no slow tree with root kind '{kind}'")
    for child_kind in args.require_child:
        if args.require_kind or args.require_slow_kind:
            scope = [(t, r) for t, r in roots
                     if r["kind"] in args.require_kind]
        else:
            scope = list(roots)
        scope += [(t, r) for t, r in slow_roots
                  if r["kind"] in args.require_slow_kind]
        for tree, root in scope:
            kinds = {s["kind"] for s in walk(root, [])}
            if child_kind not in kinds:
                fail(f"trace {tree['trace_id']} (root {root['kind']}) has no "
                     f"'{child_kind}' child span")
    if args.trace_id and not any(t["trace_id"] == args.trace_id
                                 for t, _ in roots):
        fail(f"trace id {args.trace_id} not found")

    print(f"check_traces: OK ({len(doc['traces'])} trace(s), "
          f"{len(doc['slow'])} slow)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
