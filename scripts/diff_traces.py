#!/usr/bin/env python
"""Diff two run traces on their logical event sequences and wire bytes.

The observability contract says serial and parallel executions of the
same run emit identical *logical* event sequences — type, superstep and
``data`` payload (which for ``barrier_exchange`` includes the
local/remote message *and byte* split) — differing only in ``wall``
facts (durations, paths, executor names).  ``tests/test_cli.py`` records
one algorithm under both executors with ``repro run --trace-out`` and
feeds the files here; exit 1 means the executors disagreed about what
logically happened.

On top of the logical diff, the ``barrier_exchange`` wall facts carry
the data plane's wire accounting: ``exchange_bytes`` (the routed-batch
format size of the entries shipped, post sender-side combining) and
``exchange_raw_bytes`` (what an uncombined wire would have carried).
Both totals are printed per trace, and when *both* traces moved real
wire traffic (e.g. two parallel runs, one with sender-side combining
and one without), their raw totals must agree — raw bytes are a
count-preserving invariant of the run, not of combining.  A serial trace has no wire, so its
zero raw total is reported but never compared.

``worker_span`` records (schema v5) are excluded from the logical diff —
their *count* is a property of the executor shape (one span per worker
per superstep), so serial vs parallel traces legitimately differ there.
They get their own check instead: when both traces were produced by the
same executor shape (identical worker-id sets), the per-superstep
sequence of logical span facts — worker id, superstep, phase list —
must match exactly; two runs at the same process count may not disagree
about which workers ran which supersteps.  Wall
durations are never compared.  When the shapes differ (serial vs
parallel, different process counts) the check prints a note and is
skipped.

Usage: ``python scripts/diff_traces.py A.trace B.trace``
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.exporters import logical_sequence, read_trace  # noqa: E402


def wire_totals(records) -> dict[str, int]:
    """Summed ``barrier_exchange`` byte fields of one trace.

    ``local``/``remote`` come from the logical ``data`` payload (modeled,
    executor-independent); ``shipped``/``raw`` from ``wall`` (real wire
    facts — zero for serial runs, which have no wire).
    """
    totals = {"local": 0, "remote": 0, "shipped": 0, "raw": 0}
    for record in records:
        if record["type"] != "barrier_exchange":
            continue
        totals["local"] += record["data"]["local_bytes"]
        totals["remote"] += record["data"]["remote_bytes"]
        totals["shipped"] += record["wall"].get("exchange_bytes", 0)
        totals["raw"] += record["wall"].get("exchange_raw_bytes", 0)
    return totals


def span_facts(records) -> list[tuple[int, int, tuple[str, ...]]]:
    """The logical facts of every ``worker_span`` record, in emission
    order: (superstep, worker id, phase tuple).  Wall durations excluded."""
    return [
        (r["superstep"], r["data"]["worker"], tuple(r["data"]["phases"]))
        for r in records
        if r["type"] == "worker_span"
    ]


def diff_spans(left, right, left_path: str, right_path: str) -> bool:
    """Compare worker_span logical facts; returns True on failure.

    Only comparable when both traces come from the same executor shape
    (identical worker-id sets) — two runs at equal process counts must
    agree; serial vs parallel is skipped with a note.
    """
    left_workers = {w for _, w, _ in left}
    right_workers = {w for _, w, _ in right}
    if not left or not right:
        print("  worker spans: absent from at least one trace "
              "(pre-v5 or span-free run) — span check skipped")
        return False
    if left_workers != right_workers:
        print(f"  worker spans: different executor shapes "
              f"({sorted(left_workers)} vs {sorted(right_workers)}) — "
              f"span check skipped (serial vs parallel is expected to differ)")
        return False
    if left == right:
        print(f"  worker spans logically identical "
              f"({len(left)} spans, {len(left_workers)} worker(s))")
        return False
    print(f"  worker spans disagree: {left_path} has {len(left)}, "
          f"{right_path} has {len(right)}")
    for i, (a, b) in enumerate(zip(left, right)):
        if a != b:
            print(f"    first divergence at span {i}:")
            print(f"      {left_path}: superstep={a[0]} worker={a[1]} "
                  f"phases={a[2]}")
            print(f"      {right_path}: superstep={b[0]} worker={b[1]} "
                  f"phases={b[2]}")
            break
    else:
        longer, path = (
            (left, left_path) if len(left) > len(right) else (right, right_path)
        )
        extra = longer[min(len(left), len(right))]
        print(f"    {path} continues with: superstep={extra[0]} "
              f"worker={extra[1]}")
    return True


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[-1])
        return 2
    left_path, right_path = argv[1], argv[2]
    left_records = read_trace(left_path)
    right_records = read_trace(right_path)
    left = logical_sequence(left_records)
    right = logical_sequence(right_records)

    failed = False
    if left == right:
        print(f"traces logically identical ({len(left)} events)")
    else:
        failed = True
        print(f"traces differ: {left_path} has {len(left)} logical events, "
              f"{right_path} has {len(right)}")
        for i, (a, b) in enumerate(zip(left, right)):
            if a != b:
                print(f"  first divergence at event {i}:")
                print(f"    {left_path}: {a}")
                print(f"    {right_path}: {b}")
                break
        else:
            longer, path = (left, left_path) if len(left) > len(right) else (right, right_path)
            print(f"  {path} continues with: {longer[min(len(left), len(right))]}")

    left_wire = wire_totals(left_records)
    right_wire = wire_totals(right_records)
    for path, wire in ((left_path, left_wire), (right_path, right_wire)):
        print(
            f"  {path}: barrier bytes local {wire['local']} / "
            f"remote {wire['remote']} (modeled), wire shipped "
            f"{wire['shipped']} / raw {wire['raw']}"
        )
    if diff_spans(
        span_facts(left_records), span_facts(right_records),
        left_path, right_path,
    ):
        failed = True
    if left_wire["raw"] and right_wire["raw"] and left_wire["raw"] != right_wire["raw"]:
        failed = True
        print(
            f"  raw wire bytes disagree: {left_path} carried "
            f"{left_wire['raw']}, {right_path} carried {right_wire['raw']} — "
            f"the uncombined-equivalent byte count must be invariant across "
            f"topologies and combining"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
