#!/usr/bin/env python3
"""Summarise (or schema-check) a telemetry NDJSON stream.

``reproduce trace FILE`` writes one JSON object per line; this script
renders the stream as a human-readable digest — event counts per type, drops
by reason, per-connection conservation (originated vs delivered vs terminal
drops), flow completions, the sampler's goodput time-series and, when
``--packet`` tagged a packet, its hop-by-hop provenance path.

``--check`` validates instead of summarising: every line must parse as JSON,
carry a known ``ev`` discriminator with exactly the fields of
docs/OBSERVABILITY.md's schema table, and timestamps must never decrease
along the stream.  Exit status 0 means the stream is well-formed (CI runs
this against the smoke artifact).

The schema is NDJSON v2.  v1 streams, written before the sharded engine
was removed, also carry ``shard`` on every line and ``xshard`` on window
lines, both always 0; those keys (``LEGACY_FIELDS``) are ignored, so old
streams still check and summarise.

Usage: python3 tools/trace_summary.py [--check] [FILE.ndjson]
       (no file: read stdin)
"""

import json
import signal
import sys
from collections import Counter

# ev -> (required fields, optional fields).  Mirrors the Rust encoder in
# crates/telemetry/src/event.rs; tests/vocab_sync.rs fails when they differ.
SCHEMA = {
    "originate": ({"t", "node", "conn", "seq", "data", "bytes"}, set()),
    "frame_enqueue": ({"t", "node", "kind", "bytes", "queue"}, set()),
    "tx_start": ({"t", "node", "kind", "bytes"}, set()),
    "collision": ({"t", "node", "from"}, set()),
    "deliver": ({"t", "node", "from", "kind"}, {"conn", "seq"}),
    "drop": ({"t", "node", "reason", "kind"}, {"conn"}),
    "forged_rrep": ({"t", "node", "from"}, set()),
    "suspicion": ({"t", "node", "suspect", "score", "table"}, set()),
    "timer": ({"t", "node", "class", "scope"}, set()),
    "flow_complete": ({"t", "node", "conn", "bytes"}, set()),
    "provenance": ({"t", "stage", "node", "conn", "seq", "kind"}, set()),
    "window": (
        {"t", "window", "goodput", "queue_peak", "cal_resizes",
         "suspicion_peak", "fluid_demand", "fluid_alloc"},
        set(),
    ),
}

# Keys of v1 streams that v2 dropped; accepted anywhere and ignored.
LEGACY_FIELDS = {"shard", "xshard"}

DROP_REASONS = {
    "queue_overflow", "retry_limit", "jammed", "adversary",
    "no_route", "discovery_failed", "salvage_failed", "schedule_drop",
}

# Non-terminal losses are retried/salvaged and so excluded from the
# conservation ledger (DropKind::is_terminal in the Rust crate).
NON_TERMINAL = {"retry_limit", "jammed"}

FRAME_KINDS = {"RREQ", "RREP", "RERR", "CHECK", "CHECK_ERR", "DATA"}
STAGES = {"originate", "enqueue", "tx_start", "relay", "deliver", "drop",
          "tunnel"}
TIMER_CLASSES = {"routing", "routing_aux", "transport", "application"}


def check_line(i: int, ev: dict) -> str | None:
    """Return a complaint for line ``i`` (1-based), or None if well-formed."""
    name = ev.get("ev")
    if name not in SCHEMA:
        return f"line {i}: unknown event type {name!r}"
    required, optional = SCHEMA[name]
    fields = set(ev) - {"ev"} - LEGACY_FIELDS
    if missing := required - fields:
        return f"line {i}: {name} missing fields {sorted(missing)}"
    if extra := fields - required - optional:
        return f"line {i}: {name} has unknown fields {sorted(extra)}"
    if not isinstance(ev["t"], (int, float)):
        return f"line {i}: {name} t is not a number"
    if "kind" in ev and ev["kind"] not in FRAME_KINDS:
        return f"line {i}: unknown frame kind {ev['kind']!r}"
    if name == "drop" and ev["reason"] not in DROP_REASONS:
        return f"line {i}: unknown drop reason {ev['reason']!r}"
    if name == "provenance" and ev["stage"] not in STAGES:
        return f"line {i}: unknown provenance stage {ev['stage']!r}"
    if name == "timer" and ev["class"] not in TIMER_CLASSES:
        return f"line {i}: unknown timer class {ev['class']!r}"
    return None


def load(stream) -> tuple[list[dict], list[str]]:
    events, errors = [], []
    last_t = float("-inf")
    for i, line in enumerate(stream, 1):
        line = line.strip()
        if not line:
            continue
        try:
            ev = json.loads(line)
        except json.JSONDecodeError as e:
            errors.append(f"line {i}: not JSON ({e})")
            continue
        if complaint := check_line(i, ev):
            errors.append(complaint)
            continue
        t = ev["t"]
        if t < last_t:
            errors.append(f"line {i}: t went backwards ({t} < {last_t})")
        last_t = t
        events.append(ev)
    return events, errors


def summarise(events: list[dict]) -> str:
    lines = []
    counts = Counter(ev["ev"] for ev in events)
    span = (events[0]["t"], events[-1]["t"]) if events else (0.0, 0.0)
    lines.append(f"{len(events)} events, t in [{span[0]:.3f}, {span[1]:.3f}] s")
    lines.append("")
    lines.append("event counts:")
    for name in SCHEMA:
        if counts[name]:
            lines.append(f"  {name:<14} {counts[name]:>8}")

    drops = Counter(ev["reason"] for ev in events if ev["ev"] == "drop")
    if drops:
        lines.append("")
        lines.append("drops by reason:")
        for reason, n in drops.most_common():
            tag = "" if reason in NON_TERMINAL else "  (terminal)"
            lines.append(f"  {reason:<17} {n:>8}{tag}")

    # Conservation ledger: payload-carrying originations only ("data": true);
    # deliveries/drops of pure ACKs carry no conn/seq and stay out.
    orig: Counter = Counter()
    delivered: Counter = Counter()
    term_drops: Counter = Counter()
    for ev in events:
        if ev["ev"] == "originate" and ev["data"]:
            orig[ev["conn"]] += 1
        elif ev["ev"] == "deliver" and "seq" in ev:
            delivered[ev["conn"]] += 1
        elif (ev["ev"] == "drop" and ev.get("conn") is not None
              and ev["reason"] not in NON_TERMINAL):
            term_drops[ev["conn"]] += 1
    if orig:
        lines.append("")
        lines.append("per-connection conservation "
                     "(originated = delivered + terminal drops + in flight):")
        for conn in sorted(orig):
            o, d, x = orig[conn], delivered[conn], term_drops[conn]
            residual = o - d - x
            flag = "" if residual >= 0 else "  <-- VIOLATION"
            lines.append(
                f"  conn {conn}: {o} originated = {d} delivered "
                f"+ {x} dropped + {residual} in flight{flag}"
            )

    completions = [ev for ev in events if ev["ev"] == "flow_complete"]
    for ev in completions:
        lines.append(
            f"  conn {ev['conn']} completed at t={ev['t']:.3f} s "
            f"({ev['bytes']} bytes acked)"
        )

    windows = [ev for ev in events if ev["ev"] == "window"]
    if windows:
        lines.append("")
        lines.append("sampler windows:")
        has_fluid = any(ev["fluid_demand"] or ev["fluid_alloc"] for ev in windows)
        header = (f"  {'window':>6}  {'goodput B':>10}  {'queue peak':>10}"
                  f"  {'suspicion':>9}  {'resizes':>7}")
        if has_fluid:
            header += f"  {'fluid dem':>10}  {'fluid alloc':>11}"
        lines.append(header)
        for ev in windows:
            row = (
                f"  {ev['window']:>6}  {sum(ev['goodput'].values()):>10}"
                f"  {ev['queue_peak']:>10}  {ev['suspicion_peak']:>9}"
                f"  {ev['cal_resizes']:>7}"
            )
            if has_fluid:
                row += (f"  {sum(ev['fluid_demand'].values()):>10}"
                        f"  {sum(ev['fluid_alloc'].values()):>11}")
            lines.append(row)

    trail = [ev for ev in events if ev["ev"] == "provenance"]
    if trail:
        conn, seq = trail[0]["conn"], trail[0]["seq"]
        lines.append("")
        lines.append(f"provenance of packet {conn}:{seq} ({len(trail)} stages):")
        for ev in trail:
            lines.append(
                f"  t={ev['t']:.6f}  {ev['stage']:<12} node {ev['node']}"
            )

    security = [ev for ev in events if ev["ev"] in ("forged_rrep", "suspicion")]
    if security:
        forged = sum(1 for ev in security if ev["ev"] == "forged_rrep")
        peaks: dict[int, float] = {}
        for ev in security:
            if ev["ev"] == "suspicion":
                peaks[ev["suspect"]] = max(peaks.get(ev["suspect"], 0.0),
                                           ev["score"])
        lines.append("")
        lines.append(f"security: {forged} forged RREPs rejected, "
                     f"{len(peaks)} suspects scored")
        for suspect, score in sorted(peaks.items(), key=lambda kv: -kv[1])[:10]:
            lines.append(f"  node {suspect}: peak suspicion {score:.3f}")

    return "\n".join(lines)


def main() -> int:
    argv = sys.argv[1:]
    check = "--check" in argv
    argv = [a for a in argv if a != "--check"]
    if len(argv) > 1:
        print(__doc__.strip().splitlines()[-2].strip(), file=sys.stderr)
        return 2
    if argv:
        with open(argv[0], encoding="utf-8") as f:
            events, errors = load(f)
    else:
        events, errors = load(sys.stdin)
    if errors:
        for e in errors[:20]:
            print(f"trace_summary: {e}", file=sys.stderr)
        if len(errors) > 20:
            print(f"trace_summary: ... {len(errors) - 20} more", file=sys.stderr)
        return 1
    if check:
        print(f"trace_summary: {len(events)} events OK")
        return 0
    print(summarise(events))
    return 0


if __name__ == "__main__":
    # Die quietly when the reader goes away (`trace_summary.py f | head`).
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())
