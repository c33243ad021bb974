#!/usr/bin/env python3
"""Equal-seed A/B of the repo benchmark: a parent revision against this tree.

Checks the parent revision out (``git archive``, so nothing is registered in
``.git``) under ``target/ab/<sha>/``, builds its ``benchmark/`` there with
its own target directory, builds this tree's ``benchmark/``, and runs the two
binaries as back-to-back pairs: one pair per benchmark seed, both sides on
the same seed, the side that runs first flipped from pair to pair (the box
drifts by 10-30 % over minutes, so only neighbours compare).

Per workload and end-to-end metric it prints q1 / median / q3 of each side,
the per-pair change / parent ratios, how many pairs the change won (ties
count for neither side), the median difference beside the parent's own
quartile distance, and every pair.  It also compares the ``digest`` line of
the two sides seed by seed and exits 1 if any differ, or if a run fails a
benchmark gate.

The digest hashes the engine's own counters (``EnginePerf``) next to the
simulated results, so a change that only does less bookkeeping moves it.
``--counts`` is the check for such a change.  Before the pairs it runs the
parent twice and the change once with ``--trace 1`` at seeds 1 and 101.  A
per-layer metric is *exact* if it is not a wall-clock one by its unit and the
two parent runs agree on it to the last bit: deliveries, delay, goodput,
events, drops, control packets, callbacks, explorer states.  Every exact
metric must read the same on the change; one that differs is printed with
both values at full precision (``repr``) and the relative change.  The
engine's and the allocator's own counters (``netsim.grid.*``,
``netsim.queue.*``, ``netsim.mobility.*``, ``netsim.payload.*``, ``alloc.*``)
and the size of the telemetry encoding (``telemetry.ndjson_bytes_per_event``,
which a deliberate NDJSON format change moves) are the exception: a
difference there is printed and is what may explain a moved digest.  The exit status is then 1 if a result differs, if a metric
exists on one side only, or if a workload's digest moved although none of
its bookkeeping metrics did.

``--outputs`` is the check that a change moves no simulated bit.  It builds
the root package's ``reproduce`` binary and the ``route_discovery_trace`` and
``ablations`` examples on both sides, runs ``reproduce figures --seeds 10``,
``reproduce attacks --seeds 10`` and the two examples, and compares each
stdout byte for byte.  A difference prints the first differing line of both
sides, and the exit status is then 1.  With ``--outputs`` the timing pairs
run only when ``--pairs`` or ``--seeds`` asks for them.

Usage: python3 tools/ab.py <parent-rev> [--workload W] [--pairs 10]
                           [--seeds 1,101,2,3] [--counts] [--outputs]

Without ``--workload`` every workload of BENCHMARK.json is measured in turn.
Seeds default to 1, 101 (the held-out seed), 2, 3, ... up to ``--pairs``;
``--pairs 0`` skips the timing pairs.  A traced pair, for the other per-layer
metrics, is one more run of each binary: ``<binary> --workload W --seed S
--seconds 10 --trace 1``; the two binaries are printed at the start.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(cmd: list[str], **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, check=True, text=True, **kwargs)


def repo_root() -> Path:
    out = run(["git", "rev-parse", "--show-toplevel"], capture_output=True)
    return Path(out.stdout.strip())


def build(checkout: Path) -> Path:
    """Build `checkout`'s benchmark package; return its binary."""
    manifest = checkout / "benchmark" / "Cargo.toml"
    run(["cargo", "build", "--release", "--quiet", "--manifest-path", str(manifest)])
    return checkout / "benchmark" / "target" / "release" / "benchmark"


def parent_checkout(root: Path, rev: str) -> tuple[str, Path]:
    """Export `rev` under target/ab/<sha>/ (once); return (sha, directory)."""
    sha = run(
        ["git", "rev-parse", "--short=12", f"{rev}^{{commit}}"],
        cwd=root,
        capture_output=True,
    ).stdout.strip()
    checkout = root / "target" / "ab" / sha
    if not (checkout / "benchmark" / "Cargo.toml").exists():
        checkout.mkdir(parents=True, exist_ok=True)
        archive = subprocess.Popen(
            ["git", "archive", sha], cwd=root, stdout=subprocess.PIPE
        )
        run(["tar", "-x", "-C", str(checkout)], stdin=archive.stdout)
        if archive.wait() != 0:
            sys.exit(f"git archive {sha} failed")
    return sha, checkout


COUNT_SEEDS = (1, 101)

# The outputs `--outputs` compares: (label, program, arguments).
OUTPUT_RUNS = (
    ("reproduce figures --seeds 10", "reproduce", ["figures", "--seeds", "10"]),
    ("reproduce attacks --seeds 10", "reproduce", ["attacks", "--seeds", "10"]),
    ("example route_discovery_trace", "route_discovery_trace", []),
    ("example ablations", "ablations", []),
)


def build_outputs(checkout: Path) -> dict[str, Path]:
    """Build `checkout`'s `reproduce` and the two examples; return them by name."""
    manifest = checkout / "Cargo.toml"
    run(
        [
            "cargo", "build", "--release", "--quiet", "--manifest-path", str(manifest),
            "--bin", "reproduce",
            "--example", "route_discovery_trace",
            "--example", "ablations",
        ]
    )
    release = checkout / "target" / "release"
    return {
        "reproduce": release / "reproduce",
        "route_discovery_trace": release / "examples" / "route_discovery_trace",
        "ablations": release / "examples" / "ablations",
    }


def compare_outputs(parent: dict[str, Path], change: dict[str, Path]) -> bool:
    """Run every OUTPUT_RUNS entry on both sides; True if all stdouts are equal."""
    same = True
    for label, program, argv in OUTPUT_RUNS:
        old, new = (
            run([str(side[program]), *argv], capture_output=True).stdout
            for side in (parent, change)
        )
        if old == new:
            print(f"outputs: {label}: equal ({len(old.splitlines())} lines)")
            continue
        same = False
        old_lines, new_lines = old.splitlines(), new.splitlines()
        line = next(
            (i for i, (a, b) in enumerate(zip(old_lines, new_lines)) if a != b),
            min(len(old_lines), len(new_lines)),
        )
        print(f"outputs: {label}: DIFFERS at line {line + 1}")
        for side, lines in (("parent", old_lines), ("change", new_lines)):
            text = lines[line] if line < len(lines) else "<end of output>"
            print(f"  {side}: {text}")
    return same


def measure(binary: Path, workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    """One run; the parsed result line plus the digest line."""
    done = subprocess.run(
        [
            str(binary),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        capture_output=True,
        text=True,
    )
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(
            f"{binary} failed on {workload} seed {seed} (exit {done.returncode}):\n"
            f"{done.stdout}{done.stderr}"
        )
    result = json.loads(lines[-1])
    digests = [ln.split()[1] for ln in lines if ln.startswith("digest ")]
    result["digest"] = digests[0] if digests else None
    return result


# Units in which the benchmark reports nothing but wall-clock measurements.
WALL_UNITS = {"s", "ns", "us", "1/s"}
# Counters the engine and the allocator keep about their own work, and the
# encoded size of the telemetry stream, which is a format, not a result.
BOOKKEEPING = (
    "netsim.grid.",
    "netsim.queue.",
    "netsim.mobility.",
    "netsim.payload.",
    "alloc.",
    "telemetry.ndjson_bytes_per_event",
)


def compare_counts(binaries: dict[str, Path], workload: str, seconds: int) -> tuple[bool, bool]:
    """Traced runs at COUNT_SEEDS: (results equal, bookkeeping moved)."""
    clean, moved = True, False
    for seed in COUNT_SEEDS:
        parent, again, change = (
            measure(binaries[side], workload, seed, seconds, trace=1)
            for side in ("parent", "parent", "change")
        )
        if not (parent["correct"] and again["correct"] and change["correct"]):
            sys.exit(f"a traced run failed a benchmark gate on {workload} seed {seed}")
        old, new = parent["metrics"], change["metrics"]
        one_sided = sorted(set(old) ^ set(new))
        exact = [
            n
            for n, m in old.items()
            if n in new and m["unit"] not in WALL_UNITS and m == again["metrics"][n]
        ]
        differing = [n for n in exact if old[n]["value"] != new[n]["value"]]
        for n in one_sided:
            print(f"counts: {workload} s{seed} {n}: only in the {'parent' if n in old else 'change'}")
        for n in differing:
            note = " (bookkeeping)" if n.startswith(BOOKKEEPING) else ""
            a, b = old[n]["value"], new[n]["value"]
            rel = f"rel {(b - a) / abs(a):+.3g}" if a else "from 0"
            print(f"counts: {workload} s{seed} {n}: {a!r} -> {b!r} ({rel}){note}")
        results = [n for n in differing if not n.startswith(BOOKKEEPING)]
        explained = len(differing) > len(results)
        digest = "equal" if parent["digest"] == change["digest"] else "moved"
        if digest == "moved" and not explained:
            digest = "MOVED with no bookkeeping metric to explain it"
            clean = False
        print(
            f"counts: {workload} s{seed}: {len(exact)} exact metrics, "
            f"{len(results)} results differ, digest {digest}"
        )
        clean &= not results and not one_sided
        moved |= explained
    return clean, moved


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def report(workload: str, metrics: list[dict], seeds: list[int], rows: list[tuple]) -> bool:
    """Print one workload's table; False if a digest differed."""
    print(f"\n== {workload}: {len(rows)} pairs, seeds {' '.join(map(str, seeds))}")
    same = sum(p["digest"] == c["digest"] for p, c in rows)
    print(f"digest: equal on {same}/{len(rows)} seeds")
    failed = [
        f"{side} {sum(r[i]['failed'] for r in rows)}/{sum(r[i]['attempted'] for r in rows)}"
        for i, side in enumerate(("parent", "change"))
    ]
    print(f"failed: {', '.join(failed)}")
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [p["metrics"][name]["value"] for p, _ in rows]
        change = [c["metrics"][name]["value"] for _, c in rows]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        ratios = [c / p for p, c in zip(parent, change) if p]
        pq, cq = quartiles(parent), quartiles(change)
        print(
            f"{name} [{metric['unit']}]: "
            f"parent {pq[0]:.4g} / {pq[1]:.4g} / {pq[2]:.4g}   "
            f"change {cq[0]:.4g} / {cq[1]:.4g} / {cq[2]:.4g}   "
            f"change/parent {statistics.median(ratios):.3f} "
            f"({min(ratios):.3f} ... {max(ratios):.3f})   "
            f"wins {wins}/{len(rows)}   "
            f"medians differ by {cq[1] - pq[1]:+.4g}, parent q3-q1 {pq[2] - pq[0]:.4g}"
        )
        print(
            "  pairs: "
            + " · ".join(
                f"s{s} {p:.4g}→{c:.4g}" for s, p, c in zip(seeds, parent, change)
            )
        )
    return same == len(rows)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_rev", help="revision to compare this tree against")
    ap.add_argument("--workload", help="one workload (default: all of BENCHMARK.json)")
    ap.add_argument(
        "--pairs", type=int, help="pairs per workload (default 10, 0 with --outputs)"
    )
    ap.add_argument("--seeds", help="comma-separated benchmark seeds, one pair each")
    ap.add_argument(
        "--counts",
        action="store_true",
        help="compare the exact metrics of traced runs at seeds 1 and 101 first",
    )
    ap.add_argument(
        "--outputs",
        action="store_true",
        help="compare the stdout of reproduce figures/attacks and two examples first",
    )
    args = ap.parse_args()
    if args.pairs is None:
        args.pairs = 0 if args.outputs and not args.seeds else 10

    root = repo_root()
    manifest = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in manifest["workloads"]]
    if args.workload and args.workload not in names:
        sys.exit(f"unknown workload {args.workload!r}; one of {', '.join(names)}")
    workloads = [args.workload] if args.workload else names
    if args.seeds:
        seeds = [int(s) for s in args.seeds.split(",")]
    else:
        seeds = ([1, 101] + list(range(2, args.pairs)))[: args.pairs]
    if seeds and min(seeds) < 1:
        sys.exit("seeds start at 1")
    if not seeds and not args.counts and not args.outputs:
        sys.exit("nothing to do: no pairs, no --counts and no --outputs")

    sha, checkout = parent_checkout(root, args.parent_rev)
    ok = True
    if args.outputs:
        ok = compare_outputs(build_outputs(checkout), build_outputs(root))
        print(f"outputs: {'equal' if ok else 'DIFFERENCES, see above'}")
        if not seeds and not args.counts:
            return 0 if ok else 1
    parent_bin, change_bin = build(checkout), build(root)
    print(f"parent {sha}: {parent_bin}\nchange (this tree): {change_bin}")

    binaries = {"parent": parent_bin, "change": change_bin}
    for workload in workloads:
        explained = False
        if args.counts:
            clean, explained = compare_counts(binaries, workload, manifest["run_seconds"])
            ok &= clean
        if not seeds:
            continue
        rows = []
        for i, seed in enumerate(seeds):
            pair = {}
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                pair[side] = measure(binaries[side], workload, seed, manifest["run_seconds"])
                if not pair[side]["correct"]:
                    sys.exit(f"{side} failed a benchmark gate on {workload} seed {seed}")
            rows.append((pair["parent"], pair["change"]))
            print(f"  {workload} s{seed} done ({order[0]} first)", file=sys.stderr)
        # A digest the bookkeeping counters of this workload moved is no finding.
        ok &= report(workload, manifest["end_to_end"], seeds, rows) or explained
    if args.counts:
        print(f"\ncounts: {'clean' if ok else 'DIFFERENCES, see above'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
