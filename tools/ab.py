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

Usage: python3 tools/ab.py <parent-rev> [--workload W] [--pairs 10]
                           [--seeds 1,101,2,3]

Without ``--workload`` every workload of BENCHMARK.json is measured in turn.
Seeds default to 1, 101 (the held-out seed), 2, 3, ... up to ``--pairs``.
A traced pair, for the per-layer metrics, is one more run of each binary:
``<binary> --workload W --seed S --seconds 10 --trace 1``; the two binaries
are printed at the start.
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


def measure(binary: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced run; the parsed result line plus the digest line."""
    done = subprocess.run(
        [
            str(binary),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
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
    ap.add_argument("--pairs", type=int, default=10, help="pairs per workload")
    ap.add_argument("--seeds", help="comma-separated benchmark seeds, one pair each")
    args = ap.parse_args()

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
    if not seeds or min(seeds) < 1:
        sys.exit("need at least one seed, all of them >= 1")

    sha, checkout = parent_checkout(root, args.parent_rev)
    parent_bin, change_bin = build(checkout), build(root)
    print(f"parent {sha}: {parent_bin}\nchange (this tree): {change_bin}")

    digests_equal = True
    for workload in workloads:
        rows = []
        for i, seed in enumerate(seeds):
            pair = {}
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                binary = parent_bin if side == "parent" else change_bin
                pair[side] = measure(binary, workload, seed, manifest["run_seconds"])
                if not pair[side]["correct"]:
                    sys.exit(f"{side} failed a benchmark gate on {workload} seed {seed}")
            rows.append((pair["parent"], pair["change"]))
            print(f"  {workload} s{seed} done ({order[0]} first)", file=sys.stderr)
        digests_equal &= report(workload, manifest["end_to_end"], seeds, rows)
    return 0 if digests_equal else 1


if __name__ == "__main__":
    sys.exit(main())
