#!/usr/bin/env python3
"""Check that every event site reports through ``Recorder::observe``.

The recorder's ``observe`` is the one place that reads the telemetry switch,
builds telemetry events and matches the provenance tag.  This scans every
tracked ``*.rs`` file outside ``vendor/``, ``crates/telemetry/`` and the
recorder itself (``crates/netsim/src/recorder.rs``) and fails if non-test
code still does any of that by hand:

- ``telemetry.enabled()``, ``telemetry.emit(`` or ``telemetry.traced(``;
- a hand-built ``TelemetryEvent::<Variant> {``.

Test code is exempt: integration tests (any ``tests/`` directory), ``tests.rs``
module files, and inline ``#[cfg(test)] mod ... { ... }`` blocks.

Usage: python3 tools/check_observation_path.py  (from anywhere inside the repo)
"""

import re
import subprocess
import sys
from pathlib import Path

FORBIDDEN = re.compile(
    r"telemetry\.(?:enabled\(\)|emit\(|traced\()"
    r"|TelemetryEvent::[A-Z][A-Za-z]*\s*\{"
)
EXEMPT_PREFIXES = ("vendor/", "crates/telemetry/")
EXEMPT_FILES = {"crates/netsim/src/recorder.rs"}
TEST_MOD = re.compile(r"^\s*#\[cfg\(test\)\]\s*$")


def repo_root() -> Path:
    out = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"],
        capture_output=True,
        text=True,
        check=True,
    )
    return Path(out.stdout.strip())


def is_test_file(rel: str) -> bool:
    parts = rel.split("/")
    return "tests" in parts[:-1] or parts[-1] == "tests.rs"


def non_test_lines(text: str):
    """Yield ``(line_number, line)`` outside inline ``#[cfg(test)]`` modules."""
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        if TEST_MOD.match(lines[i]) and i + 1 < len(lines) and "mod " in lines[i + 1]:
            # Skip the module: to the brace that closes it, or past `mod x;`.
            depth, j = 0, i + 1
            while j < len(lines):
                depth += lines[j].count("{") - lines[j].count("}")
                if depth <= 0 and ("}" in lines[j] or lines[j].rstrip().endswith(";")):
                    break
                j += 1
            i = j + 1
            continue
        yield i + 1, lines[i]
        i += 1


def main() -> int:
    root = repo_root()
    files = subprocess.run(
        ["git", "ls-files", "*.rs"],
        cwd=root,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    hits = []
    for rel in files:
        if rel.startswith(EXEMPT_PREFIXES) or rel in EXEMPT_FILES or is_test_file(rel):
            continue
        text = (root / rel).read_text(encoding="utf-8")
        for number, line in non_test_lines(text):
            if FORBIDDEN.search(line):
                hits.append(f"{rel}:{number}: {line.strip()}")
    if hits:
        print("event sites must report through Recorder::observe:", file=sys.stderr)
        for hit in hits:
            print(f"  {hit}", file=sys.stderr)
        return 1
    print(f"one observation path: {len(files)} Rust files checked")
    return 0


if __name__ == "__main__":
    sys.exit(main())
