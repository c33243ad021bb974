#!/usr/bin/env python3
"""Count non-test and test lines of Rust code per workspace package.

Prints, for every package under ``crates/`` and for the root package, the
non-test, test and example line counts at the working tree and at ``REV``
(default ``HEAD``, read through ``git show``), with the delta.

Counting rule:

- A line is a physical line of a tracked (or untracked, not ignored) ``*.rs``
  file: blank lines and comments count.
- Test lines are
  - every line of a file under a ``tests/`` directory;
  - every line of a file declared by ``#[cfg(test)] mod x;`` (``x.rs`` or
    ``x/mod.rs`` next to, or below, the declaring file);
  - every line of an item annotated ``#[cfg(test)]``, from the attribute
    through the item's closing brace (or the ``;`` or ``,`` that ends it).
- Example lines are the lines of files under an ``examples/`` directory; they
  count neither as test nor as non-test lines.
- Everything else under ``crates/<pkg>/`` counts for ``<pkg>``; ``src/`` of
  the repository root counts for the root package.  ``vendor/``,
  ``benchmark/`` and ``target/`` are not counted.

Usage: python3 tools/loc.py [REV]   (from anywhere inside the repo)
"""

import os
import re
import subprocess
import sys
from pathlib import Path, PurePosixPath

EXCLUDED = ("vendor/", "benchmark/", "target/")
CFG_TEST = re.compile(r"^\s*#\[cfg\(test\)\]\s*(.*)$")
MOD_DECL = re.compile(r"^\s*(?:pub(?:\([^)]*\))?\s+)?mod\s+(\w+)\s*;")


def git(*args: str) -> str:
    out = subprocess.run(["git", *args], capture_output=True, text=True, check=True)
    return out.stdout


def strip_code(line: str, state: dict) -> str:
    """``line`` with comments and string/char literals blanked out.

    ``state`` carries an open block comment or string across lines.
    """
    out = []
    i, n = 0, len(line)
    while i < n:
        if state["block"]:
            end = line.find("*/", i)
            if end < 0:
                return "".join(out)
            state["block"] -= 1
            i = end + 2
        elif state["string"] is not None:
            closer = state["string"]
            if closer == '"':
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == '"':
                    state["string"] = None
                i += 1
            else:
                end = line.find(closer, i)
                if end < 0:
                    return "".join(out)
                state["string"] = None
                i = end + len(closer)
        elif line.startswith("//", i):
            break
        elif line.startswith("/*", i):
            state["block"] += 1
            i += 2
        else:
            raw = re.match(r'b?r(#*)"', line[i:])
            if raw:
                state["string"] = '"' + raw.group(1)
                i += raw.end()
            elif line[i] == '"':
                state["string"] = '"'
                i += 1
            elif line[i] == "'":
                char = re.match(r"'(?:\\.[^']*|[^\\'])'", line[i:])
                i += char.end() if char else 1
            else:
                out.append(line[i])
                i += 1
    return "".join(out)


def test_spans(lines: list[str]) -> tuple[int, list[str]]:
    """Lines inside ``#[cfg(test)]`` items, and the test-only module files
    those items declare (``mod x;``)."""
    state = {"block": 0, "string": None}
    code = [strip_code(line, state) for line in lines]
    counted = 0
    test_mods = []
    i = 0
    while i < len(lines):
        m = CFG_TEST.match(code[i])
        if not m:
            i += 1
            continue
        start = i
        # The item may start on the attribute's own line or further down,
        # past more attributes.
        j, text = i, m.group(1)
        while not text.strip() or text.strip().startswith("#["):
            j += 1
            if j >= len(lines):
                break
            text = code[j]
        depth, k = 0, j
        while k < len(lines):
            seg = code[k] if k != i else m.group(1)
            depth += seg.count("{") - seg.count("}")
            # An item ends at its closing brace; a `mod x;`, a statement or a
            # struct field ends on its own line.
            if depth <= 0 and ("}" in seg or seg.rstrip().endswith((";", ","))):
                break
            k += 1
        decl = MOD_DECL.match(code[j]) if j < len(lines) else None
        if decl and k == j:
            test_mods.append(decl.group(1))
        counted += min(k, len(lines) - 1) - start + 1
        i = k + 1
    return counted, test_mods


def package_of(path: str) -> str | None:
    if path.startswith(EXCLUDED) or not path.endswith(".rs"):
        return None
    parts = PurePosixPath(path).parts
    if parts[0] == "crates" and len(parts) > 2:
        return package_name(f"crates/{parts[1]}/Cargo.toml", parts[1])
    if parts[0] in ("src", "tests", "examples"):
        return package_name("Cargo.toml", "(root)")
    return None


def package_name(manifest: str, fallback: str) -> str:
    """The ``[package] name`` of ``manifest`` in the working tree."""
    try:
        text = Path(manifest).read_text(encoding="utf-8")
    except OSError:
        return fallback
    m = re.search(r'^\[package\][^\[]*?^name\s*=\s*"([^"]+)"', text, re.M | re.S)
    return m.group(1) if m else fallback


def count(files: dict[str, list[str]]) -> dict[str, list[int]]:
    """``{package: [non_test, test, examples]}`` over ``{path: lines}``."""
    test_files = set()
    inline = {}
    for path, lines in files.items():
        counted, mods = test_spans(lines)
        inline[path] = counted
        p = PurePosixPath(path)
        base = p.parent if p.name in ("lib.rs", "main.rs", "mod.rs") else p.with_suffix("")
        for m in mods:
            test_files.add(str(base / f"{m}.rs"))
            test_files.add(str(base / m / "mod.rs"))
    totals = {}
    for path, lines in files.items():
        pkg = package_of(path)
        if pkg is None:
            continue
        row = totals.setdefault(pkg, [0, 0, 0])
        parts = PurePosixPath(path).parts
        if "examples" in parts:
            row[2] += len(lines)
        elif "tests" in parts or path in test_files:
            row[1] += len(lines)
        else:
            row[0] += len(lines) - inline[path]
            row[1] += inline[path]
    return totals


def worktree_files() -> dict[str, list[str]]:
    files = {}
    listed = git("ls-files", "--cached", "--others", "--exclude-standard").splitlines()
    for path in listed:
        if package_of(path) is None:
            continue
        f = Path(path)
        if f.is_file():
            files[path] = f.read_text(encoding="utf-8").splitlines()
    return files


def rev_files(rev: str) -> dict[str, list[str]]:
    files = {}
    for path in git("ls-tree", "-r", "--name-only", rev).splitlines():
        if package_of(path) is not None:
            files[path] = git("show", f"{rev}:{path}").splitlines()
    return files


def main() -> int:
    rev = sys.argv[1] if len(sys.argv) > 1 else "HEAD"
    os.chdir(git("rev-parse", "--show-toplevel").strip())
    now, then = count(worktree_files()), count(rev_files(rev))
    cols = ("non-test", "test", "examples")
    print(f"{'package':<18}" + "".join(f"{c + ' ' + rev[:10]:>22}{'now':>8}{'delta':>8}" for c in cols))
    total_then, total_now = [0, 0, 0], [0, 0, 0]
    for pkg in sorted(set(now) | set(then)):
        a, b = then.get(pkg, [0, 0, 0]), now.get(pkg, [0, 0, 0])
        cells = "".join(f"{a[i]:>22}{b[i]:>8}{b[i] - a[i]:>+8}" for i in range(3))
        print(f"{pkg:<18}{cells}")
        for i in range(3):
            total_then[i] += a[i]
            total_now[i] += b[i]
    cells = "".join(
        f"{total_then[i]:>22}{total_now[i]:>8}{total_now[i] - total_then[i]:>+8}" for i in range(3)
    )
    print(f"{'workspace':<18}{cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
