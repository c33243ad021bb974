#!/usr/bin/env python3
"""Check that relative markdown links in the repo's docs resolve.

Scans every tracked ``*.md`` file outside ``vendor/`` and ``target/`` for
inline links/images (``[text](target)``) whose target is a relative path, and
fails if the referenced file or directory does not exist.  External links
(``http(s)://``), pure in-page anchors (``#...``) and rustdoc-style intra-doc
references are ignored — this guards the docs/README cross-link graph, not
the web.

Usage: python3 tools/check_links.py  (from anywhere inside the repo)
"""

import re
import subprocess
import sys
from pathlib import Path

LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
IGNORED_SCHEMES = ("http://", "https://", "mailto:", "ftp://")


def repo_root() -> Path:
    out = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"],
        capture_output=True,
        text=True,
        check=True,
    )
    return Path(out.stdout.strip())


def markdown_files(root: Path) -> list[Path]:
    out = subprocess.run(
        ["git", "ls-files", "*.md"], cwd=root, capture_output=True, text=True, check=True
    )
    files = [root / line for line in out.stdout.splitlines()]
    return [
        f
        for f in files
        if "vendor/" not in f.as_posix() and "target/" not in f.as_posix()
    ]


def main() -> int:
    root = repo_root()
    broken: list[str] = []
    checked = 0
    scanned = 0
    for md in markdown_files(root):
        if not md.exists():
            # Deleted in the working tree; `git ls-files` lists it until the
            # deletion is staged.
            print(f"{md.relative_to(root)}: skipped, tracked but not on disk")
            continue
        scanned += 1
        text = md.read_text(encoding="utf-8")
        for match in LINK.finditer(text):
            target = match.group(1)
            if target.startswith(IGNORED_SCHEMES) or target.startswith("#"):
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:
                continue
            resolved = (md.parent / path_part).resolve()
            checked += 1
            if not resolved.exists():
                line = text[: match.start()].count("\n") + 1
                broken.append(f"{md.relative_to(root)}:{line}: broken link -> {target}")
    for b in broken:
        print(b)
    print(f"checked {checked} relative links in {scanned} markdown files")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
