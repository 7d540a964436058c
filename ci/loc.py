#!/usr/bin/env python3
"""Counts non-test code lines of Rust sources, per file and per directory.

A code line is a line outside `#[cfg(test)]` modules that is neither blank
nor a `//` comment (doc comments included). A test module runs from its
`#[cfg(test)]` attribute to the closing brace at the indentation of its
`mod` line, which is where rustfmt puts it.

Usage: python3 ci/loc.py [DIR ...]    (default: crates/*/src)

Prints one line per `.rs` file under each DIR (recursively), then the
directory's total, then the grand total when several directories are given.
Standard library only; no thresholds.
"""

import glob
import os
import sys


def code_lines(path):
    """The number of code lines in one Rust source file."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    count = 0
    i = 0
    while i < len(lines):
        stripped = lines[i].strip()
        if stripped == "#[cfg(test)]":
            j = i + 1
            while j < len(lines) and lines[j].strip().startswith("#["):
                j += 1
            if j < len(lines) and lines[j].strip().startswith("mod ") and lines[j].rstrip().endswith("{"):
                indent = lines[j][: len(lines[j]) - len(lines[j].lstrip())]
                k = j + 1
                while k < len(lines) and lines[k].rstrip() != indent + "}":
                    k += 1
                i = k + 1
                continue
        if stripped and not stripped.startswith("//"):
            count += 1
        i += 1
    return count


def rust_files(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".rs"):
                yield os.path.join(dirpath, name)


def main(argv):
    dirs = argv or sorted(glob.glob("crates/*/src"))
    grand = 0
    for d in dirs:
        total = 0
        for path in rust_files(d):
            n = code_lines(path)
            total += n
            print(f"{n:7}  {path}")
        print(f"{total:7}  {d}  (total)")
        grand += total
    if len(dirs) > 1:
        print(f"{grand:7}  all")


if __name__ == "__main__":
    main(sys.argv[1:])
