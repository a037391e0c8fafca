#!/usr/bin/env python3
"""Checks that every file under src/ belongs to a shipped program.

The shipped programs are tsctool (src/cli/tsctool_main.cc) and the
benchmark driver (perfbench/src/*.cc). Starting from those files, the
check follows every `#include "..."` edge, resolving the path against
src/ first and then against the including file's own directory. A
reached header pulls in its sibling .cc, since that is where the
header's definitions live. Every .h/.cc under src/ that the walk does
not reach is named, and the check fails: code that only experiments,
benches or tests use lives under bench/ or tests/.

Usage: src_reach_test.py [REPO_ROOT]   (exit 1 when a file is unreached)
"""

import glob
import os
import re
import sys

INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def reached_files(src_dir, roots):
    """Absolute paths of every file the include walk from roots reaches."""
    seen = set()
    pending = [os.path.abspath(root) for root in roots]
    while pending:
        path = pending.pop()
        if path in seen:
            continue
        seen.add(path)
        if path.endswith(".h"):
            sibling = path[:-2] + ".cc"
            if os.path.isfile(sibling):
                pending.append(sibling)
        with open(path, encoding="utf-8") as f:
            text = f.read()
        for name in INCLUDE.findall(text):
            for base in (src_dir, os.path.dirname(path)):
                candidate = os.path.abspath(os.path.join(base, name))
                if os.path.isfile(candidate):
                    pending.append(candidate)
                    break
    return seen


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "..")
    src_dir = os.path.abspath(os.path.join(root, "src"))
    roots = [os.path.join(src_dir, "cli", "tsctool_main.cc")]
    roots += sorted(glob.glob(os.path.join(root, "perfbench", "src", "*.cc")))
    reached = reached_files(src_dir, roots)

    unreached = []
    for directory, _, files in os.walk(src_dir):
        for file in files:
            path = os.path.join(directory, file)
            if file.endswith((".h", ".cc")) and path not in reached:
                unreached.append(os.path.relpath(path, root))
    for path in sorted(unreached):
        print(f"{path} is not reached from tsctool or perfbench; "
              "move it under bench/ or tests/")
    if unreached:
        print(f"{len(unreached)} unreached files under src/")
        return 1
    in_src = sum(1 for path in reached if path.startswith(src_dir + os.sep))
    print(f"all {in_src} .h/.cc files under src/ are reached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
