#!/usr/bin/env python3
"""Checks that docs/observability.md's instrument inventory matches src/.

Every name passed as a string literal to GetCounter / GetGauge /
GetHistogram under src/ must have a row in the inventory table, and every
name in the table must be registered somewhere in src/. A literal that is
concatenated with something (`"server.latency_us." + endpoint`) is a
dynamic family; a table name with a `<placeholder>` segment
(`server.latency_us.<endpoint>`) stands for one family, and a short name
that starts with a dot (`` `block_cache.hits` / `.misses` ``) is a sibling
of the first name in its cell.

Usage: instrument_inventory_test.py [REPO_ROOT]   (exit 1 on a mismatch)
"""

import os
import re
import sys

REGISTRATION = re.compile(
    r'Get(?:Counter|Gauge|Histogram)\(\s*(?:std::string\()?"([^"]+)"\)?\s*(\+)?')
TABLE_ROW = re.compile(r"^\|\s*(`[^|]*)\|")
CODE_SPAN = re.compile(r"`([^`]+)`")


def code_names(src_dir):
    """(name, dynamic) pairs registered under src_dir."""
    names = set()
    for root, _, files in os.walk(src_dir):
        for file in files:
            if not file.endswith((".cc", ".h")):
                continue
            with open(os.path.join(root, file), encoding="utf-8") as f:
                for match in REGISTRATION.finditer(f.read()):
                    names.add((match.group(1), match.group(2) is not None))
    return names


def doc_names(doc_path):
    """Names in the inventory table, each as a regex over full names."""
    with open(doc_path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| name |"))
    names = {}
    for line in lines[start + 2:]:
        row = TABLE_ROW.match(line)
        if not row:
            break
        first = None
        for name in CODE_SPAN.findall(row.group(1)):
            if name.startswith(".") and first is not None:
                name = first.rsplit(".", 1)[0] + name
            first = first or name
            pattern = "".join("[a-z0-9_]+" if part.startswith("<") else re.escape(part)
                              for part in re.split(r"(<[^>]+>)", name) if part)
            names[name] = re.compile(pattern + r"\Z")
    return names


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "..")
    registered = code_names(os.path.join(root, "src"))
    documented = doc_names(os.path.join(root, "docs", "observability.md"))

    def matches(pattern, name, dynamic):
        # A dynamic prefix "a.b." matches a documented family "a.b.<x>".
        return pattern.match(name + "x" if dynamic else name)

    problems = []
    for name, dynamic in sorted(registered):
        if not any(matches(p, name, dynamic) for p in documented.values()):
            problems.append(f"src/ registers {name}{'<...>' if dynamic else ''} "
                            "but docs/observability.md has no row for it")
    for doc_name, pattern in sorted(documented.items()):
        if not any(matches(pattern, name, dynamic) for name, dynamic in registered):
            problems.append(f"docs/observability.md lists {doc_name} "
                            "but nothing in src/ registers it")
    for problem in problems:
        print(problem)
    if problems:
        return 1
    print(f"{len(registered)} registered names, {len(documented)} documented: in step")
    return 0


if __name__ == "__main__":
    sys.exit(main())
