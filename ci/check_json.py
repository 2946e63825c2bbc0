#!/usr/bin/env python3
"""Independent check of the workspace's JSON writers.

Loads every file given on the command line with Python's strict `json`
module: raw control characters inside strings, duplicate object keys and
the non-standard constants NaN / Infinity / -Infinity are all errors.
A second, unrelated parser accepting the files guards against the Rust
codec and its own reader agreeing on a malformed dialect.

    python3 ci/check_json.py FILE [FILE ...]

Exits 1 naming every file that fails, 0 when all load.
"""

import json
import sys


def reject_constant(name):
    raise ValueError(f"non-standard constant {name}")


def reject_duplicates(pairs):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ValueError(f"duplicate key {key!r}")
        seen.add(key)
    return dict(pairs)


def main(paths):
    if not paths:
        print("usage: check_json.py FILE [FILE ...]", file=sys.stderr)
        return 2
    failed = 0
    for path in paths:
        try:
            with open(path, encoding="utf-8") as f:
                json.load(
                    f,
                    strict=True,
                    parse_constant=reject_constant,
                    object_pairs_hook=reject_duplicates,
                )
        except (OSError, ValueError) as e:
            print(f"{path}: {e}", file=sys.stderr)
            failed += 1
        else:
            print(f"{path}: ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
