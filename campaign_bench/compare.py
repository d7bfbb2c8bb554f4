#!/usr/bin/env python3
"""Diff two saved benchmark results (files under campaign_bench/out/results/).

Usage:  python3 campaign_bench/compare.py BASE.json NEW.json

Results stamped with different host fingerprints are incomparable: the
script says so and exits 3 without diffing anything.
"""

import json
import sys


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = (json.load(open(path)) for path in sys.argv[1:])
    if base["host"] != new["host"]:
        print("incomparable: results come from different hosts")
        for key in sorted(set(base["host"]) | set(new["host"])):
            a, b = base["host"].get(key), new["host"].get(key)
            if a != b:
                print(f"  {key}: {a!r} vs {b!r}")
        return 3
    if (base["workload"], base["trace"]) != (new["workload"], new["trace"]):
        print("incomparable: different workload or trace mode")
        return 3
    print(f"{base['workload']} trace={base['trace']}: seed {base['seed']} -> seed {new['seed']}")
    bm, nm = base["result"]["metrics"], new["result"]["metrics"]
    for name in sorted(set(bm) | set(nm)):
        if name not in bm or name not in nm:
            print(f"  {name:<32} only in {'new' if name in nm else 'base'}")
            continue
        a, b = bm[name]["value"], nm[name]["value"]
        change = f"{(b - a) / a:+.1%}" if a else "n/a"
        print(f"  {name:<32} {a:>14.6g} -> {b:>14.6g} {nm[name]['unit']:<10} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
