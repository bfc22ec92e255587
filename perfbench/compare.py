#!/usr/bin/env python3
"""Compare two perfbench reports (written with --report FILE).

    python3 perfbench/compare.py BASE.json NEW.json

Refuses (exit 2) unless both reports come from a like-for-like runner:
the same workload, trace mode, run length, cores, thread counts (measured
and default), build profile and seed, and calibration times within 2x of each
other. The git rev is printed but not compared: it is what a comparison
is for. Otherwise prints, per metric, both values and NEW / BASE.
"""

import json
import sys

SAME = ("cores", "threads", "default_threads", "profile", "seed")
# On one shared 2-vCPU host the reading alone was seen to span 1.8x
# from run to run, so only a factor of 2 marks another runner.
CALIBRATION_TOLERANCE = 2.0


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def refusals(a, b):
    out = []
    for key in ("workload", "trace", "seconds"):
        if a[key] != b[key]:
            out.append(f"{key}: {a[key]} vs {b[key]}")
    fa, fb = a["fingerprint"], b["fingerprint"]
    for key in SAME:
        if fa[key] != fb[key]:
            out.append(f"fingerprint {key}: {fa[key]} vs {fb[key]}")
    ca, cb = fa["calibration_ms"], fb["calibration_ms"]
    if max(ca, cb) > CALIBRATION_TOLERANCE * min(ca, cb):
        out.append(f"fingerprint calibration_ms: {ca:.3f} vs {cb:.3f}")
    return out


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a, b = load(argv[1]), load(argv[2])
    why = refusals(a, b)
    if why:
        print("refusing to compare reports from different runners:", file=sys.stderr)
        for line in why:
            print(f"  {line}", file=sys.stderr)
        return 2
    print(f"{a['workload']}: rev {a['fingerprint']['rev']} -> {b['fingerprint']['rev']}")
    for section in ("gated", "metrics"):
        print(f"-- {section}")
        ma, mb = a[section], b[section]
        for name, m in ma.items():
            if name not in mb:
                print(f"{name:<36} only in {argv[1]}")
                continue
            va, vb = m["value"], mb[name]["value"]
            ratio = f"{vb / va:.3f}x" if va else "n/a"
            print(f"{name:<36} {va:>14.6g} {vb:>14.6g} {m['unit']:<6} {ratio}")
        for name in mb:
            if name not in ma:
                print(f"{name:<36} only in {argv[2]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
