#!/usr/bin/env bash
# Runs the full set twice on the same code and prints, per workload x
# end-to-end metric, both values, the relative difference and the bound from
# /BENCHMARK.json. Fails if a difference in the worse direction exceeds its
# bound, if a check failed, or if a workload's sim_digest differs between
# the two sets (counts and virtual-time metrics must repeat exactly).
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
mkdir -p benchmark/out
for set in a b; do
    bash benchmark/run.sh "$@" | tee "benchmark/out/repeat-$set.txt"
done

python3 - benchmark/out/repeat-a.txt benchmark/out/repeat-b.txt <<'PY'
import json, sys

def load(path):
    lines = open(path).read().splitlines()
    digests = [l.split()[1].rstrip(";") for l in lines if l.strip().startswith("sim_digest")]
    return json.loads(lines[-1])["results"], digests

(a, da), (b, db) = load(sys.argv[1]), load(sys.argv[2])
spec = {m["name"]: m for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
bad = []
if da != db:
    bad.append(f"sim_digests differ: {da} vs {db}")
print(f"{'workload':<16}{'metric':<22}{'first':>14}{'second':>14}{'worse by':>10}{'bound':>8}")
for x, y in zip(a, b):
    w = x["workload"]
    for r in (x, y):
        if not r["result"]["correct"] or r["result"]["failed"]:
            bad.append(f"{w} trace {r['trace']}: correct={r['result']['correct']} failed={r['result']['failed']}")
    if x["trace"]:
        continue
    for name, m in spec.items():
        u, v = x["result"]["metrics"][name]["value"], y["result"]["metrics"][name]["value"]
        worse = (v - u) / u if m["better"] == "lower" else (u - v) / u
        print(f"{w:<16}{name:<22}{u:>14.4f}{v:>14.4f}{worse:>+10.1%}{m['bound']:>8.0%}")
        if abs(worse) > m["bound"]:
            bad.append(f"{w} {name}: {u} vs {v} differ by {worse:+.1%}, bound {m['bound']:.0%}")
for line in bad:
    print("FAIL:", line)
sys.exit(1 if bad else 0)
PY
