#!/usr/bin/env python3
"""Collects sets of benchmark runs and compares them against the bounds.

    # ten runs of every workload, seeds 1..10, into a directory
    python3 gqrbench/compare.py collect runs/base --seeds 1-10
    # the same with per-layer (traced) runs
    python3 gqrbench/compare.py collect runs/base --seeds 1-10 --trace 1

    # one set: median, quartiles and spread of every metric, and whether
    # each end-to-end spread is within its bound
    python3 gqrbench/compare.py report runs/base
    # two sets: both sets' figures and a verdict per workload and metric
    python3 gqrbench/compare.py compare runs/base runs/change

A set is a directory of JSON results named <workload>-t<trace>-s<seed>.json
(the last line of one run's standard output). Bounds come from
BENCHMARK.json at the repository root and are used exactly as written: the
tool has no option to widen them.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def collect(args, spec):
    os.makedirs(args.out, exist_ok=True)
    workloads = [w["name"] for w in spec["workloads"]]
    for i, seed in enumerate(parse_seeds(args.seeds)):
        # Alternate the workload order between seeds, so no workload
        # always runs first.
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            lines = done.stdout.strip().splitlines()
            path = os.path.join(args.out, "%s-t%d-s%d.json" % (w, args.trace,
                                                               seed))
            with open(path, "w") as f:
                f.write((lines[-1] if lines else "") + "\n")
            sys.stderr.write("%s seed %d: exit %d\n" % (w, seed,
                                                        done.returncode))
    return 0


def load_set(directory):
    """{(workload, trace): [result, ...]} of one set."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        workload, trace, _ = name[:-len(".json")].rsplit("-", 2)
        with open(os.path.join(directory, name)) as f:
            text = f.read().strip()
        try:
            result = json.loads(text)
        except ValueError:
            result = None
        runs.setdefault((workload, int(trace[1:])), []).append(result)
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(results, name):
    values = [r["metrics"][name]["value"] for r in results
              if r and name in r.get("metrics", {})]
    if not values:
        return None
    q1, med, q3 = quartiles(values)
    spread = (q3 - q1) / med if med else float("inf")
    return {"n": len(values), "q1": q1, "median": med, "q3": q3,
            "spread": spread}


def health(results):
    bad = sum(1 for r in results if not r or not r.get("correct"))
    shares = sorted({r["failed"] / r["attempted"] for r in results if r})
    return bad, shares


def report(args, spec):
    runs = load_set(args.set)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    layer = [m["name"] for m in spec["per_layer"]]
    status = 0
    for (workload, trace), results in sorted(runs.items()):
        bad, shares = health(results)
        print("== %s (trace %d): %d runs, %d not correct, failed share %s" % (
            workload, trace, len(results), bad, shares))
        if bad:
            status = 1
        names = list(bounds) if trace == 0 else layer
        for name in names:
            s = summarize(results, name)
            if s is None:
                print("  %-28s missing" % name)
                status = 1
                continue
            verdict = ""
            if trace == 0:
                bound = bounds[name]["bound"]
                if s["spread"] <= bound / 3:
                    verdict = "steady (< bound/3 = %.3f)" % (bound / 3)
                elif s["spread"] <= bound:
                    verdict = "within bound %.3f, above bound/3" % bound
                else:
                    verdict = "UNSTEADY: spread above bound %.3f" % bound
                    status = 1
            print("  %-28s median %12.4f  q1 %12.4f  q3 %12.4f  spread %.3f %s"
                  % (name, s["median"], s["q1"], s["q3"], s["spread"],
                     verdict))
    return status


def compare(args, spec):
    base, change = load_set(args.base), load_set(args.change)
    status = 0
    for (workload, trace), before in sorted(base.items()):
        if trace != 0:
            continue
        after = change.get((workload, trace), [])
        _, shares_a = health(before)
        bad, shares_b = health(after)
        print("== %s: %d vs %d runs; failed share %s vs %s%s" % (
            workload, len(before), len(after), shares_a, shares_b,
            "" if shares_a == shares_b else "  DIFFERENT"))
        if bad or shares_a != shares_b:
            status = 1
        for m in spec["end_to_end"]:
            a, b = summarize(before, m["name"]), summarize(after, m["name"])
            if a is None or b is None:
                print("  %-18s missing" % m["name"])
                status = 1
                continue
            worse = (b["median"] / a["median"] - 1 if m["better"] == "lower"
                     else 1 - b["median"] / a["median"])
            if worse > m["bound"]:
                verdict = "REGRESSION (worse by %.3f > bound %.3f)" % (
                    worse, m["bound"])
                status = 1
            elif max(a["spread"], b["spread"]) > m["bound"]:
                verdict = "unresolved: spread above bound %.3f" % m["bound"]
            elif worse < 0 and -worse > max(a["spread"], b["spread"]):
                verdict = "better by %.3f" % -worse
            else:
                verdict = "no change beyond spread"
            print("  %-18s A %12.4f [%.4f, %.4f]  B %12.4f [%.4f, %.4f]  %s" % (
                m["name"], a["median"], a["q1"], a["q3"], b["median"], b["q1"],
                b["q3"], verdict))
    return status


def main():
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("out")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r = sub.add_parser("report")
    r.add_argument("set")
    k = sub.add_parser("compare")
    k.add_argument("base")
    k.add_argument("change")
    args = p.parse_args()
    return {"collect": collect, "report": report,
            "compare": compare}[args.cmd](args, spec)


if __name__ == "__main__":
    sys.exit(main())
