#!/usr/bin/env python3
"""Builds the GQR end-to-end benchmark from source and runs one workload.

    python3 gqrbench/run.py --workload serve --seed 1 --seconds 10 --trace 0
    python3 gqrbench/run.py --self-test

The library (../src) and the benchmark program (src/) are compiled into
.bench_build/ at the repository root with the repository's release flags.
All arguments are passed to that program, whose last line of standard output
is the run's JSON result. --self-test instead shows that each injected
result corruption makes its matching output check fail the run.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "gqrbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("gqrbench: library sources (src/) not found\n")
        sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", BUILD, "-j", jobs, "--target", "gqrbench"]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("gqrbench: build failed: %s\n" % " ".join(cmd))
            sys.exit(2)


def self_test():
    """Each corruption must fail the run through its matching check."""
    cases = [
        ("serve", None, None),
        ("serve", "swapped-id", "[exact-distance]"),
        ("serve", "perturbed-distance", "[exact-distance]"),
        ("serve", "dropped-callback", "[callback-once]"),
        ("batch", "swapped-id", "[exact-distance]"),
        ("batch", "perturbed-distance", "[exact-distance]"),
    ]
    ok = True
    for workload, corrupt, check in cases:
        cmd = [BINARY, "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", "0"]
        if corrupt:
            cmd += ["--corrupt", corrupt]
        done = subprocess.run(cmd, capture_output=True, text=True)
        last = (done.stdout.strip().splitlines() or [""])[-1]
        if corrupt is None:
            good = done.returncode == 0 and '"correct": true' in last
        else:
            good = (done.returncode == 1 and '"correct": false' in last
                    and check in done.stderr)
        ok = ok and good
        sys.stderr.write("self-test %-8s %-20s -> exit %d, %s\n" % (
            workload, corrupt or "(clean)", done.returncode,
            "as expected" if good else "NOT AS EXPECTED"))
    sys.stderr.write("self-test %s\n" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv):
    build()
    if argv == ["--self-test"]:
        return self_test()
    sys.stdout.flush()
    # Spans of a traced run go to .bench_build/trace/ under the root.
    return subprocess.run([BINARY] + argv, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
