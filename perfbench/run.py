#!/usr/bin/env python3
"""Builds and runs the layered end-to-end benchmark of slpspan.

One run, as the benchmark contract in BENCHMARK.json describes it:

    python3 perfbench/run.py --workload warm_stream --seed 1 --seconds 20 --trace 0

builds the library and the benchmark binary from this checkout (CMake,
Release, into $CARGO_TARGET_DIR or .bench_build), runs one workload in its own process and
prints its report: a "REPORT {...}" line with every detail, then, as the last
line, {"correct", "attempted", "failed", "metrics"}. With --trace 1 the
metrics are the per-layer ones of a traced serial replay; the spans are kept
under <build>/traces/.

    python3 perfbench/run.py --smoke

runs every workload at its smoke size in both modes (seconds each) and checks
that every metric BENCHMARK.json names is printed with its unit, that every
answer was verified and that error_rate is 0.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the perfbench target; logs to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no slpspan source tree next to perfbench/; nothing to build")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", "4"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           check=False)
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    binary = os.path.join(out, "perfbench")
    if not os.access(binary, os.X_OK):
        fail("build produced no perfbench binary")
    return binary


def commit_id():
    """The checkout's commit from .git (no git process, nothing outside the
    checkout is read); "unknown" in an exported tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head[:12]
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as f:
                return f.read().strip()[:12]
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0][:12]
    except OSError:
        pass
    return "unknown"


def run_once(binary, config, workload, seed, seconds, trace, smoke=False):
    """Runs one workload; returns (stdout lines, report dict, result dict)."""
    wl = config["workloads"].get(workload)
    if wl is None:
        fail(f"unknown workload {workload!r}")
    out = build_dir()
    tag = f"{workload}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}"
    work = os.path.join(out, "work", f"{tag}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(out, "traces"), exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--work", work,
           "--commit", commit_id()]
    if "open_loop_rate_per_s" in wl:
        rate = wl["smoke_rate_per_s"] if smoke else wl["open_loop_rate_per_s"]
        cmd += ["--rate", str(rate)]
    if trace:
        cmd += ["--trace-out", os.path.join(out, "traces", tag + ".spans.tsv")]
    if smoke:
        cmd.append("--smoke")
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if r.returncode != 0:
        fail(f"{workload} exited with code {r.returncode}")
    lines = [ln for ln in r.stdout.splitlines() if ln.strip()]
    reports = [ln for ln in lines if ln.startswith("REPORT ")]
    if not lines or not reports:
        fail(f"{workload} printed no result")
    try:
        report = json.loads(reports[-1][len("REPORT "):])
        result = json.loads(lines[-1])
    except ValueError as e:
        fail(f"{workload} printed malformed output: {e}")
    return lines, report, result


def check_result(bench, result, report, trace):
    """Problems with one run's output against BENCHMARK.json, as strings."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    want = bench["per_layer" if trace else "end_to_end"]
    got = result.get("metrics", {})
    for m in want:
        entry = got.get(m["name"])
        if entry is None:
            problems.append(f"metric {m['name']} missing")
        elif entry.get("unit") != m["unit"]:
            problems.append(f"metric {m['name']} has unit {entry.get('unit')}"
                            f", want {m['unit']}")
        elif not isinstance(entry.get("value"), (int, float)):
            problems.append(f"metric {m['name']} is not a number")
    extra = set(got) - {m["name"] for m in want}
    if extra:
        problems.append(f"unlisted metrics {sorted(extra)}")
    if not result.get("correct") or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} "
                        f"failed={result.get('failed')}")
    error_rate = report.get("detail", {}).get("error_rate")
    if error_rate != 0:
        problems.append(f"error_rate={error_rate}")
    return problems


def smoke(binary, bench, config):
    ok = True
    for wl in bench["workloads"]:
        for trace in (0, 1):
            _, report, result = run_once(binary, config, wl["name"], 1, 2,
                                         trace, smoke=True)
            problems = check_result(bench, result, report, trace)
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"smoke {wl['name']} trace={trace}: {status}")
            ok = ok and not problems
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    config = load_json(os.path.join(HERE, "config.json"))
    binary = build()
    if args.smoke:
        return smoke(binary, bench, config)
    if not args.workload:
        fail("--workload is required (or --smoke)")
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    lines, report, result = run_once(binary, config, args.workload, args.seed,
                                     seconds, args.trace)
    problems = check_result(bench, result, report, args.trace)
    if problems:
        # Wrong answers are reported through "correct"/"failed"; anything
        # else means the output does not meet the contract.
        contract = [x for x in problems
                    if not x.startswith(("correct=", "error_rate="))]
        if contract:
            fail("; ".join(contract))
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
