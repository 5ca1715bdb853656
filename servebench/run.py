#!/usr/bin/env python3
"""Wire-level serving benchmark: build servebench, then run one workload.

Run from the repository root:

    python3 servebench/run.py --workload classify --seed 1 --seconds 20 --trace 0
    python3 servebench/run.py --smoke

The library is built with the repository's own CMakeLists.txt (legacy
wrappers off) and the benchmark with servebench/CMakeLists.txt, both under
$CARGO_TARGET_DIR (default .bench_build). Build output goes to stderr; the
last line of stdout is the result JSON. --smoke runs every workload briefly,
traced and untraced, and checks that each passes its oracle gate and emits
every metric BENCHMARK.json names.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["classify", "chat"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"servebench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def sh(cmd, log_path):
    """Run a build step, its output appended to log_path; exit on failure.
    Compiler temporaries stay inside the build directory."""
    tmp = build_dir() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(log_path, "ab") as out:
        rc = subprocess.run(cmd, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT,
                            env=env).returncode
    if rc != 0:
        sys.stderr.write(Path(log_path).read_text(errors="replace")[-4000:])
        log(f"build step failed: {' '.join(map(str, cmd))}")
        sys.exit(3)


def build():
    """Configure (once) and build the library and the benchmark; returns
    the servebench binary."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"repository sources not found under {ROOT}")
        sys.exit(2)
    if shutil.which("cmake") is None:
        log("cmake not found")
        sys.exit(2)
    out = build_dir()
    lib_dir, bench_dir = out / "bbs", out / "servebench"
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    log_path.write_text("")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(os.cpu_count() or 4)
    if not (lib_dir / "CMakeCache.txt").is_file():
        sh(["cmake", "-S", ROOT, "-B", lib_dir, *gen, "-DCMAKE_BUILD_TYPE=Release",
            "-DBBS_BUILD_TESTS=OFF", "-DBBS_BUILD_BENCH=OFF",
            "-DBBS_BUILD_EXAMPLES=OFF", "-DBBS_LEGACY_WRAPPERS=OFF"], log_path)
    sh(["cmake", "--build", lib_dir, "--target", "bbs", "-j", jobs], log_path)
    library = lib_dir / "libbbs.a"
    if not (bench_dir / "CMakeCache.txt").is_file():
        sh(["cmake", "-S", HERE, "-B", bench_dir, *gen, "-DCMAKE_BUILD_TYPE=Release",
            f"-DBBS_SOURCE_DIR={ROOT}", f"-DBBS_LIBRARY={library}"], log_path)
    sh(["cmake", "--build", bench_dir, "-j", jobs], log_path)
    return bench_dir / "servebench"


def container_for(binary):
    """The classify model's BBMS container, written once per build of the
    benchmark (its content depends only on the program)."""
    data = build_dir() / "data"
    data.mkdir(parents=True, exist_ok=True)
    key = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    path = data / f"ffn-{key}.bbms"
    if not path.is_file():
        for old in data.glob("ffn-*.bbms"):
            old.unlink()
        # The container writer is atomic (temp file + rename).
        rc = subprocess.run([binary, "prepare", "--out", path], cwd=ROOT,
                            stdout=sys.stderr, timeout=RUN_TIMEOUT_S).returncode
        if rc != 0:
            log("writing the classify container failed")
            sys.exit(3)
    return path


def run_workload(binary, container, workload, seed, seconds, trace, short=False):
    """Run one workload; returns (exit code, stdout text)."""
    spans = build_dir() / "spans"
    spans.mkdir(parents=True, exist_ok=True)
    cmd = [binary, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--container", container,
           "--spans", spans / f"{workload}-seed{seed}.json"]
    if short:
        cmd.append("--short")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return 4, ""
    return proc.returncode, proc.stdout


def smoke(binary, container):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: spec["end_to_end"], 1: spec["per_layer"]}
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            rc, out = run_workload(binary, container, workload, 1, 3, trace, short=True)
            lines = out.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = {}
            problems = []
            if rc != 0:
                problems.append(f"exit code {rc}")
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("result line malformed")
            else:
                if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                    problems.append(f"oracle gate: {result['failed']} of "
                                    f"{result['attempted']} failed")
                metrics = result["metrics"]
                names = [m["name"] for m in want[trace]]
                if sorted(metrics) != sorted(names):
                    problems.append("metric names differ from BENCHMARK.json")
                for m in want[trace]:
                    got = metrics.get(m["name"], {})
                    value = got.get("value")
                    if got.get("unit") != m["unit"] or not isinstance(value, (int, float)) \
                            or not math.isfinite(value):
                        problems.append(f"{m['name']} missing or malformed")
                    elif trace == 0 and value <= 0:
                        problems.append(f"{m['name']} is {value}")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"smoke {workload:14s} trace={trace} attempted="
                  f"{result.get('attempted')} {status}")
            ok = ok and not problems
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="short run of every workload with metric checks")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    binary = build()
    container = container_for(binary)
    if args.smoke:
        return smoke(binary, container)
    rc, out = run_workload(binary, container, args.workload, args.seed,
                           args.seconds, args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    return rc


if __name__ == "__main__":
    sys.exit(main())
