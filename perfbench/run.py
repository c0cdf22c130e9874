#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload paper_grid --seed 3 --seconds 15 --trace 0

Builds the simulator libraries and the benchmark binary from source
(CMake, Release) into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs one workload, checks its outcome digest
against perfbench/reference.json when the seed is the reference seed,
and prints the result object as the last line of standard output.
Per-run reports, with the host fingerprint, go to .bench_out/reports/.

    --smoke     a seconds-long version of the workload (no reference check)
    --repin     re-record the workload's reference digest (see README)
"""
import argparse
import json
import os
import platform
import re
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORKLOADS = ("paper_grid", "ackclock_steady", "flow_scale_sharded")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = Path(base)
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run_group(cmd, timeout, **kwargs):
    """subprocess.run in its own process group; on timeout the whole group
    (make and compiler children included) is killed and reaped."""
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def build(bdir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(HERE), "-B", str(bdir),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(bdir), "--target", "perfbench",
              "-j", jobs]]
    for cmd in steps:
        if run_group(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr).returncode != 0:
            raise subprocess.CalledProcessError(1, cmd)
    return bdir / "perfbench"


def host_fingerprint(bdir):
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = {}
    try:
        for line in (bdir / "CMakeCache.txt").read_text().splitlines():
            m = re.match(r"^([A-Za-z_]+):[A-Z]+=(.*)$", line)
            if m:
                cache[m.group(1)] = m.group(2)
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = compiler
    return {
        "cores": os.cpu_count(),
        "cpu_model": model,
        "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--repin", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if not (ROOT / "src" / "CMakeLists.txt").is_file() or \
            not (ROOT / "examples" / "scenarios").is_dir():
        log(f"no simulator sources under {ROOT}; nothing to benchmark")
        return 3

    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    ref_seed = reference.get("seed", 0)
    if args.repin:
        if args.smoke or args.trace:
            ap.error("--repin records full untraced runs only")
        args.seed = ref_seed

    bdir = build_dir()
    try:
        binary = build(bdir)
    except (subprocess.SubprocessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    out_dir = ROOT / ".bench_out"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--root", str(ROOT), "--out", str(out_dir)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        log("benchmark binary timed out")
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"benchmark binary failed with code {proc.returncode}")
        return 1
    result = json.loads(lines[-1])
    digest = next((l.split()[1] for l in lines if l.startswith("outcome_digest ")),
                  "")

    if args.repin:
        if not result["correct"]:
            log("refusing to re-pin: the run's own checks failed")
            return 1
        reference.setdefault("seed", ref_seed)
        reference.setdefault("digests", {})[args.workload] = digest
        REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
        log(f"re-pinned {args.workload} at seed {ref_seed}: {digest}")
    elif args.seed == ref_seed and not args.smoke:
        want = reference.get("digests", {}).get(args.workload)
        if want != digest:
            lines.insert(-1, f"# problem: outcome digest {digest} != "
                             f"reference {want}")
            result["correct"] = False
            result["failed"] = result["attempted"]

    host = host_fingerprint(bdir)
    report = {"host": host, "workload": args.workload, "seed": args.seed,
              "trace": args.trace, "smoke": args.smoke,
              "outcome_digest": digest, "result": result}
    reports = out_dir / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.smoke:
        name += "-smoke"
    (reports / (name + ".json")).write_text(json.dumps(report, indent=2) + "\n")

    for line in lines[:-1]:
        print(line)
    print("# host " + json.dumps(host, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
