#!/usr/bin/env python3
"""Builds the layer-attributed benchmark from source and runs it.

Usage (from the repository root):

  python3 layerbench/run.py --workload cold-paper --seed 1 --seconds 20 --trace 0
  python3 layerbench/run.py --smoke          # self-check, seconds per workload
  python3 layerbench/run.py --write-golden   # refresh golden.json (seed 0)

A run prints the driver's {"meta": ...} line, a {"build": ...} line, and
last the result object {"correct", "attempted", "failed", "metrics"}. The
same three objects are appended to .bench_out/results.jsonl. The build goes
to $CARGO_TARGET_DIR/layerbench (default .bench_build/layerbench); its log
goes to stderr. Exits non-zero, printing no result, when the sources are
missing or the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["cold-paper", "warm-mix", "append-stream"]
RUN_TIMEOUT_S = 175


def fail(message):
    print("layerbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "layerbench")


def build():
    """Configures (once) and builds the driver; returns the binary path."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("the library sources are missing: no %s in %s" % (needed, ROOT))
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "layerbench",
                    "-j", str(os.cpu_count() or 1)], stdout=sys.stderr, check=True)
    return os.path.join(out, "layerbench")


def cmake_cache(key):
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def source_digest():
    """SHA-256 over the library and benchmark sources and build files."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, n) for n in sorted(filenames)]
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def build_meta():
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    build_type = cmake_cache("CMAKE_BUILD_TYPE")
    flags = (cmake_cache("CMAKE_CXX_FLAGS") + " " +
             cmake_cache("CMAKE_CXX_FLAGS_" + build_type.upper())).strip()
    return {"commit": commit, "source_digest": source_digest(),
            "compiler": cmake_cache("CMAKE_CXX_COMPILER"), "build_type": build_type,
            "cxx_flags": flags, "nproc": os.cpu_count()}


def no_aslr_prefix():
    """`setarch <arch> -R` when it works here: with address-space layout
    randomization off, every run gets the same memory layout, which takes
    the layout-dependent part out of the run-to-run spread."""
    prefix = ["setarch", platform.machine(), "-R"]
    try:
        ok = subprocess.run(prefix + ["true"], capture_output=True,
                            timeout=10).returncode == 0
    except (OSError, subprocess.SubprocessError):
        ok = False
    return prefix if ok else []


def run_driver(binary, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (returncode, stdout lines)."""
    cmd = no_aslr_prefix() + [
        binary, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--out", os.path.join(ROOT, ".bench_out"),
        "--golden", os.path.join(HERE, "golden.json")] + list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def run(args):
    binary = build()
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    code, lines = run_driver(binary, args.workload, args.seed, args.seconds, args.trace)
    if code != 0 or not lines:
        sys.stderr.write("\n".join(lines) + "\n")
        fail("driver exited with %d" % code)
    build_line = json.dumps({"build": build_meta()})
    for line in lines[:-1]:
        print(line)
    print(build_line)
    print(lines[-1], flush=True)
    with open(os.path.join(ROOT, ".bench_out", "results.jsonl"), "a") as f:
        f.write("\n".join([lines[-2] if len(lines) > 1 else "{}", build_line,
                           lines[-1]]) + "\n")


def smoke():
    """Runs every workload at tiny scale and checks the output contract."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    binary = build()
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = run_driver(binary, workload, 0, 1, trace, ["--smoke"])
            result = json.loads(lines[-1]) if code == 0 and lines else None
            where = "%s trace %d" % (workload, trace)
            if result is None:
                problems.append(where + ": no result (exit %d)" % code)
                continue
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(where + ": result keys %s" % sorted(result))
            if result["failed"] != 0 or not result["correct"]:
                problems.append(where + ": %d of %d ops failed"
                                % (result["failed"], result["attempted"]))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(where + ": metrics differ from BENCHMARK.json: %s"
                                % sorted(set(got.items()) ^ set(wanted[trace].items())))
        # A wrong reference answer must surface as failed ops.
        code, lines = run_driver(binary, workload, 0, 1, 0, ["--smoke", "--tamper"])
        result = json.loads(lines[-1]) if code == 0 and lines else None
        if result is None or result["failed"] == 0:
            problems.append(workload + ": a tampered reference was not detected")
        else:
            print("%s: tampered reference -> failed_frac %.3f"
                  % (workload, result["failed"] / result["attempted"]))
    for p in problems:
        print("FAIL " + p)
    print("PASS" if not problems else "FAIL")
    return 0 if not problems else 1


def write_golden():
    """Records the reference digests of the default seed into golden.json."""
    binary = build()
    golden = {}
    scratch = os.path.join(ROOT, ".bench_out", "golden-part.json")
    for workload in WORKLOADS:
        cmd = [binary, "--workload", workload, "--seed", "0", "--seconds", "1",
               "--trace", "0", "--out", os.path.join(ROOT, ".bench_out"),
               "--write-golden", scratch]
        subprocess.run(cmd, stdout=sys.stderr, check=True, timeout=RUN_TIMEOUT_S)
        with open(scratch) as f:
            golden[workload] = json.load(f)
        os.remove(scratch)
    with open(os.path.join(HERE, "golden.json"), "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote %s" % os.path.join(HERE, "golden.json"))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.write_golden:
        return write_golden()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    run(args)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.CalledProcessError as e:
        fail("command failed: %s" % " ".join(map(str, e.cmd)))
    except subprocess.TimeoutExpired as e:
        fail("timed out after %ss: %s" % (e.timeout, " ".join(map(str, e.cmd))))
