#!/usr/bin/env python3
"""Build and run the rvdyn repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload rewrite --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (the rvdyn libraries from
src/ plus the benchmark binary, Release) under .bench_build/; later calls rebuild
only what changed. The binary prints the metrics; its last stdout line is
the JSON result. --selftest checks that sabotaged references are reported as
failed operations. See perfbench/README.md.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "rvdyn_perfbench"
BUILD_TIMEOUT_S = 850


def source_digest():
    """sha256 over the library and benchmark sources, for provenance."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for p in sorted(top.rglob("*")):
            if p.is_file() and p.suffix in (".cpp", ".hpp", ".def", ".txt", ".py"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build():
    """Configure and build; the build log goes to stderr. Returns success."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: no rvdyn sources next to perfbench/", file=sys.stderr)
        return False
    # Compilers' temporary files stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release",
         "-DPERFBENCH_GIT_SHA=" + git_sha(),
         "-DPERFBENCH_SOURCE_DIGEST=" + source_digest()],
        ["cmake", "--build", str(BUILD), "--target", "rvdyn_perfbench", "-j", jobs],
    ]
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                               timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: build step failed: {e}", file=sys.stderr)
            return False
        if r.returncode != 0:
            return False
    return BINARY.is_file()


def run_binary(args, timeout):
    """Runs the benchmark binary; returns (exit code, stdout)."""
    r = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE, text=True,
                       timeout=timeout)
    return r.returncode, r.stdout


SABOTAGE = [("rewrite", "counter"), ("attach_run", "counter"),
            ("fuzz", "magic"), ("debug", "frames")]


def selftest():
    """Each workload passes on its own references and fails on sabotaged ones."""
    ok = True
    for workload, kind in SABOTAGE:
        for sabotage in (None, kind):
            args = ["--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", "0"]
            if sabotage:
                args += ["--sabotage", sabotage]
            code, out = run_binary(args, timeout=170)
            result = json.loads(out.strip().splitlines()[-1]) if code == 0 else None
            if sabotage:
                good = result is not None and not result["correct"] and result["failed"] > 0
            else:
                good = result is not None and result["correct"] and result["failed"] == 0
            label = f"{workload} sabotage={sabotage or 'none'}"
            print(f"selftest {label}: {'ok' if good else 'FAILED'} "
                  f"({result and {k: result[k] for k in ('correct', 'attempted', 'failed')}})")
            ok = ok and good
    return ok


def main(argv):
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if argv == ["--selftest"]:
        return 0 if selftest() else 1
    args = list(argv)
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tag = "-".join(args[i + 1] for i, a in enumerate(args[:-1])
                       if a in ("--workload", "--seed"))
        args += ["--trace-file", str(traces / f"{tag}.json")]
    sys.stdout.flush()
    os.execv(str(BINARY), [str(BINARY)] + args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
