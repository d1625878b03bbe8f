#!/usr/bin/env python3
"""Run one workload of the SAQL benchmark from the repository root.

    python3 perfbench/run.py --workload apt8 --seed 1 --seconds 15 --trace 0

Builds the benchmark first when needed (see build.py). The last line of
standard output is the result JSON; perfbench/README.md explains the rest.
"""
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

TIMEOUT_S = 170


def commit():
    try:
        out = subprocess.run(["git", "-C", build.ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    stamp = build.build()
    tmp, cmd = build.jvm_command(build.spark_jars(), "-XX:SharedArchiveFile=" + build.CDS)
    cmd += ["-Dperfbench.commit=" + commit(), "-Dperfbench.source=" + stamp[:12],
            "repro.perfbench.Main", *sys.argv[1:],
            "--out", os.path.join(build.BUILD, "traces")]
    try:
        code = subprocess.run(cmd, timeout=TIMEOUT_S, env=build.jvm_env(tmp)).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % TIMEOUT_S, file=sys.stderr)
        code = 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
