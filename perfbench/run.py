#!/usr/bin/env python3
"""Host-time benchmark of hccsim: build the driver, run one workload.

    python3 perfbench/run.py --workload figure-cells --seed 42 \\
        --seconds 20 --trace 0

Run from the root of a source checkout.  The first run configures and
builds perfbench/ (Release) into .bench_build/ ($CARGO_TARGET_DIR when
set); later runs only re-check the build.  The last line of stdout is
the driver's JSON result.  With --trace 0, set-up is probed several
times in fresh processes and setup_s is the median of the probes and
the measured run.  See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("figure-cells", "fault-campaign", "serve-curve")
SETUP_PROBES = 8
# Every run must end well inside the harness's 180 s limit.
DRIVER_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then let the build tool decide what is stale."""
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    jobs = str(min(4, os.cpu_count() or 1))
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "hcc_perfbench"],
                   check=True, stdout=log, stderr=log)
    return os.path.join(build_dir, "hcc_perfbench")


def spawn(cmd):
    """Run the driver; its set-up clock starts at this spawn."""
    t0 = time.monotonic_ns()
    return subprocess.run(cmd + ["--spawn-ns", str(t0)], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=DRIVER_TIMEOUT_S)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0 or not 1 <= a.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in [1, 120]")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no hccsim sources next to perfbench/ (expected %s)"
             % os.path.join(ROOT, "src"))
    try:
        driver = build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e, 1)

    cmd = [driver, "--workload", a.workload, "--seed", str(a.seed),
           "--refs", os.path.join(HERE, "refs.json")]
    setups = []
    if not a.trace:
        for _ in range(SETUP_PROBES):
            probe = spawn(cmd + ["--setup-only"])
            if probe.returncode != 0:
                fail("set-up probe exited %d" % probe.returncode, 1)
            setups.append(json.loads(probe.stdout.splitlines()[-1])
                          ["setup_s"])
    run = spawn(cmd + ["--seconds", str(a.seconds), "--trace",
                       str(a.trace)])
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        fail("driver exited %d" % run.returncode, 1)
    result = json.loads(lines[-1])
    if not a.trace:
        m = result["metrics"]["setup_s"]
        setups.append(m["value"])
        m["value"] = statistics.median(setups)
        lines.insert(-1, "  setup_s median of %d set-ups: %s"
                     % (len(setups), ", ".join("%.6f" % s for s in setups)))
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
