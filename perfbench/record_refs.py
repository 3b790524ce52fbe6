#!/usr/bin/env python3
"""Record perfbench/refs.json: SHA-256 digests of the outputs the
benchmark's workloads produce at the reference seed (42), taken from
the hccsim command line rather than from the benchmark driver, so the
driver's in-process calls are checked against what users run.

    cmake --preset release && cmake --build --preset release -j
    python3 perfbench/record_refs.py --hccsim build-release/tools/hccsim

Re-record only when a change is meant to alter simulated output (and
says so); the driver compares against these digests on every pass.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

SEED = 42
# Must match perfbench/driver/workloads.cpp.
FAULT_SEEDS = [SEED * 1000 + i for i in range(1, 9)]
FAULT_RATES = ["%.2f" % (i / 100.0) for i in range(1, 13)]
SERVE_LOADS = "2,16,32"
SERVE_REQUESTS = 200


def sha(data):
    return hashlib.sha256(data).hexdigest()


def run(cmd):
    return subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL).stdout


def figure_cells(hccsim, tmp):
    """Every app x {base, cc} x {plain, uvm where supported}, plus
    bigxfer under the pipelined CC tiers: `hccsim run --stats-out`."""
    cells = []
    for line in run([hccsim, "list"]).decode().splitlines()[3:]:
        name, _suite, uvm = line.split()
        for cc in (False, True):
            cells.append((name, cc, False, None))
            if uvm == "yes":
                cells.append((name, cc, True, None))
    cells += [("bigxfer", True, False, "double-buffer"),
              ("bigxfer", True, False, "speculative")]
    digests = {}
    stats = os.path.join(tmp, "stats.json")
    for name, cc, uvm, tier in cells:
        label = name + (".cc" if cc else ".base") + (".uvm" if uvm else "")
        cmd = [hccsim, "run", "--app", name, "--seed", str(SEED),
               "--stats-out", stats]
        if cc:
            cmd.append("--cc")
        if uvm:
            cmd.append("--uvm")
        if tier:
            cmd += ["--overlap", tier]
            label += "." + tier
        out = run(cmd).decode()
        head = "\nperformance-model decomposition:\n"
        begin = out.index(head) + len(head)
        end = out.index("\ncritical path: ", begin)
        with open(stats, "rb") as f:
            digests["figure-cells/%s/stats" % label] = sha(f.read())
        digests["figure-cells/%s/decompose" % label] = sha(
            out[begin:end].encode())
    return digests


def outputs(hccsim, tmp, workload, args):
    """The results file in both formats plus the merged stats, keyed
    "<workload>/<format>"."""
    digests = {}
    for fmt in ("csv", "json"):
        path = os.path.join(tmp, "out." + fmt)
        stats = os.path.join(tmp, "stats.json")
        run([hccsim] + args + ["--format", fmt, "--out", path,
                                "--stats-out", stats])
        with open(path, "rb") as f:
            digests["%s/%s" % (workload, fmt)] = sha(f.read())
        with open(stats, "rb") as f:
            digests["%s/stats" % workload] = sha(f.read())
    return digests


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--hccsim", required=True, help="hccsim binary")
    ap.add_argument("--out", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "refs.json"))
    a = ap.parse_args()
    fault_args = ["faults", "--app", "llm", "--overlap", "all",
                  "--fork-point", "auto/0.99", "--jobs", "2",
                  "--seeds", ",".join(map(str, FAULT_SEEDS)),
                  "--rates", ",".join(FAULT_RATES)]
    serve_args = ["serve", "--loads", SERVE_LOADS, "--requests",
                  str(SERVE_REQUESTS), "--seed", str(SEED), "--jobs", "1"]
    with tempfile.TemporaryDirectory() as tmp:
        digests = figure_cells(a.hccsim, tmp)
        digests.update(outputs(a.hccsim, tmp, "fault-campaign",
                               fault_args))
        digests.update(outputs(a.hccsim, tmp, "serve-curve", serve_args))
    doc = {
        "seed": SEED,
        "recorded_with": {
            "figure-cells": "hccsim run --app APP [--cc] [--uvm] "
                            "[--overlap TIER] --seed 42 --stats-out F",
            "fault-campaign": "hccsim " + " ".join(fault_args),
            "serve-curve": "hccsim " + " ".join(serve_args),
        },
        "digests": dict(sorted(digests.items())),
    }
    with open(a.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print("%d digests -> %s" % (len(digests), a.out), file=sys.stderr)


if __name__ == "__main__":
    main()
