#!/usr/bin/env python3
"""Self-test of the dyngran benchmark.

    python3 perfbench/selftest.py [--seconds S]

For every workload in BENCHMARK.json, on a held-out seed pair that no
`--seed N` reaches (workload seed 90001, scheduler seed 31337):
  * an untraced run must be correct with failed == 0 and report every
    end-to-end metric, each > 0;
  * a traced run must be correct — which includes its counters and race
    sets matching the untraced passes exactly — and report every
    per-layer metric.
Also checks that the benchmark refuses to run when an environment
variable that changes what is measured is set. Exits 1 on any failure.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HELD_OUT = ["--wl-seed", "90001", "--sched-seed", "31337"]


def run(workload, trace, seconds, env=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seconds", str(seconds), "--trace", trace] + HELD_OUT
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          env=env)
    lines = proc.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    return proc.returncode, result, proc.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=2)
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {"0": [m["name"] for m in spec["end_to_end"]],
             "1": [m["name"] for m in spec["per_layer"]]}
    failures = []

    for w in [w["name"] for w in spec["workloads"]]:
        for trace in ("0", "1"):
            label = "%s trace=%s" % (w, trace)
            code, res, out = run(w, trace, a.seconds)
            ok = (code == 0 and isinstance(res, dict) and res["correct"]
                  and res["failed"] == 0 and res["attempted"] >= 1
                  and sorted(res["metrics"]) == sorted(names[trace]))
            if ok and trace == "0":
                ok = all(res["metrics"][n]["value"] > 0 for n in names["0"])
            print("%-32s %s" % (label, "ok" if ok else "FAIL"), flush=True)
            if not ok:
                failures.append(label)
                sys.stdout.write(out)

    env = dict(os.environ, DYNGRAN_RT_MODE="sharded")
    code, res, _ = run("live-readheavy", "0", a.seconds, env)
    refused = code != 0 and res is None
    print("%-32s %s" % ("refuses DYNGRAN_RT_MODE", "ok" if refused else "FAIL"))
    if not refused:
        failures.append("env refusal")

    if failures:
        print("selftest: %d failure(s): %s" % (len(failures),
                                              ", ".join(failures)))
        sys.exit(1)
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
