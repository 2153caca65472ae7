#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the repository root; builds the harness like run.py does. Checks:
  * BENCHMARK.json: names match [A-Za-z0-9_.-]+ and carry a unit, at most 16
    end-to-end and 128 per-layer metrics, bounds within 0.25;
  * a tiny size of every workload runs end to end, untraced and traced,
    reporting exactly the declared metrics with the declared units;
  * at full size (one short run), every reported percentile has at least ten
    samples beyond it;
  * an injected bad response lowers ok_frac and marks the run incorrect.
Exits 0 when every check passes.
"""

import json
import math
import os
import re
import subprocess
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402  (the build logic the benchmark itself uses)

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

failures = []


def check(cond, message):
    if not cond:
        failures.append(message)
        print(f"FAIL: {message}", flush=True)
    return cond


def harness(binary, workload, *flags):
    cmd = [binary, f"--workload={workload}", "--seed=7", *flags]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    check(out.returncode == 0, f"{' '.join(cmd)} exited {out.returncode}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def check_spec(spec):
    e2e, layers = spec["end_to_end"], spec["per_layer"]
    check(1 <= len(e2e) <= 16, f"{len(e2e)} end-to-end metrics")
    check(1 <= len(layers) <= 128, f"{len(layers)} per-layer metrics")
    names = [m["name"] for m in e2e + layers] + [w["name"] for w in spec["workloads"]]
    check(len(names) == len(set(names)), "a metric or workload name is used twice")
    for m in e2e + layers:
        check(NAME_RE.match(m["name"]) is not None, f"bad name {m['name']!r}")
        check(UNIT_RE.match(m.get("unit", "")) is not None,
              f"{m['name']}: missing or bad unit")
        check(m.get("better") in ("higher", "lower"), f"{m['name']}: bad 'better'")
    for m in e2e:
        check(0 < m["bound"] <= 0.25, f"{m['name']}: bound {m['bound']} outside (0, 0.25]")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
          "setup_s must be declared in s, lower is better")
    check(tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS,
          "BENCHMARK.json workloads differ from run.py's")


def check_result(label, result, declared, nonzero):
    check(result["correct"] is True, f"{label}: correct is {result['correct']}")
    check(result["attempted"] >= 1 and result["failed"] == 0,
          f"{label}: attempted {result['attempted']}, failed {result['failed']}")
    metrics = result["metrics"]
    check(list(metrics) == [m["name"] for m in declared],
          f"{label}: reported metrics differ from BENCHMARK.json")
    for m in declared:
        got = metrics.get(m["name"], {})
        check(got.get("unit") == m["unit"], f"{label}: {m['name']} unit {got.get('unit')}")
        value = got.get("value")
        check(isinstance(value, (int, float)) and math.isfinite(value),
              f"{label}: {m['name']} value {value!r}")
        if nonzero:
            check(value != 0, f"{label}: {m['name']} is 0")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)
    binary = run.build(run.build_dir())

    for workload in run.WORKLOADS:
        print(f"tiny {workload}", flush=True)
        _, plain = harness(binary, workload, "--tiny", "--seconds=0.01", "--trace=0")
        check_result(f"{workload} tiny", plain, spec["end_to_end"], nonzero=True)
        _, traced = harness(binary, workload, "--tiny", "--seconds=0.01", "--trace=1")
        check_result(f"{workload} tiny traced", traced, spec["per_layer"], nonzero=False)

        print(f"full {workload}, one pass", flush=True)
        detail, full = harness(binary, workload, "--seconds=0.01", "--trace=0")
        check(full["correct"] is True, f"{workload} full: {detail['failures']}")
        for name, counts in detail["samples"].items():
            check(counts["beyond"] >= 10,
                  f"{workload}: {name} has {counts['beyond']} samples beyond it")

        _, bad = harness(binary, workload, "--tiny", "--seconds=0.01", "--trace=0",
                         "--inject-bad-every=25")
        ok_frac = bad["metrics"]["ok_frac"]["value"]
        check(ok_frac < plain["metrics"]["ok_frac"]["value"] and bad["failed"] > 0,
              f"{workload}: injected bad responses left ok_frac at {ok_frac}")
        check(bad["correct"] is False, f"{workload}: injected bad responses still correct")

    print("selftest: OK" if not failures else f"selftest: {len(failures)} failure(s)")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
