#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Run from the root of a source checkout. It checks that:

* `BENCHMARK.json` has the keys, names, units and limits its format allows;
* each workload, run at a tiny size (`--tiny`), prints every end-to-end
  metric (`--trace 0`) and every per-layer metric (`--trace 1`) named in
  `BENCHMARK.json`, with the same units, and nothing else;
* a planted wrong verdict (`--plant-wrong-verdict`) fails every workload's
  run: exit code not 0, `"correct": false`, no metrics;
* in a directory holding only `BENCHMARK.json` and the benchmark's files,
  the benchmark exits non-zero without printing a result.

Exits 0 when every check passes, 1 otherwise.
"""

import json
import os
import re
import shutil
import subprocess
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(args, cwd="."):
    cmd = [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "1"] + args
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def check_manifest(bench):
    check(set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          "BENCHMARK.json has exactly the expected keys")
    check(isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60,
          "run_seconds is a whole number from 1 to 60")
    check(1 <= len(bench["paths"]) <= 16 and all(
        re.match(r"^[A-Za-z0-9_./-]{1,200}$", p) and not p.startswith("/") and ".." not in p
        for p in bench["paths"]), "paths are relative and well formed")
    check(len(bench["command"]) <= 32 and all(len(c) <= 200 for c in bench["command"]),
          "command is at most 32 strings of at most 200 characters")
    workloads = bench["workloads"]
    check(2 <= len(workloads) <= 8 and all(
        set(w) == {"name", "why"} and NAME.match(w["name"]) and len(w["why"]) <= 200
        and "\n" not in w["why"] for w in workloads), "workloads are well formed")
    e2e = bench["end_to_end"]
    check(1 <= len(e2e) <= 16 and all(
        set(m) == {"name", "unit", "better", "bound"} and NAME.match(m["name"])
        and UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
        and 0 < m["bound"] <= 0.25 for m in e2e), "end_to_end metrics are well formed")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in e2e),
          "setup_s is present, in s, lower is better, with the largest bound")
    layer = bench["per_layer"]
    check(1 <= len(layer) <= 128 and all(
        set(m) == {"name", "unit", "better"} and NAME.match(m["name"])
        and UNIT.match(m["unit"]) and m["better"] in ("higher", "lower") for m in layer),
        "per_layer metrics are well formed")
    names = [w["name"] for w in workloads] + [m["name"] for m in e2e + layer]
    check(len(names) == len(set(names)), "every name is used once")
    check(len(json.dumps(bench)) <= 64 * 1024, "BENCHMARK.json is at most 64 KiB")


# Workloads the driver keeps runnable but BENCHMARK.json does not list
# (see perfbench/README.md); they are tested the same way.
UNLISTED = ["fanin"]


def check_runs(bench):
    for workload in [w["name"] for w in bench["workloads"]] + UNLISTED:
        for trace, declared in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            p = run(["--workload", workload, "--trace", trace, "--tiny"])
            result = last_json(p.stdout)
            what = "%s --trace %s" % (workload, trace)
            check(p.returncode == 0 and result is not None and set(result) == RESULT_KEYS
                  and result["correct"] is True and result["attempted"] >= 1
                  and result["failed"] == 0, what + " runs and checks its outputs")
            if result is None:
                print(p.stderr[-2000:])
                continue
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            check(got == want, what + " reports exactly the declared metrics and units")
            check(all(isinstance(v.get("value"), (int, float)) for v in result["metrics"].values()),
                  what + " reports numbers")
        p = run(["--workload", workload, "--trace", "0", "--tiny", "--plant-wrong-verdict"])
        result = last_json(p.stdout)
        check(p.returncode != 0 and result is not None and result["correct"] is False
              and result["failed"] >= 1 and result["metrics"] == {},
              workload + " fails on a planted wrong verdict")


def check_bare_directory():
    bare = os.path.join(".bench_state", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("target", "__pycache__"))
        p = run(["--workload", "grow", "--trace", "0"], cwd=bare)
        check(p.returncode != 0 and last_json(p.stdout) is None,
              "without the sources the benchmark fails without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    check_manifest(bench)
    check_runs(bench)
    check_bare_directory()
    try:
        os.rmdir(".bench_state")
    except OSError:
        pass
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
