#!/usr/bin/env python3
"""Self-test of the repository benchmark at tiny sizes.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs the benchmark with --tiny 1,
untraced and traced, and checks that the result line names every
end-to-end (untraced) or per-layer (traced) metric of BENCHMARK.json
exactly, with its unit, and that every correctness check passed. It then
runs each workload once more with --expect-wrong 1 and checks that the
deliberately wrong expected answers raise the failure ratio. Exits 0 when
every check holds.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402  (the build step)


def result(workload, trace, wrong=False):
    cmd = [run.BINARY, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny", "1"]
    if wrong:
        cmd += ["--expect-wrong", "1"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        return None, f"exit {out.returncode}: {out.stderr.strip()[-200:]}"
    lines = out.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), None
    except (IndexError, ValueError) as e:
        return None, f"last line is not JSON ({e})"


def check_metrics(got, want):
    errors = []
    names = [m["name"] for m in want]
    if sorted(got) != sorted(names):
        missing = set(names) - set(got)
        extra = set(got) - set(names)
        errors.append(f"metric names differ: missing {sorted(missing)}, "
                      f"extra {sorted(extra)}")
    for m in want:
        g = got.get(m["name"])
        if g is None:
            continue
        if g.get("unit") != m["unit"]:
            errors.append(f"{m['name']}: unit {g.get('unit')} != {m['unit']}")
        if not isinstance(g.get("value"), (int, float)):
            errors.append(f"{m['name']}: value is not a number")
    return errors


def main():
    if not run.build():
        print("selftest: build failed")
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for w in spec["workloads"]:
        name = w["name"]
        for trace, want in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            res, err = result(name, trace)
            errors = [err] if err else check_metrics(res["metrics"], want)
            if res and (not res["correct"] or res["failed"] != 0 or
                        res["attempted"] < 1):
                errors.append(f"checks failed: {res['failed']} of "
                              f"{res['attempted']}")
            for e in errors:
                print(f"FAIL {name} --trace {trace}: {e}")
            failures += len(errors)
            if not errors:
                print(f"ok   {name} --trace {trace}: {len(want)} metrics, "
                      f"{res['attempted']} checks passed")
        res, err = result(name, 0, wrong=True)
        if err or res["failed"] == 0 or res["correct"]:
            print(f"FAIL {name} --expect-wrong: failure ratio not raised "
                  f"({err or res['failed']})")
            failures += 1
        else:
            print(f"ok   {name} --expect-wrong: {res['failed']} of "
                  f"{res['attempted']} checks failed, as they must")
    print("selftest:", "PASS" if failures == 0 else f"{failures} failure(s)")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
