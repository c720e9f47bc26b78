"""Benchmark for ofswitch: four workloads driven in-process, in one thread.

    python3 perfbench/run.py --workload leaf_bigtable --seed 1 --seconds 24 --trace 0

prints the workload's end-to-end metrics (``--trace 0``) or its per-layer
metrics from a traced run (``--trace 1``) as the last line of standard
output, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Every workload checks its outputs against the benchmark's own
model of what the switch must do; a failed check prints ``correct: false``
and exits with status 1.

    python3 perfbench/run.py --smoke       # every workload, tiny, both modes
    python3 perfbench/run.py --self-test   # every check rejects a corrupted output
    python3 perfbench/run.py --workload fabric --seed 1 --profile   # cProfile top 10

See perfbench/README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import importlib
import json
import os
import pstats
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("fabric", "leaf_bigtable", "edge_stateful", "control_churn")


def _import_program() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "ofswitch")):
        sys.exit(f"ofswitch sources not found under {src}")
    sys.path.insert(0, src)


def manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    import tracer as tracing
    from util import CheckFailed, calibration_s

    module = importlib.import_module(name)
    print(json.dumps({"calibration_s": calibration_s()}))
    tr = None
    if trace:
        tr = tracing.Tracer()
        tracing.install(tr)
    try:
        out = module.run(seed, seconds, smoke, tr)
    except CheckFailed as exc:
        print(f"{name}: output check failed: {exc}", file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 0, "metrics": {}}
    finally:
        if tr is not None:
            tr.uninstall()
    if tr is None:
        metrics = out["metrics"]
    else:
        # the same figures taken under tracing, to measure its overhead
        print(json.dumps({"end_to_end_while_traced": out["metrics"]}), file=sys.stderr)
        metrics = tracing.layer_metrics(tr)
        metrics.update(out["layers"])
        # every declared layer metric, 0 for a layer that did no work here
        metrics = {m["name"]: metrics.get(m["name"], (0, m["unit"]))
                   for m in manifest()["per_layer"]}
        os.makedirs(RESULTS, exist_ok=True)
        tr.write(os.path.join(RESULTS, f"spans-{name}-seed{seed}.jsonl"))
    return {
        "correct": True,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }


def smoke() -> int:
    """Run every workload at a tiny size in both modes and check the output
    form against BENCHMARK.json."""
    spec = manifest()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    e2e = {m["name"] for m in spec["end_to_end"]}
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w["name"],
                   "--seed", "1", "--seconds", "0.5", "--trace", str(trace), "--size", "smoke"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
            where = f"{w['name']} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            keys = {"correct", "attempted", "failed", "metrics"}
            if set(res) != keys or res["correct"] is not True:
                problems.append(f"{where}: bad result keys or incorrect: {res}")
                continue
            if not (isinstance(res["attempted"], int) and res["attempted"] >= 1
                    and isinstance(res["failed"], int) and 0 <= res["failed"] <= res["attempted"]):
                problems.append(f"{where}: bad attempted/failed")
            for k, v in res["metrics"].items():
                if units.get(k) != v["unit"] or (k in e2e) == bool(trace):
                    problems.append(f"{where}: metric {k} {v} not declared for this mode")
                elif not isinstance(v["value"], (int, float)) or v["value"] < 0 or (
                        v["value"] == 0 and not trace):
                    # a layer that did no work in a workload reports 0
                    problems.append(f"{where}: metric {k} is not a positive number")
            declared = spec["per_layer" if trace else "end_to_end"]
            missing = [m["name"] for m in declared if m["name"] not in res["metrics"]]
            if missing:
                problems.append(f"{where}: missing metrics {missing}")
            print(f"smoke {where}: ok, {len(res['metrics'])} metrics, "
                  f"{res['attempted']} attempted, {res['failed']} failed")
    for p in problems:
        print("smoke FAIL", p)
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    ap.add_argument("--self-test", action="store_true", help="checks reject corrupted outputs")
    ap.add_argument("--profile", action="store_true", help="cProfile top 10 to stderr")
    args = ap.parse_args(argv)
    _import_program()
    if args.smoke:
        return smoke()
    if args.self_test:
        import selftest
        return selftest.main()
    if args.workload is None:
        ap.error("--workload is required")
    gc.collect()
    if args.profile:
        prof = cProfile.Profile()
        result = prof.runcall(run_workload, args.workload, args.seed, args.seconds,
                              False, args.size == "smoke")
        pstats.Stats(prof, stream=sys.stderr).sort_stats("tottime").print_stats(10)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.size == "smoke")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
