"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py run --seeds 1-10 [--workloads a,b] [--trace 0|1] [--out FILE]
    python3 bench/spread.py compare FIRST SECOND

``run`` calls ``bench/run.py`` once per workload and seed, one process at
a time, with the run length from ``BENCHMARK.json``, and prints per metric
the median and the quartile spread (Q3 - Q1) / median, as
``statistics.quantiles(values, n=4)`` gives the quartiles; spreads above
a third of the metric's bound are flagged.
``--out`` merges the set into FILE under ``trace0`` or ``trace1``, with
its summary.  ``compare`` checks two saved untraced sets: equal input
digests per seed, and no end-to-end median worse in the second set by
more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"seed": seed, "detail": detail, "result": result}


def summarize(runs: list[dict]) -> dict:
    names = runs[0]["result"]["metrics"]
    out = {}
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "median": median,
            "spread": (q3 - q1) / median if median else 0.0,
            "unit": runs[0]["result"]["metrics"][name]["unit"],
        }
    return out


def cmd_run(args) -> int:
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in SPEC["workloads"]]
    saved = {}
    for workload in workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            runs.append(run_once(workload, seed, args.trace))
            result = runs[-1]["result"]
            print(f"{workload} seed {seed}: correct={result['correct']}"
                  f" attempted={result['attempted']} failed={result['failed']}", flush=True)
        saved[workload] = runs
        print(f"-- {workload}")
        for name, s in summarize(runs).items():
            bound = BOUNDS.get(name, {}).get("bound")
            flag = " !" if bound is not None and name != "setup_s" and s["spread"] > bound / 3 else ""
            print(f"  {name:32s} {s['median']:14.4f} {s['unit']:6s} spread {s['spread']:.4f}"
                  f"{'' if bound is None else f'  bound {bound}'}{flag}", flush=True)
    if args.out:
        out = Path(args.out)
        doc = json.loads(out.read_text()) if out.exists() else {}
        doc[f"trace{args.trace}"] = {
            "run_seconds": SPEC["run_seconds"],
            "environment": saved[workloads[0]][0]["detail"]["environment"],
            "summary": {w: summarize(runs) for w, runs in saved.items()},
            "runs": {
                w: [{"seed": r["seed"], "input_digest": r["detail"]["input_digest"],
                     "failures_by_cause": r["detail"]["failures_by_cause"], **r["result"]}
                    for r in runs]
                for w, runs in saved.items()
            },
        }
        out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


def cmd_compare(args) -> int:
    first = json.loads(Path(args.first).read_text())["trace0"]
    second = json.loads(Path(args.second).read_text())["trace0"]
    ok = True
    for workload, runs in first["runs"].items():
        digests = {r["seed"]: r["input_digest"] for r in runs}
        for r in second["runs"][workload]:
            if digests.get(r["seed"], r["input_digest"]) != r["input_digest"]:
                print(f"{workload} seed {r['seed']}: input digest differs")
                ok = False
        a, b = first["summary"][workload], second["summary"][workload]
        for name, spec in BOUNDS.items():
            if name not in a:
                continue
            m1, m2 = a[name]["median"], b[name]["median"]
            worse = (m2 - m1) / m1 if spec["better"] == "lower" else (m1 - m2) / m1
            status = "ok" if worse <= spec["bound"] else "WORSE"
            ok &= status == "ok"
            print(f"{workload:20s} {name:14s} {m1:12.4f} {m2:12.4f} worse by {worse:+.4f}"
                  f" (bound {spec['bound']}) {status}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--seeds", default="1-10")
    p_run.add_argument("--workloads")
    p_run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_run.add_argument("--out")
    p_run.set_defaults(func=cmd_run)
    p_cmp = sub.add_parser("compare")
    p_cmp.add_argument("first")
    p_cmp.add_argument("second")
    p_cmp.set_defaults(func=cmd_compare)
    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
