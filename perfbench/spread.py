"""Run the benchmark over several seeds and report each metric's spread.

The spread of a metric is the distance between the first and third
quartiles of its per-run values (``statistics.quantiles(values, n=4)``)
as a share of their median; it must stay under a third of the metric's
bound in ``BENCHMARK.json``.  Run from the root of a checkout::

    python3 perfbench/spread.py --workloads grid,cluster_random,cluster_jsq_bursty \\
        --seeds 11-20 --out perfbench/results/set1.json

Each set also makes one traced run per workload (first seed).  Each
run's full output is kept in the ``--out`` file, so a later set on the
same seeds can be compared with this one (``--compare``): the second
median of every metric must not be worse than the first by more than
its bound, every seed's result digest must be identical, and so must
every per-layer count of the traced runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from spans import COUNT_METRICS  # noqa: E402


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int, plant: str = "") -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if plant:
        cmd += ["--plant", plant]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    result["exit"] = proc.returncode
    result["elapsed_s"] = time.monotonic() - start
    result["seed"] = seed
    result["log"] = lines[:-1]
    return result


def info(run: dict) -> dict:
    """The summary line printed just before the result (digest etc.)."""
    for line in reversed(run["log"]):
        if line.startswith("{") and '"digest"' in line:
            return json.loads(line)
    return {}


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (q3 - q1) / median)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median


def summarize(runs: list[dict], bench: dict) -> dict:
    out = {}
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs if r.get("metrics")]
        if len(values) < 2:
            continue
        median, rel = spread(values)
        out[m["name"]] = {
            "median": median,
            "spread": rel,
            "limit": m["bound"] / 3,
            "steady": rel < m["bound"] / 3,
            "values": values,
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", required=True, help="comma-separated")
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,7")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--compare", type=Path, help="an earlier --out file")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {"seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            r = run_once(workload, seed, bench["run_seconds"], 0)
            runs.append(r)
            m = {k: round(v["value"], 4) for k, v in r.get("metrics", {}).items()}
            print(workload, seed, r.get("correct"), r.get("failed"),
                  round(r["elapsed_s"], 1), m, flush=True)
            ok &= r.get("correct") is True and r.get("failed") == 0
        summary = summarize(runs, bench)
        traced = run_once(workload, _seeds(args.seeds)[0], bench["run_seconds"], 1)
        print(workload, "traced", traced.get("correct"), round(traced["elapsed_s"], 1),
              "overhead", traced.get("metrics", {}).get("trace.overhead_frac"), flush=True)
        ok &= traced.get("correct") is True
        report["workloads"][workload] = {"summary": summary, "runs": runs, "traced": traced}
        for name, s in summary.items():
            print(f"  {workload} {name}: median {s['median']:.6g} spread "
                  f"{s['spread']:.4f} (limit {s['limit']:.4f}) "
                  f"{'ok' if s['steady'] else 'NOT STEADY'}", flush=True)
            ok &= s["steady"]
    if args.compare:
        before = json.loads(args.compare.read_text())["workloads"]
        for workload, data in report["workloads"].items():
            if workload not in before:
                continue
            first = {r["seed"]: info(r).get("digest") for r in before[workload]["runs"]}
            same = all(first.get(r["seed"]) == info(r).get("digest") for r in data["runs"])
            counts = [
                name for name in COUNT_METRICS
                if data["traced"].get("metrics", {}).get(name)
                != before[workload]["traced"].get("metrics", {}).get(name)
            ]
            data["same_digests"] = same
            data["count_mismatches"] = counts
            print(f"  {workload}: digests per seed {'identical' if same else 'DIFFER'};"
                  f" traced counts {'identical' if not counts else 'DIFFER: ' + ', '.join(counts)}")
            ok &= same and not counts
        for m in bench["end_to_end"]:
            for workload, data in report["workloads"].items():
                if workload not in before or m["name"] not in before[workload]["summary"]:
                    continue
                first = before[workload]["summary"][m["name"]]["median"]
                second = data["summary"][m["name"]]["median"]
                worse = (first - second) / first if m["better"] == "higher" else (second - first) / first
                agree = worse <= m["bound"]
                data["summary"][m["name"]]["vs_first"] = worse
                print(f"  {workload} {m['name']}: second median worse by "
                      f"{worse:+.4f} (bound {m['bound']}) {'ok' if agree else 'DISAGREE'}")
                ok &= agree
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
