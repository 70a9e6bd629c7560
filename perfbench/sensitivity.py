"""Planted-slowdown check: does the benchmark see a regression it should?

For each workload, fixed work is added (from the benchmark's own files,
``run.py --plant``) to every call of one public function:

======================  ==========================  ======================
workload                planted call                layer self time
======================  ==========================  ======================
grid                    ``MG1Simulator.run``        ``queueing.mg1_*_s``
cluster_random          ``Balancer.assignments``    ``cluster.balancers.assign_s``
cluster_jsq_bursty      ``MMPPArrivals.epochs``     ``cluster.arrivals.epochs_s``
======================  ==========================  ======================

The planted work per call is a fixed interpreted loop
(``reference.spin``), sized so that it is a chosen share of the
workload's pass at the nominal host speed.  Planted runs sit between
two unplanted runs of the same seed, so slow drift of the host cancels.
The check reports, per plant and level, how far the workload's
end-to-end throughput moved and whether that exceeds the metric's bound
(a gate would reject it).  The largest plant is then traced on every workload and compared with the
unplanted traced run of the same seed from a ``spread.py`` set, to show
which layer's self time takes the planted time, and that the other
workloads never reach the planted call.  Run from the root of a
checkout::

    python3 perfbench/sensitivity.py --seed 11 \\
        --base perfbench/results/set1.json \\
        --out perfbench/results/sensitivity.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from spread import run_once  # noqa: E402

#: workload -> (plant target, planted calls per pass: a number, or the
#: count metric of the unplanted traced run that holds it, layer metrics
#: that hold the planted time, throughput metric).
PLANTS = {
    "grid": ("mg1", "queueing.mg1_runs",
             ("queueing.mg1_scalar_s", "queueing.mg1_compiled_s"), "cells_per_s"),
    "cluster_random": ("assignments", 3, ("cluster.balancers.assign_s",), "requests_per_s"),
    "cluster_jsq_bursty": ("mmpp_epochs", 3, ("cluster.arrivals.epochs_s",), "requests_per_s"),
}


def _nominal_pass_s(run: dict) -> float:
    """The run's pass time at the nominal host speed."""
    for line in run["log"]:
        if line.startswith("{") and '"nominal_pass_s"' in line:
            return json.loads(line)["nominal_pass_s"]
    raise ValueError("run printed no nominal_pass_s")


def _value(run: dict, metric: str) -> float:
    return run["metrics"][metric]["value"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--levels", default="0.1,0.3",
        help="planted work as a share of the slowed pass (comma-separated); "
        "the largest is also traced on every workload",
    )
    parser.add_argument(
        "--base", type=Path, required=True,
        help="a spread.py --out file whose traced runs used --seed",
    )
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    seed = args.seed
    levels = sorted(float(x) for x in args.levels.split(","))
    base_traces = {
        w: data["traced"] for w, data in json.loads(args.base.read_text())["workloads"].items()
    }
    report = {"seed": seed, "seconds": seconds, "plants": {}}

    for target_wl, (target, calls, layer_metrics, metric) in PLANTS.items():
        # Unplanted, each plant, unplanted again: the base is the mean of
        # the runs on either side, so slow drift of the host cancels.
        if isinstance(calls, str):
            calls = int(_value(base_traces[target_wl], calls))
        runs = [run_once(target_wl, seed, seconds, 0)]
        wall = _nominal_pass_s(runs[0])
        plants = [f"{target}:{x * wall / (1 - x) / calls:.6f}" for x in levels]
        runs += [run_once(target_wl, seed, seconds, 0, p) for p in plants]
        runs.append(run_once(target_wl, seed, seconds, 0))
        base = (_value(runs[0], metric) + _value(runs[-1], metric)) / 2
        end_to_end = []
        for level, plant, r in zip(levels, plants, runs[1:-1]):
            drop = (base - _value(r, metric)) / base
            end_to_end.append({
                "level": level, "plant": plant, "metric": metric,
                "planted": _value(r, metric), "drop": drop,
                "caught": drop > bounds[metric],
            })
            print(f"{target_wl} {plant}: {metric} drop {drop:+.4f} "
                  f"(planted share {level}, bound {bounds[metric]})", flush=True)

        # The largest plant, traced on every workload, against the
        # unplanted traced run of the same seed: where does the time go?
        planted_s = float(plants[-1].split(":")[1]) * calls
        traced = {}
        for w in PLANTS:
            t = run_once(w, seed, seconds, 1, plants[-1])
            deltas = {
                k: _value(t, k) - _value(base_traces[w], k)
                for k in t["metrics"] if k.endswith("_s")
            }
            traced[w] = {
                "correct": t.get("correct"),
                "planted_layer_delta_s": sum(deltas[k] for k in layer_metrics),
                "self_time_deltas_s": deltas,
            }
            print(f"  traced on {w}: planted layer {sum(deltas[k] for k in layer_metrics):+.4f} s"
                  f" of {planted_s:.4f} s planted per pass", flush=True)
        report["plants"][target_wl] = {
            "target": target,
            "nominal_pass_s": wall,
            "base": base,
            "base_runs": [_value(runs[0], metric), _value(runs[-1], metric)],
            "end_to_end": end_to_end,
            "planted_s_per_pass": planted_s,
            "traced": traced,
            "correct": all(r.get("correct") for r in runs),
        }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
