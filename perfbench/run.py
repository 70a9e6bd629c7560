"""Repeated end-to-end benchmark of the Duplexity reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload grid --seed 1 --seconds 25 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

``grid``
    All 7 designs x {RSC, WordStem} at load 0.5 at FAST fidelity through
    ``repro.harness.experiment.run_grid`` (14 cells).
``cluster_random`` / ``cluster_jsq_bursty``
    duplexity/WordStem on 16 servers, fanout 8, 250k mid-tier requests per
    load at loads {0.3, 0.5, 0.7} through
    ``repro.cluster.experiment.run_cluster_cell``: random balancer with
    Poisson arrivals, or JSQ with bursty MMPP arrivals.

One process (``worker.py``) sets the workload up and runs a fixed number
of passes serially; ``--seconds`` sets the number through a typical pass
time, so it does not depend on how fast the program is.  Before each
pass every result cache is emptied and the disk cache gets a fresh root,
so every pass does the same work.  The kernel and every cache the
program writes live under ``.perfbench/`` in the checkout.

Each cell, and each of nine set-up-only processes started between
passes, is timed together with a fixed reference workload
(``reference.py``), and its time is scaled to the reference's nominal
speed, so that other tenants slowing the whole host down cancel out.

With ``--trace 0`` the last line reports the end-to-end metrics: cells
and simulated requests per second over the sum of each cell's median
scaled time, the median scaled set-up time, and the peak RSS after the
first pass.  With ``--trace 1`` it reports the per-layer metrics of
traced passes, interleaved with untraced passes that give
``trace.overhead_frac``.

An operation is one grid or cluster cell.  It fails if it raises, has an
invariant violation, or its result digest differs from the same cell's
digest in the other passes of the run.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import shutil
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
from spans import COUNT_METRICS, TIME_METRICS  # noqa: E402
from worker import MIN_TRACED, WORKLOADS, operations  # noqa: E402

CHILD_TIMEOUT_S = 170


def _env() -> dict[str, str]:
    """The child environment: defaults for every program switch, and every
    directory the program writes pointed inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_FASTPATH_CACHE"] = str(STATE / "fastpath")
    env["XDG_CACHE_HOME"] = str(STATE / "xdg")
    env["TMPDIR"] = str(STATE / "tmp")
    return env


class Children:
    """Starts ``worker.py`` processes one at a time and collects results."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.env = _env()
        self.serial = 0
        for sub in ("fastpath", "xdg", "tmp", "cache", "out", "traces"):
            (STATE / sub).mkdir(parents=True, exist_ok=True)

    def run(self, mode: str, *extra: str) -> dict:
        self.serial += 1
        tag = f"{os.getpid()}-{self.serial}"
        out = STATE / "out" / f"{tag}.json"
        cache = STATE / "cache" / tag
        env = dict(self.env, REPRO_CACHE_DIR=str(cache))
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--mode", mode, "--workload", self.workload,
            "--seed", str(self.seed), "--out", str(out),
            "--cache-root", str(cache), "--spans-dir", str(STATE / "traces"),
            *extra,
        ]
        try:
            proc = subprocess.run(
                cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
            if proc.returncode != 0:
                return {"crashed": proc.stderr.strip()[-2000:] or "no output"}
            result = json.loads(out.read_text())
        except subprocess.TimeoutExpired:
            return {"crashed": f"timed out after {CHILD_TIMEOUT_S}s"}
        finally:
            out.unlink(missing_ok=True)
            shutil.rmtree(cache, ignore_errors=True)
        return result


def _environment(available: bool, seed: int) -> dict:
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        cc = subprocess.run(
            ["cc", "--version"], capture_output=True, text=True, timeout=30
        ).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        cc = "unavailable"
    import numpy

    return {
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cc": cc,
        "revision": _revision(),
        "seed": seed,
        "fastpath_available": available,
    }


def _revision() -> str:
    """The git revision when the checkout is a repository, and always the
    sha256 of the program's sources (``src/repro``)."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*")):
        if path.suffix in (".py", ".c"):
            h.update(path.relative_to(ROOT).as_posix().encode())
            h.update(path.read_bytes())
    rev = f"src-sha256:{h.hexdigest()[:16]}"
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            ).stdout.strip()
            rev = f"git:{git} {rev}"
        except (OSError, subprocess.SubprocessError):
            pass
    return rev


def _check_ops(
    passes: list[dict], expected: int
) -> tuple[int, int, list[str], str]:
    """(attempted, failed, problems, run digest) over every pass."""
    digests = collections.defaultdict(collections.Counter)
    for p in passes:
        for op in p["ops"]:
            if op["digest"]:
                digests[op["key"]][op["digest"]] += 1
    reference = {k: c.most_common(1)[0][0] for k, c in digests.items()}
    attempted = failed = 0
    problems = []
    for i, p in enumerate(passes):
        if len(p["ops"]) != expected:
            problems.append(f"pass {i}: {len(p['ops'])} cells, expected {expected}")
            failed += max(expected - len(p["ops"]), 0)
            attempted += max(expected - len(p["ops"]), 0)
        for op in p["ops"]:
            attempted += 1
            why = op["error"] or "; ".join(op["violations"])
            if not why and op["digest"] != reference.get(op["key"]):
                why = f"digest {op['digest'][:12]} != {reference[op['key']][:12]}"
            if why:
                failed += 1
                problems.append(f"pass {i} {op['key']}: {why}")
    run = hashlib.sha256(
        "".join(f"{k}={reference[k]}\n" for k in sorted(reference)).encode()
    ).hexdigest()
    return attempted, failed, problems, run


def _pass_seconds(passes: list[dict], nominal_s: float) -> float:
    """One pass's time at the nominal host speed: the sum over cells of
    each cell's median time over ``passes``.

    Every pass repeats the same cells on the same seed, and the number
    of passes does not depend on the program's speed.  Each cell's time
    is scaled by the reference timed around it, whose time at the
    nominal host speed is ``nominal_s`` (``reference.py``), so that other
    tenants of the host, who slow everything down together, cancel out.
    """
    cells: dict[str, list[float]] = collections.defaultdict(list)
    for p in passes:
        for op in p["ops"]:
            if op["wall_s"] > 0:
                cells[op["key"]].append(op["wall_s"] * nominal_s / op["ref_s"])
    return sum(statistics.median(times) for times in cells.values())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--plant", default="",
        help="sensitivity check: TARGET:SECONDS of fixed work (at the nominal "
        "host speed) added to every call of one public function (mg1, "
        "assignments or mmpp_epochs)",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    children = Children(args.workload, args.seed)
    build = children.run("build")
    if "crashed" in build:
        print(f"error: set-up failed: {build['crashed']}", file=sys.stderr)
        return 3
    env = _environment(build["fastpath_available"], args.seed)
    print(json.dumps({"environment": env, "build_s": build["build_s"]}))

    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.plant:
        extra += ["--plant", args.plant]
    run = children.run("run", *extra)
    passes = run.get("passes", [])
    for i, p in enumerate(passes):
        print(json.dumps({
            "pass": i, "kind": p["kind"], "wall_s": p["wall_s"],
            "requests": p["requests"],
            "cells_s": [round(op["wall_s"], 4) for op in p["ops"]],
            "reference_s": [round(op["ref_s"], 4) for op in p["ops"]],
        }))
    nominal_s = run.get("reference_nominal_s", 0.0)
    setup = [wall * nominal_s / ref for wall, ref in run.get("setup_samples", [])]

    attempted, failed, problems, run_digest = _check_ops(
        passes, operations(args.workload)
    )
    if "crashed" in run:
        # The process died: the cells of the pass it was in never finished.
        attempted += operations(args.workload)
        failed += operations(args.workload)
        problems.append(f"run crashed: {run['crashed']}")
    plain = [p for p in passes if p["kind"] == "plain"]
    traced = [p for p in passes if p["kind"] == "traced"]
    correct = failed == 0 and bool(plain) and "crashed" not in run

    def median(values) -> float:
        values = list(values)
        return statistics.median(values) if values else 0.0

    metrics: dict[str, dict] = {}
    if args.trace:
        correct &= len(traced) >= MIN_TRACED
        layers = [p["layers"] for p in traced]
        for name in COUNT_METRICS:
            values = sorted({layer[name] for layer in layers})
            if len(values) > 1:
                correct = False
                problems.append(f"{name} differs between traced passes: {values}")
        for name, (unit, _) in {**COUNT_METRICS, **TIME_METRICS}.items():
            metrics[name] = {
                "value": median(layer.get(name, 0.0) for layer in layers),
                "unit": unit,
            }
        if traced and plain:
            metrics["trace.overhead_frac"]["value"] = (
                _pass_seconds(traced, nominal_s) / _pass_seconds(plain, nominal_s) - 1.0
            )
    else:
        seconds = _pass_seconds(plain, nominal_s)
        cells = operations(args.workload)
        requests = median(p["requests"] for p in plain)
        print(json.dumps({
            "nominal_pass_s": seconds,
            "host_pass_s": median(p["wall_s"] for p in plain),
            "host_setup_s": median(wall for wall, _ in run.get("setup_samples", [])),
        }))
        metrics = {
            "cells_per_s": {"value": cells / seconds if seconds else 0.0, "unit": "1/s"},
            "requests_per_s": {
                "value": requests / seconds if seconds else 0.0, "unit": "1/s"
            },
            "setup_s": {"value": median(setup), "unit": "s"},
            "peak_rss_mb": {"value": run.get("peak_rss_mb", 0.0), "unit": "MB"},
        }

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "plant": args.plant,
        "passes": len(passes), "setup_samples": [round(s, 4) for s in setup],
        "digest": run_digest, "attempted": attempted, "failed": failed,
    }))
    for line in problems[:20]:
        print(f"problem: {line}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
