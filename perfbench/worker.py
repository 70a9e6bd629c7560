"""The benchmark's measuring process: set up, then run passes.

``run.py`` starts this script; the result goes to the JSON file named by
``--out``.  Modes:

``build``
    Import every module the workloads use (writing their bytecode) and
    build or load the fastpath kernel.  Runs before anything is timed.
``setup``
    Set up the workload and exit; ``ready_wall`` marks the end of set-up.
``run``
    Set up, then run a fixed number of passes of the workload, set by
    ``--seconds`` through a typical pass time (``passes_for``), and
    start set-up-only processes between passes for ``setup_s``.  Before
    each pass every result cache is emptied and the disk cache gets a
    fresh root, so every pass does the same work.  Each grid or cluster
    cell runs under ``validate.collecting()`` and is timed together with
    the reference workload around it (``reference.py``); so is each
    set-up process.  ``--trace 1`` traces passes (interleaved with
    untraced ones) and ``--plant`` adds fixed work to one public call.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import spans
from reference import Reference

#: The grid: every design x these microservices at load 0.5, at FAST.
#: RSC draws more than one random value per request (scalar
#: ``service_time`` sampling); WordStem draws one (compiled Lindley path).
GRID_DESIGNS = (
    "baseline",
    "smt",
    "smt_plus",
    "morphcore",
    "morphcore_plus",
    "duplexity_replication",
    "duplexity",
)
GRID_SERVICES = ("rsc", "wordstem")
GRID_LOADS = (0.5,)

#: Cluster topology and length: duplexity/WordStem, 16 servers, fanout 8,
#: 250k mid-tier requests (2M leaves) per load with 12.5k warmup.
CLUSTER_DESIGN = "duplexity"
CLUSTER_SERVICE = "wordstem"
CLUSTER_LOADS = (0.3, 0.5, 0.7)
CLUSTER_REQUESTS = 250_000
CLUSTER_WARMUP = 12_500
CLUSTER_SHAPE = {
    "cluster_random": {"balancer": "random", "arrivals": "poisson"},
    "cluster_jsq_bursty": {"balancer": "jsq", "arrivals": "mmpp"},
}

WORKLOADS = ("grid", *CLUSTER_SHAPE)

#: Reference kernels timed around each cell (``reference.py``), chosen as
#: the mixes whose slowdowns tracked each workload's best on a shared
#: host: the grid is interpreted Python; the cluster workloads run
#: interpreted glue and compiled loops between NumPy steps over arrays
#: larger than the caches.
REFERENCE_KERNELS = {
    "grid": ("loop", "objects"),
    "cluster_random": ("loop", "sort"),
    "cluster_jsq_bursty": ("loop", "sort"),
}

#: Typical host seconds per pass (shared 2-vCPU Xeon VM), which turn
#: ``--seconds`` into a pass count.  The count depends only on
#: ``--seconds``, never on how fast the passes run, so two versions of the
#: program are measured over the same number of repeats of each cell.
PASS_S = {"grid": 4.0, "cluster_random": 1.25, "cluster_jsq_bursty": 1.9}
#: Passes a run makes at least: each cell's median needs a few repeats,
#: and a traced run (untraced, traced, traced, untraced, ...) needs two
#: of each kind.
MIN_PASSES = 4
#: Traced passes a traced run makes at least (their counts must agree).
MIN_TRACED = 2
#: Set-up samples per untraced run: set-up-only processes started after
#: passes spread over the run.
SETUP_SAMPLES = 9


def passes_for(workload: str, seconds: float) -> int:
    """Passes a run of ``workload`` makes for ``--seconds``."""
    return max(MIN_PASSES, round(seconds / PASS_S[workload]))


def operations(workload: str) -> int:
    """Cells one pass of ``workload`` evaluates."""
    if workload == "grid":
        return len(GRID_DESIGNS) * len(GRID_SERVICES) * len(GRID_LOADS)
    return len(CLUSTER_LOADS)


def _fidelity(seed: int):
    from repro.harness.fidelity import FAST

    return dataclasses.replace(FAST, seed=seed)


def _service(name: str):
    from repro.workloads import microservices

    return getattr(microservices, name)()


def _cluster_config(workload: str, seed: int):
    from repro.cluster.experiment import ClusterConfig

    return ClusterConfig(
        n_servers=16,
        fanout=8,
        num_requests=CLUSTER_REQUESTS,
        warmup=CLUSTER_WARMUP,
        seed=seed,
        **CLUSTER_SHAPE[workload],
    )


def digest(result) -> str:
    """sha256 over the exact ``repr`` of every field of a result."""
    text = "|".join(
        f"{f.name}={getattr(result, f.name)!r}"
        for f in dataclasses.fields(result)
    )
    return hashlib.sha256(text.encode()).hexdigest()


def setup(workload: str, seed: int) -> bool:
    """Everything before the first timed call; returns kernel availability."""
    import repro.cluster.experiment  # noqa: F401
    import repro.harness.experiment  # noqa: F401
    from repro.uarch.fastpath.build import load_kernel

    available = load_kernel() is not None
    if workload != "grid":
        from repro.harness.measure import measure

        fidelity = _fidelity(seed)
        service = _service(CLUSTER_SERVICE)
        measure(CLUSTER_DESIGN, service, fidelity)
        measure("baseline", service, fidelity)
    return available


# ----------------------------------------------------------------------
# One pass; each grid or cluster cell is one operation
# ----------------------------------------------------------------------


def _op(
    key: str,
    result=None,
    wall_s: float = 0.0,
    ref_s: float = 0.0,
    error: str | None = None,
) -> dict:
    return {
        "key": key,
        "digest": digest(result) if result is not None else None,
        "wall_s": wall_s,
        "ref_s": ref_s,
        "violations": [],
        "error": error,
    }


def _attribute(ops: list[dict], violations) -> None:
    """Charge each violation to the cells its subject names, or to every
    cell when the subject names none (a queue run, the whole grid)."""
    for v in violations:
        text = f"{v.invariant}: {v.subject}: {v.message}"
        named = [op for op in ops if op["key"].split("@")[0] in v.subject]
        for op in named or ops:
            op["violations"].append(text)


def run_grid_pass(seed: int, ref: Reference) -> list[dict]:
    from repro import validate
    from repro.harness import experiment

    services = [_service(name) for name in GRID_SERVICES]
    keys = [
        f"{d}/{s.name}@{load:g}"
        for s in services
        for d in GRID_DESIGNS
        for load in GRID_LOADS
    ]
    # run_grid looks run_cell up on each cell, so this wrapper times every
    # cell against the reference.
    times: list[tuple[float, float]] = []
    run_cell = experiment.run_cell

    def timed_cell(*args, **kwargs):
        result, wall_s, ref_s = ref.around(run_cell, *args, **kwargs)
        times.append((wall_s, ref_s))
        return result

    with validate.collecting() as found:
        try:
            with spans.patched([(experiment, "run_cell", timed_cell)]):
                cells = experiment.run_grid(
                    designs=list(GRID_DESIGNS),
                    workloads=services,
                    loads=GRID_LOADS,
                    fidelity=_fidelity(seed),
                    workers=1,
                )
        except Exception as exc:  # every cell of the failed sweep fails
            return [_op(key, error=repr(exc)) for key in keys]
    ops = []
    for key, cell, (wall_s, ref_s) in zip(keys, cells, times):
        got = f"{cell.design_name}/{cell.workload_name}@{cell.load:g}"
        ops.append(
            _op(key, cell, wall_s, ref_s)
            if got == key
            else _op(key, error=f"got {got}")
        )
    ops += [_op(key, error="missing") for key in keys[len(ops):]]
    _attribute(ops, found)
    return ops


def run_cluster_pass(workload: str, seed: int, ref: Reference) -> list[dict]:
    from repro import validate
    from repro.cluster.experiment import run_cluster_cell

    config = _cluster_config(workload, seed)
    fidelity = _fidelity(seed)
    service = _service(CLUSTER_SERVICE)
    ops = []
    for load in CLUSTER_LOADS:
        key = f"{CLUSTER_DESIGN}/{service.name}@{load:g}"
        with validate.collecting() as found:
            try:
                cell, wall_s, ref_s = ref.around(
                    run_cluster_cell, CLUSTER_DESIGN, service, load, config, fidelity
                )
            except Exception as exc:
                ops.append(_op(key, error=repr(exc)))
                continue
        op = _op(key, cell, wall_s, ref_s)
        shape = (cell.num_requests, cell.n_servers, cell.fanout,
                 cell.balancer, cell.arrivals)
        want = (CLUSTER_REQUESTS, config.n_servers, config.fanout,
                config.balancer, config.arrivals)
        if shape != want:
            op["error"] = f"cell shape {shape} != {want}"
        _attribute([op], found)
        ops.append(op)
    return ops


def _fresh_caches(workload: str, root: Path) -> None:
    """Empty every result cache a pass could hit: the in-memory L1 caches
    and, through a new root, the disk cache.  Cluster passes keep the two
    core measurements made in set-up."""
    from importlib import import_module

    from repro.cluster.experiment import clear_cluster_cache
    from repro.harness import cache as disk_cache
    from repro.harness.experiment import clear_tail_cache

    if workload == "grid":
        import_module("repro.harness.measure").clear_cache()
    clear_tail_cache()
    clear_cluster_cache()
    disk_cache.configure(root=root)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_pass(args, kind: str, index: int, plant, ref: Reference) -> dict:
    _fresh_caches(args.workload, args.cache_root / f"pass-{index}")
    tracer = spans.Tracer() if kind == "traced" else None
    requests = spans.Requests()
    with spans.instrument(requests, tracer, plant):
        root = tracer.begin("pass") if tracer else None
        start = time.perf_counter()
        if args.workload == "grid":
            ops = run_grid_pass(args.seed, ref)
        else:
            ops = run_cluster_pass(args.workload, args.seed, ref)
        wall_s = time.perf_counter() - start
        if tracer:
            tracer.end(root)
    out = {"kind": kind, "wall_s": wall_s, "requests": requests.n, "ops": ops}
    if tracer:
        out["layers"] = spans.metrics(tracer)
        tracer.write(args.spans_dir / f"{args.workload}-s{args.seed}-p{index}.json")
    return out


def next_kind(kinds: list[str], trace: bool) -> str:
    """Traced runs interleave one untraced pass (for the overhead) per two
    traced passes, starting with an untraced one."""
    if not trace:
        return "plain"
    return "traced" if kinds.count("traced") < 2 * kinds.count("plain") else "plain"


def setup_schedule(passes: int, samples: int) -> list[int]:
    """How many set-up-only processes to start after each pass, so the
    ``samples`` of them are spread over the run."""
    after = [0] * passes
    for k in range(samples):
        after[k * passes // samples] += 1
    return after


def setup_sample(args, index: int, ref: Reference) -> tuple[float, float]:
    """Start a set-up-only process with a fresh disk-cache root; return
    the time from its start to the end of its set-up, and the reference
    time around it."""
    cache = args.cache_root / f"setup-{index}"
    cache.mkdir(parents=True, exist_ok=True)
    out = cache / "ready.json"
    cmd = [
        sys.executable, __file__, "--mode", "setup", "--workload", args.workload,
        "--seed", str(args.seed), "--out", str(out),
    ]
    env = dict(os.environ, REPRO_CACHE_DIR=str(cache))
    before = ref.measure()
    spawn_wall = time.time()
    subprocess.run(cmd, env=env, check=True, timeout=120)
    ready_wall = json.loads(out.read_text())["ready_wall"]
    return ready_wall - spawn_wall, (before + ref.measure()) / 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("build", "setup", "run"), required=True)
    parser.add_argument("--workload", choices=WORKLOADS, default="grid")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cache-root", type=Path)
    parser.add_argument("--spans-dir", type=Path)
    parser.add_argument(
        "--plant", default="",
        help="TARGET:SECONDS of planted work per call (TARGET: mg1, assignments, mmpp_epochs)",
    )
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    out: dict = {}
    if args.mode == "build":
        start = time.perf_counter()
        out["fastpath_available"] = setup("grid", args.seed)
        out["build_s"] = time.perf_counter() - start
    else:
        out["fastpath_available"] = setup(args.workload, args.seed)
        out["ready_wall"] = time.time()
    if args.mode == "run":
        plant = None
        if args.plant:
            target, seconds = args.plant.split(":")
            plant = (target, float(seconds))
        trace = bool(args.trace)
        n = passes_for(args.workload, args.seconds)
        samples = setup_schedule(n, 0 if trace else SETUP_SAMPLES)
        ref = Reference(REFERENCE_KERNELS[args.workload])
        out["reference_nominal_s"] = ref.nominal_s
        passes: list[dict] = []
        kinds: list[str] = []
        out["setup_samples"] = []
        for i in range(n):
            kinds.append(next_kind(kinds, trace))
            passes.append(run_pass(args, kinds[-1], i, plant, ref))
            if i == 0:
                # Set-up plus one pass from cold caches: what a user's run
                # holds.  Later passes only add allocator fragmentation.
                out["peak_rss_mb"] = _peak_rss_mb()
            for _ in range(samples[i]):
                out["setup_samples"].append(
                    setup_sample(args, len(out["setup_samples"]), ref)
                )
        out["passes"] = passes
    else:
        out["peak_rss_mb"] = _peak_rss_mb()
    args.out.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
