"""Driver for the compiled cluster event loop (``rfp_cluster_events``).

:func:`run_cluster_events` executes the global-order executor of
:class:`repro.cluster.sim.ClusterSimulator` inside the C kernel, which
draws every stream live on NumPy's own ``bitgen_t``
(``Generator.bit_generator.ctypes.bit_generator``):

* **Dispatch stream** — random / round-robin decisions are the
  precomputed assignment matrix (assign mode, no stream crosses).
  JSQ / power-of-two selection draws are data-dependent, so the kernel
  makes them on the dispatch generator with NumPy's ``next_double`` and
  ``random_bounded_uint64`` (the calls behind ``Generator.random`` and
  ``Generator.choice``).
* **Server streams** — each leaf's base service time is drawn on its
  server's generator by the model's compiled service program, NumPy's
  own samplers for any number of draws per request (RSC, McRouter), at
  the point the Python loop calls ``service_time``.

Every generator, of any ``BitGenerator`` type, therefore ends in the
state the interpreted loop leaves it in, and waits/services/idles are
byte-identical.  When an output buffer or the departure heap fills, the
kernel *ejects* back to Python, the driver grows it and re-enters — the
same ``while not done`` resume contract as the engine adapter.

Ineligible configurations (service models whose ``batch_base`` returns
``None`` — a ``Sum``, ``Mixture`` or distribution subclass, or no NumPy
sampler library — and unknown balancer subclasses) return ``None`` with
every stream untouched, leaving the caller on the Python reference loop.
"""

from __future__ import annotations

import numpy as np

from repro.uarch.fastpath.build import load_kernel

#: Initial capacity of the global departure heap (grown by doubling).
HEAP_CAP = 1024

#: Kernel return codes (keep in sync with kernel.c).
_DONE = 0
_GROW_OUT = 1
_GROW_HEAP = 2
_ERR_NEGATIVE = -1


def initial_capacity(num_requests: int, fanout: int, n_servers: int) -> int:
    """Per-server output capacity: expected leaf count plus ~12% slack.

    Balanced policies (JSQ, power-of-two) spread leaves almost evenly,
    so most runs never grow; a hot server just doubles its way up.
    """
    expected = num_requests * fanout // max(n_servers, 1)
    return max(64, expected + max(32, expected // 8))


def run_cluster_events(
    *,
    epochs: np.ndarray,
    assign: np.ndarray | None,
    fanout: int,
    n_servers: int,
    num_requests: int,
    warmup: int,
    service,
    rngs: list[np.random.Generator],
    dispatch_rng: np.random.Generator | None,
    balancer,
) -> tuple[np.ndarray, list[tuple]] | None:
    """Run the cluster event loop in the kernel, or ``None`` if ineligible.

    Returns ``(sojourns, per_server)`` where ``per_server`` entries are
    ``(waits, services, idles, last_departure, warmup_count)`` — the
    exact tuples ``ClusterSimulator._assemble`` consumes.  On ``None``
    every generator (dispatch and servers) is untouched.
    """
    from repro.cluster.balancers import JSQBalancer, PowerOfTwoBalancer

    if assign is not None:
        mode = 0
    elif type(balancer) is JSQBalancer:
        mode = 1
    elif type(balancer) is PowerOfTwoBalancer:
        mode = 2
    else:
        return None
    kernel = getattr(load_kernel(), "rfp_cluster_events", None)
    batch = getattr(service, "batch_base", None)
    if kernel is None or batch is None:
        return None
    # Zero-length probe: commits nothing (the batch_base contract leaves
    # the stream untouched for n == 0) but reveals eligibility and the
    # idle-penalty parameters before any stream is consumed.
    probe = batch(rngs[0], 0)
    if probe is None:
        return None
    _, penalty, has_penalty = probe
    program = service.program

    assign_arr = (
        np.ascontiguousarray(assign, dtype=np.int64)
        if assign is not None
        else None
    )
    if mode == 0:
        # The assignment matrix fixes every server's leaf count up front,
        # so the buffers are sized exactly and never grow.  The one spare
        # slot keeps a finished server's room positive: the kernel ejects
        # to grow whenever any server has no room left.
        counts = np.bincount(assign_arr.ravel(), minlength=n_servers)
        cap = int(counts.max()) + 1
    else:
        cap = initial_capacity(num_requests, fanout, n_servers)
    servers = np.array(
        [rng.bit_generator.ctypes.bit_generator.value for rng in rngs],
        dtype=np.uintp,
    )
    dispatch = (
        dispatch_rng.bit_generator.ctypes.bit_generator if mode != 0 else None
    )
    waits = np.empty((n_servers, cap))
    services = np.empty((n_servers, cap))
    idles = np.empty((n_servers, cap))
    out_cnt = np.zeros(n_servers, dtype=np.int64)
    idle_cnt = np.zeros(n_servers, dtype=np.int64)
    warmup_cnt = np.zeros(n_servers, dtype=np.int64)
    completion = np.zeros(n_servers)
    qlen = np.zeros(n_servers, dtype=np.int64)
    heap_cap = HEAP_CAP
    while heap_cap < fanout:
        heap_cap *= 2
    heap_t = np.empty(heap_cap)
    heap_s = np.empty(heap_cap, dtype=np.int64)
    sojourns = np.empty(num_requests)
    scratch_d = np.empty(n_servers)
    scratch_i = np.empty(2 * fanout, dtype=np.int64)
    ctl = np.zeros(2, dtype=np.int64)

    while True:
        rc = kernel(
            epochs.ctypes.data,
            num_requests,
            warmup,
            fanout,
            n_servers,
            mode,
            assign_arr.ctypes.data if assign_arr is not None else None,
            dispatch,
            servers.ctypes.data,
            len(program.ops),
            program.ops.ctypes.data,
            program.params.ctypes.data,
            program.init,
            1 if has_penalty else 0,
            float(penalty),
            cap,
            waits.ctypes.data,
            services.ctypes.data,
            idles.ctypes.data,
            out_cnt.ctypes.data,
            idle_cnt.ctypes.data,
            warmup_cnt.ctypes.data,
            completion.ctypes.data,
            qlen.ctypes.data,
            heap_t.ctypes.data,
            heap_s.ctypes.data,
            heap_cap,
            sojourns.ctypes.data,
            scratch_d.ctypes.data,
            scratch_i.ctypes.data,
            ctl.ctypes.data,
        )
        if rc == _DONE:
            break
        if rc == _ERR_NEGATIVE:
            raise ValueError("service model produced a negative time")
        if rc == _GROW_OUT:
            new_cap = cap * 2
            grown = []
            for old in (waits, services, idles):
                fresh = np.empty((n_servers, new_cap))
                fresh[:, :cap] = old
                grown.append(fresh)
            waits, services, idles = grown
            cap = new_cap
        elif rc == _GROW_HEAP:
            new_heap = heap_cap * 2
            ht = np.empty(new_heap)
            hs = np.empty(new_heap, dtype=np.int64)
            ht[:heap_cap] = heap_t
            hs[:heap_cap] = heap_s
            heap_t, heap_s, heap_cap = ht, hs, new_heap
        else:  # pragma: no cover - kernel/driver contract violation
            raise RuntimeError(f"unexpected cluster kernel return code {rc}")

    per_server = [
        (
            waits[i, : int(out_cnt[i])],
            services[i, : int(out_cnt[i])],
            idles[i, : int(idle_cnt[i])],
            float(completion[i]),
            int(warmup_cnt[i]),
        )
        for i in range(n_servers)
    ]
    return sojourns, per_server
