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
byte-identical.  Only JSQ and power-of-two read queue lengths, so only
they keep them, in one FCFS departure ring per server; with a
``decisions`` buffer they also report each request's chosen servers
(in assign mode the decisions are the assignment matrix).  When an
output buffer or a departure ring fills, the kernel *ejects* back to
Python, the driver grows it and re-enters — the same ``while not
done`` resume contract as the engine adapter.

Ineligible configurations (service models whose ``batch_base`` returns
``None`` — a ``Sum``, ``Mixture`` or distribution subclass, or no NumPy
sampler library — and unknown balancer subclasses) return ``None`` with
every stream untouched, leaving the caller on the Python reference loop.
"""

from __future__ import annotations

import numpy as np

from repro.uarch.fastpath.build import load_kernel

#: Initial per-server departure-ring capacity, a power of two (grown by
#: doubling).  JSQ and power-of-two keep queues short.
RING_CAP = 64

#: Kernel return codes (keep in sync with kernel.c).
_DONE = 0
_GROW_OUT = 1
_GROW_RING = 2
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
    decisions: np.ndarray | None = None,
) -> tuple[np.ndarray, list[tuple]] | None:
    """Run the cluster event loop in the kernel, or ``None`` if ineligible.

    Returns ``(sojourns, per_server)`` where ``per_server`` entries are
    ``(waits, services, idles, last_departure, warmup_count)`` — the
    exact tuples ``ClusterSimulator._assemble`` consumes.  A JSQ or
    power-of-two run fills ``decisions`` (C-contiguous int64, shape
    ``(num_requests, fanout)``) with each request's chosen servers.  On
    ``None`` every generator (dispatch and servers) is untouched.
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
    head = np.zeros(n_servers, dtype=np.int64)
    ring_cap = RING_CAP
    ring = np.empty((n_servers, ring_cap))
    sojourns = np.empty(num_requests)
    scratch_d = np.empty(n_servers)
    scratch_i = np.empty(2 * fanout, dtype=np.int64)
    ctl = np.zeros(1, dtype=np.int64)

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
            ring.ctypes.data,
            head.ctypes.data,
            ring_cap,
            decisions.ctypes.data if decisions is not None else None,
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
        elif rc == _GROW_RING:
            # Unroll every ring from its head into the lower half.
            order = (head[:, None] + np.arange(ring_cap)) & (ring_cap - 1)
            grown = np.empty((n_servers, 2 * ring_cap))
            grown[:, :ring_cap] = np.take_along_axis(ring, order, axis=1)
            ring, ring_cap = grown, 2 * ring_cap
            head[:] = 0
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
