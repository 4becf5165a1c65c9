"""Host-speed calibration: fixed reference work timed alongside the ops.

The benchmark runs on a few cores of a shared host whose speed drifts
by 2-3x over minutes, and by ~10% from one second to the next, as other
tenants load it.  A :class:`Calibrator` therefore keeps a thread that
times the same fixed piece of work -- drawn from no code of the program
-- every :data:`PERIOD_S` while the ops run, on the ops' own core, and
each reported time is scaled by ``REFERENCE_S`` over the mean of the
samples taken during it.  Both the ops and the samples are timed in
thread CPU seconds, so the two threads taking turns on the core (and
the interpreter lock) lengthens neither.  A reported time reads as the
seconds the op takes on the quiet host, and a change to the program
moves the op and not the calibration, so it shows in full.

The reference work mixes what the program spends its time on, in about
the program's proportions: mostly interpreted graph searches (the ball
and tree code's Python loops), then small-array numpy gathers, sorts and
``unique`` calls (the scoring kernels), then sparse matrix-vector
products (PCG).  The mix matters: on a busy host interpreted code slowed
2.9x while sparse matvecs slowed 1.4x, and the program's ops 2.7x.
"""

from __future__ import annotations

import heapq
import os
import statistics
import threading
import time

import numpy as np
import scipy.sparse as sp

#: The sample time at which reported times read as on the quiet host:
#: the ``table1_mesh`` sparsify took 2.37 s of CPU time on a quiet
#: 2-vCPU Xeon KVM guest, and ``REFERENCE_S`` is the sample time that,
#: measured alongside it on the same host busy, maps it back to 2.37 s.
REFERENCE_S = 0.0180
#: Seconds between the starts of two samples; one sample is one kernel
#: call (~20 ms on the quiet host), so sampling takes ~8% of a core.
PERIOD_S = 0.25


def _grid(side: int):
    """Adjacency lists and the 5-point Laplacian of a side x side grid."""
    n = side * side
    ids = np.arange(n).reshape(side, side)
    u = np.concatenate([ids[:, :-1].ravel(), ids[:-1, :].ravel()])
    v = np.concatenate([ids[:, 1:].ravel(), ids[1:, :].ravel()])
    a = sp.csr_matrix((np.ones(2 * len(u)), (np.r_[u, v], np.r_[v, u])),
                      shape=(n, n))
    lap = (sp.diags(np.asarray(a.sum(axis=1)).ravel()) - a).tocsr()
    adj = [a.indices[a.indptr[i]:a.indptr[i + 1]].tolist() for i in range(n)]
    return adj, lap


class Calibrator:
    """The fixed reference work and the thread that samples it.

    Use as a context manager around the timed part of a run.  Samples
    are taken on each core of the process in turn (one core when the
    process is pinned).  Times to scale must be thread CPU seconds of
    one thread, or wall seconds of work that waits for nothing but CPU.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.adj, self.lap = _grid(120)
        n = len(self.adj)
        self.weights = [1.0 + (i * 7919 % 13) / 13.0 for i in range(n)]
        self.keys = rng.integers(0, 4 * n, 6 * n)
        self.starts = rng.integers(0, n, 100)
        self.x = rng.standard_normal(n)
        #: ``(wall start, wall end, seconds)`` of every sample taken.
        self.samples: list = []
        self._stop = threading.Event()
        self._thread = None
        self.kernel()  # first call pays for lazy imports and caches

    def kernel(self) -> float:
        """One pass of the reference work; returns a checksum."""
        adj, weights = self.adj, self.weights
        seen = {0}
        frontier = [0]
        while frontier:  # breadth-first search from node 0
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        dist = {0: 0.0}
        heap = [(0.0, 0)]
        while heap:  # Dijkstra from node 0
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v in adj[u]:
                nd = d + weights[v]
                if nd < dist.get(v, float("inf")):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        acc = 0.0
        for s in self.starts:  # small-array gathers, sorts, unique
            window = self.keys[s:s + 400]
            uniq, first = np.unique(window, return_index=True)
            acc += float(np.sort(window)[len(window) // 2]) + first.sum()
            acc += float(self.x[uniq % len(self.x)].sum())
        y = self.x
        for _ in range(20):  # sparse matvecs, PCG's inner loop
            y = self.lap @ y
            y /= np.linalg.norm(y)
        return acc + float(y[0]) + dist[len(adj) - 1] + len(seen)

    def sample(self) -> None:
        """Time one kernel call on the calling thread and record it.

        Between intervals much shorter than :data:`PERIOD_S` this beats
        the thread: a sample that overlaps a few milliseconds of work
        disturbs it (cache, interpreter lock) more than it measures."""
        started, cpu = time.perf_counter(), time.thread_time()
        self.kernel()
        self.samples.append((started, time.perf_counter(),
                             time.thread_time() - cpu))

    def _run(self) -> None:
        cores = sorted(os.sched_getaffinity(0))
        while True:
            # Moves this thread only; the ops keep the process's cores.
            os.sched_setaffinity(0, {cores[len(self.samples) % len(cores)]})
            due = time.perf_counter() + PERIOD_S
            self.sample()
            if self._stop.wait(max(0.0, due - time.perf_counter())):
                return

    def __enter__(self) -> "Calibrator":
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        while not self.samples:  # an interval needs a sample to scale by
            time.sleep(0.01)
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, start: float, end: float) -> float:
        """Factor turning a time spent between the ``perf_counter``
        times *start* and *end* into seconds on the quiet host: over the
        mean of the samples that overlap the interval, or of the last
        sample before it and the first after it when none does."""
        during = [v for a, b, v in self.samples if b > start and a < end]
        if not during:
            before = [v for a, b, v in self.samples if b <= start][-1:]
            after = [v for a, b, v in self.samples if a >= end][:1]
            during = before + after
        return REFERENCE_S / statistics.mean(during)

    def speed(self) -> float:
        """Host speed over the run relative to the quiet host (1 = same,
        0.5 = half as fast): ``REFERENCE_S`` over the median sample."""
        return REFERENCE_S / statistics.median(v for _, _, v in self.samples)
