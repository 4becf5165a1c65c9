"""The ``service_mixed`` workload: a closed loop against ``repro serve``.

One process generates the load with two client threads (the machine's
core count): a reader that submits small ``proposed`` jobs -- rotating
in a fixed order over two uploaded graphs and two fractions, so sessions
get reused -- and a writer that PATCHes batches of new local edges into
an evolving-graph session, up to :data:`PATCHES_PER_JOB` batches for
each job the reader submits.  Both loops are closed: a client sends its
next request only after the last one completed.  The uploaded graphs
are fixed instances; the seed draws the writer's edges, so it varies
the traffic and not the requests.
Latencies come from each job's ``created_at``/``finished_at`` and each
PATCH's round trip, so the client's 50 ms poll interval does not
quantize them.  The daemon runs in a subprocess started through
:mod:`serve` with 2 thread workers on a fresh cache directory inside the
checkout.

The end-to-end times are wall seconds scaled to the quiet host's speed
by the calibration samples taken during them (see :mod:`calibrate`): the
load process samples every core in turn, as the daemon's threads run on
every core, and the samples are timed in thread CPU seconds, so the
daemon taking the core meanwhile does not lengthen them.
"""

from __future__ import annotations

import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from workloads import Context, Outcome, core_layers

from repro import RunRecord, SparsifierSession
from repro.graph import make_case, read_graph_mtx, write_graph_mtx
from repro.service import ServiceClient

READ_CASES = ("ecology2", "tmt_sym")
READ_FRACTIONS = (0.05, 0.10)
WRITER_CASE = "ecology2"
PATCH_EDGES = 4
#: Inserted edges weigh this share of the graph's median weight: light
#: local couplings, so the drift monitor rarely forces a full rebuild.
PATCH_WEIGHT = 0.001
#: PATCH batches the writer may send per job the reader submits.  Tying
#: the write rate to the read rate keeps the mix the same on a slow or a
#: fast host; a fixed pause between PATCHes would put more writes beside
#: each job the slower the host ran, and with no pacing at all the two
#: client threads split the daemon's interpreter lock by chance.
PATCHES_PER_JOB = 3
POLL_SECONDS = 0.05
TERMINAL = ("done", "failed", "cancelled")
#: Percentiles a tail may be reported at, lowest first.
TAIL_GRID = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
DELTA_KEYS = ("batch", "inserted", "deleted", "touched_nodes",
              "reranked_edges", "drift_estimate", "rebuild", "seconds")


def tail(values) -> tuple:
    """``(value, percentile)`` at the highest grid percentile with at
    least ten samples beyond it; ``(0.0, 0.0)`` when there are too few."""
    values = sorted(values)
    best = (0.0, 0.0)
    for pct in TAIL_GRID:
        if len(values) * (1.0 - pct / 100.0) >= 10:
            best = (float(np.percentile(values, pct)), pct)
    return best


class Daemon:
    """One ``repro serve`` subprocess, booted until ``/healthz`` answers."""

    def __init__(self, ctx: Context, cache_dir: Path, trace_out=None):
        cmd = [sys.executable, str(Path(__file__).with_name("serve.py")),
               "--root", str(ctx.root)]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        cmd += ["--", "--port", "0", "--workers", "2", "--executor",
                "thread", "--cache-dir", str(cache_dir)]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     text=True, cwd=str(ctx.root))
        try:
            self.url = self._read_url(timeout=60.0)
            self.client = ServiceClient(self.url, timeout=120.0)
            self._wait_healthy(timeout=60.0)
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - self.started

    def _read_url(self, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                if "listening on " in line:
                    return line.split("listening on ", 1)[1].split()[0]
        raise RuntimeError("repro serve did not announce its URL")

    def _wait_healthy(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while True:
            try:
                self.client.health()
                return
            except Exception:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident set size (``VmHWM``), in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line in /proc status")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _mtx_text(graph, path: Path) -> str:
    write_graph_mtx(path, graph)
    return path.read_text()


class Load:
    """The two client threads and everything they observed."""

    def __init__(self, client: ServiceClient, texts: dict, graph_id: str,
                 writer_graph, seed: int):
        self.client = client
        self.texts = texts
        self.graph_id = graph_id
        self.rng = np.random.default_rng(seed)
        self.requests = [(c, f) for c in READ_CASES for f in READ_FRACTIONS]
        lo = np.minimum(writer_graph.u, writer_graph.v).tolist()
        hi = np.maximum(writer_graph.u, writer_graph.v).tolist()
        self.existing = set(zip(lo, hi))
        self.n = writer_graph.n
        self.indptr, self.nbr, _ = writer_graph.adjacency()
        self.weight = PATCH_WEIGHT * float(np.median(writer_graph.w))
        self.jobs: list = []
        self.patches: list = []
        self.errors: list = []        # both threads append
        self._stop = threading.Event()
        self._patch_tokens = threading.Semaphore(0)

    def reader(self) -> None:
        index = 0
        while not self._stop.is_set():
            case, fraction = self.requests[index % len(self.requests)]
            index += 1
            try:
                sent = time.perf_counter()
                job = self.client.submit(
                    graph={"mtx": self.texts[case]}, label=case,
                    method="proposed", evaluate=True,
                    options={"edge_fraction": fraction})
                self._patch_tokens.release(PATCHES_PER_JOB)
                while job["status"] not in TERMINAL:
                    time.sleep(POLL_SECONDS)
                    job = self.client.job(job["id"])
                seen = time.perf_counter()
                record = (self.client.result(job["id"], wait=False)
                          if job["status"] == "done" else None)
            except Exception as exc:  # counted, the loop goes on
                print(f"reader: {exc!r}", file=sys.stderr)
                self.errors.append(exc)
                continue
            self.jobs.append({"job": job, "client_s": seen - sent,
                              "case": case, "fraction": fraction,
                              "record": record})

    def _new_edges(self) -> list:
        """PATCH_EDGES new local edges: each joins a node to a node two
        hops away in the original graph, the kind of edit an evolving
        mesh or circuit sees."""
        edges = set()
        while len(edges) < PATCH_EDGES:
            u = int(self.rng.integers(self.n))
            mid = int(self.rng.choice(self.nbr[self.indptr[u]:self.indptr[u + 1]]))
            v = int(self.rng.choice(self.nbr[self.indptr[mid]:self.indptr[mid + 1]]))
            pair = (min(u, v), max(u, v))
            if u != v and pair not in self.existing:
                edges.add(pair)
        self.existing |= edges
        return sorted(edges)

    def writer(self) -> None:
        while not self._stop.is_set():
            if not self._patch_tokens.acquire(timeout=0.1):
                continue
            inserts = [(u, v, self.weight) for u, v in self._new_edges()]
            try:
                sent = time.perf_counter()
                reply = self.client.patch_graph(self.graph_id,
                                                inserts=inserts)
                took = time.perf_counter() - sent
            except Exception as exc:  # counted, the loop goes on
                print(f"writer: {exc!r}", file=sys.stderr)
                self.errors.append(exc)
                continue
            self.patches.append({"entry": reply.get("entry", {}),
                                 "client_s": took,
                                 "inserted": len(inserts), "deleted": 0})

    def run(self, seconds: float) -> tuple:
        """Drive both clients for *seconds*; return the ``perf_counter``
        start and end of the window, including the operations in flight
        when it closed."""
        threads = [threading.Thread(target=self.reader),
                   threading.Thread(target=self.writer)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        time.sleep(seconds)
        self._stop.set()
        for thread in threads:
            thread.join(timeout=150)
            if thread.is_alive():
                raise RuntimeError("a client thread did not finish")
        return started, time.perf_counter()


def _check(load: Load, outcome: Outcome) -> None:
    outcome.attempted += len(load.errors)
    outcome.failed += len(load.errors)
    for item in load.jobs:
        job = item["job"]
        outcome.check(job["status"] == "done" and item["record"],
                      f"service_mixed: job {job['id']} ended "
                      f"{job['status']} {job.get('error') or ''}")
    for item in load.patches:
        entry = item["entry"]
        outcome.check(
            all(key in entry for key in DELTA_KEYS)
            and entry["inserted"] == item["inserted"]
            and entry["deleted"] == item["deleted"]
            and entry["seconds"] >= 0,
            f"service_mixed: malformed delta entry {entry!r}")


def _one_window(ctx: Context, outcome: Outcome, inputs: dict, label: str,
                traced: bool):
    """Boot a daemon, run the load window, stop it; return observations."""
    cache_dir = ctx.out_dir / f"cache-{label}"
    shutil.rmtree(cache_dir, ignore_errors=True)
    trace_out = (ctx.out_dir / f"spans-{ctx.workload}-seed{ctx.seed}-daemon"
                 ".json" if traced else None)
    daemon = Daemon(ctx, cache_dir, trace_out)
    try:
        created = daemon.client.create_graph(
            graph={"mtx": inputs["writer_text"]}, label=WRITER_CASE,
            method="proposed")
        load = Load(daemon.client, inputs["texts"], created["id"],
                    inputs["writer_graph"], ctx.seed)
        window = ctx.seconds / 2 if ctx.trace else ctx.seconds
        with ctx.cal:
            started, ended = load.run(window)
        stats = daemon.client.stats()
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    shutil.rmtree(cache_dir, ignore_errors=True)
    _check(load, outcome)
    return {"load": load, "elapsed": ended - started, "stats": stats,
            "rss": rss, "scale": ctx.cal.scale(started, ended),
            "trace_out": trace_out}


def _fingerprint_check(ctx: Context, outcome: Outcome, load: Load,
                       paths: dict) -> None:
    """A sampled job's record equals an in-process run of its request."""
    done = [j for j in load.jobs if j["record"]]
    if not done:
        return
    pick = done[int(np.random.default_rng(ctx.seed).integers(len(done)))]
    graph, _ = read_graph_mtx(paths[pick["case"]])
    local = SparsifierSession(graph, label=pick["case"]).run(
        "proposed", evaluate=True, edge_fraction=pick["fraction"])
    served = RunRecord.from_dict(pick["record"])
    outcome.check(local.fingerprint() == served.fingerprint(),
                  f"service_mixed: {pick['job']['id']} record differs "
                  "from an in-process run of the same request")


def _latencies(load: Load) -> dict:
    done = [j for j in load.jobs if j["record"]]
    jobs = [j["job"] for j in done]
    latency = [j["finished_at"] - j["created_at"] for j in jobs]
    patch_s = [p["client_s"] for p in load.patches]
    return {"done": done, "jobs": jobs, "latency": latency,
            "patch_s": patch_s}


def service_mixed(ctx: Context) -> Outcome:
    """Reads and writes against one daemon; see the module docstring."""
    outcome = Outcome()
    sizes = ctx.sizes
    ctx.out_dir.mkdir(parents=True, exist_ok=True)
    run_tag = f"{ctx.seed}-{os.getpid()}"

    def make_inputs():
        texts, paths = {}, {}
        for case in READ_CASES:
            graph, _ = make_case(case, scale=sizes["svc_scale"], seed=0)
            path = ctx.out_dir / f"{case}-{run_tag}.mtx"
            texts[case] = _mtx_text(graph, path)
            paths[case] = path
        base, _ = make_case(WRITER_CASE, scale=sizes["svc_writer_scale"],
                            seed=0)
        path = ctx.out_dir / f"writer-{run_tag}.mtx"
        writer_text = _mtx_text(base, path)
        writer_graph, _ = read_graph_mtx(path)
        return {"texts": texts, "paths": paths, "writer_text": writer_text,
                "writer_graph": writer_graph}

    started = time.perf_counter()
    inputs = make_inputs()
    generate_s = time.perf_counter() - started
    daemons = []
    with ctx.cal:
        for _ in range(sizes["svc_boots"]):
            daemons.append(Daemon(ctx, ctx.out_dir / f"cache-boot-{run_tag}"))
            daemons[-1].stop()
    boots = [d.boot_s * ctx.cal.scale(d.started, d.started + d.boot_s)
             for d in daemons]
    shutil.rmtree(ctx.out_dir / f"cache-boot-{run_tag}", ignore_errors=True)

    plain = _one_window(ctx, outcome, inputs, f"plain-{run_tag}", False)
    traced = (_one_window(ctx, outcome, inputs, f"traced-{run_tag}", True)
              if ctx.trace else None)
    _fingerprint_check(ctx, outcome, plain["load"], inputs["paths"])
    for path in list(inputs["paths"].values()) + [
            ctx.out_dir / f"writer-{run_tag}.mtx"]:
        Path(path).unlink(missing_ok=True)

    seen = _latencies(plain["load"])
    if not seen["done"]:
        raise RuntimeError("service_mixed: no job completed")
    by_request = {}
    for item in seen["done"]:
        by_request[(item["case"], item["fraction"])] = item["record"]
    qualities = [rec["quality"] for rec in by_request.values()]
    scale = plain["scale"]
    outcome.end_to_end = {
        "setup_s": statistics.median(boots),
        "sparsify_s": scale * statistics.median(
            item["record"]["timings"]["sparsify_seconds"]
            for item in seen["done"]),
        "total_s": scale * statistics.median(seen["latency"]),
        "ops_per_s": len(seen["done"]) / (scale * plain["elapsed"]),
        "kappa": math.exp(statistics.mean(
            math.log(q["kappa"]) for q in qualities)),
        "pcg_iters": statistics.mean(q["pcg_iterations"] for q in qualities),
        "peak_rss_mb": plain["rss"],
    }
    outcome.notes = {
        "jobs": [[item["case"], item["fraction"], lat,
                  item["record"]["timings"]["sparsify_seconds"]]
                 for item, lat in zip(seen["done"], seen["latency"])],
        "patch_s": seen["patch_s"],
    }
    if traced is not None:
        outcome.per_layer = _service_layers(ctx, outcome, traced,
                                            generate_s, seen)
    return outcome


def _service_layers(ctx: Context, outcome: Outcome, traced: dict,
                    generate_s: float, plain_seen: dict) -> dict:
    """Per-layer metrics of the traced window, from spans and public
    results (job dicts, RunRecords, DeltaRecord entries, ``/stats``)."""
    from tracing import load_spans, summarize

    load = traced["load"]
    seen = _latencies(load)
    spans = load_spans(traced["trace_out"])
    job_spans = summarize([s for s in spans
                           if str(s[5]).startswith("job-")])
    jobs = max(len(seen["done"]), 1)
    per_job = {name: {k: v / jobs for k, v in entry.items()}
               for name, entry in job_spans.items()}
    layers = dict.fromkeys(ctx.per_layer_names, 0.0)
    layers.update(core_layers(
        per_job, [item["record"]["rounds_log"] for item in seen["done"]]))
    stats = traced["stats"]
    cache = stats["cache"]
    queue_wait = [j["started_at"] - j["created_at"] for j in seen["jobs"]]
    run_s = [j["finished_at"] - j["started_at"] for j in seen["jobs"]]
    overhead = [item["client_s"] - (item["job"]["finished_at"]
                                    - item["job"]["created_at"])
                for item in seen["done"]]
    job_tail, job_pct = tail(seen["latency"])
    patch_tail, patch_pct = tail(seen["patch_s"])
    entries = [p["entry"] for p in load.patches]
    layers.update({
        "graph.generate_s": generate_s,
        "api.cache_hits": cache["hits"],
        "api.cache_misses": cache["misses"],
        "api.cache_stores": cache["stores"],
        "service.completed_runs": stats["completed_runs"],
        "service.dedup_hits": stats["dedup_hits"],
        "service.queue_wait_s": statistics.median(queue_wait),
        "service.run_s": statistics.median(run_s),
        "service.http_overhead_s": statistics.median(overhead),
        "service.job_tail_s": job_tail,
        "service.job_tail_pct": job_pct,
        "service.job_samples": len(seen["latency"]),
        "service.patch_p50_s": statistics.median(seen["patch_s"]),
        "service.patch_tail_s": patch_tail,
        "service.patch_tail_pct": patch_pct,
        "service.patch_samples": len(seen["patch_s"]),
        "service.patch_wait_s": statistics.median(
            p["client_s"] - p["entry"]["seconds"] for p in load.patches),
        "incremental.delta_s": statistics.median(
            e["seconds"] for e in entries),
        "incremental.reranked_edges": statistics.mean(
            e["reranked_edges"] for e in entries),
        "incremental.touched_nodes": statistics.mean(
            e["touched_nodes"] for e in entries),
        "incremental.rebuilds": sum(bool(e["rebuild"]) for e in entries),
        "bench.host_speed": ctx.cal.speed(),
        "bench.error_rate": outcome.failed / max(outcome.attempted, 1),
        "trace.overhead_s": traced["scale"] * statistics.median(
            seen["latency"]) - outcome.end_to_end["total_s"],
    })
    return layers
