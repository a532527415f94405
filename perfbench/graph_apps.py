"""Workload ``graph_apps``: three of the paper's SpGEMM use cases.

A closed loop on one thread; each round runs

* triangle counting through the fused masked product, on a symmetrised
  G500 graph made fresh for the round (a plan miss by construction);
* multi-source BFS on a fixed G500 graph from fresh sources, expanding
  tall-skinny unsorted frontiers (each level a new structure);
* AMG setup rebuilt ``REBUILDS`` times on a fixed 2-D mesh whose
  coefficients change every rebuild.  A symmetric diagonal rescaling keeps
  the pattern and the aggregation, so one ``PlanCache`` per round replays
  the Galerkin product after the first rebuild.

Every result is checked against scipy: triangles against ``(A·A)∘A``,
BFS levels against ``scipy.sparse.csgraph`` distances and each coarse
operator against scipy's ``R·A·P``.
"""

from __future__ import annotations

import statistics

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import shortest_path

from repro.apps import amg_setup, count_triangles, multi_source_bfs
from repro.core import PlanCache
from repro.datasets import mesh2d
from repro.matrix import CSR
from repro.observability import Tracer
from repro.rmat import G500_PARAMS, rmat

from common import (
    BENCH_PHASE,
    Ledger,
    TraceReader,
    canonical,
    child_seed,
    closed_loop,
    end_to_end,
    floor_timed,
    kernel_layers,
    median_setup,
    paired_loop,
    plan_layers,
    product_mismatch,
    timed,
    trace_layers,
    to_scipy,
)

#: triangles: (scale, edge factor); bfs: (scale, edge factor, sources);
#: amg: mesh side.
SIZES = {
    "full": {"triangles": (12, 8), "bfs": (11, 8, 64), "amg": 96},
    "tiny": {"triangles": (6, 4), "bfs": (6, 4, 4), "amg": 8},
}
REBUILDS = 4
#: The class of each operation of a round, in order.
APPS = ("triangles", "bfs") + ("amg",) * REBUILDS
SETUP_REPEATS = 3
#: Seed keys of the fixed BFS graph and of the warm-up inputs, apart from
#: every round's keys.
FIXED_KEY, WARM_KEY = 1 << 20, 1 << 21
#: Diagonal rescaling range.  Strength of connection compares |a_ij| with
#: theta * max_k |a_ik|; with d in [0.75, 1.25] and theta = 0.25 every
#: mesh neighbour stays strong, so rebuilds keep their aggregates.
SCALE_RANGE = (0.75, 1.25)


def graph(scale: int, ef: int, seed: int, *, symmetric: bool) -> CSR:
    return rmat(scale, ef, G500_PARAMS, seed=seed, values="ones",
                symmetrize=symmetric, drop_diagonal=symmetric)


def rescaled(mesh: CSR, seed: int) -> CSR:
    """``D·M·D`` for a random positive diagonal ``D``: same pattern."""
    d = np.random.default_rng(seed).uniform(*SCALE_RANGE, mesh.nrows)
    rows = np.repeat(np.arange(mesh.nrows), np.diff(mesh.indptr))
    return CSR(mesh.shape, mesh.indptr, mesh.indices,
               mesh.data * d[rows] * d[mesh.indices], sorted_rows=mesh.sorted_rows)


def triangles_scipy(a: sp.csr_matrix, block: int = 1024) -> int:
    """``sum((A·A)∘A) / 6``, a block of rows at a time to bound memory."""
    total = 0.0
    for start in range(0, a.shape[0], block):
        rows = a[start:start + block]
        total += (rows @ a).multiply(rows).sum()
    return int(round(total / 6.0))


class Calls:
    """Runs each app once and checks it against scipy.

    Each call returns ``(wall, floor)``: its own seconds and scipy's
    seconds for the same answer (a floor of 0 when the call raised).
    """

    def __init__(self, ledger: Ledger, tracer) -> None:
        self.ledger = ledger
        self.tracer = tracer

    def _call(self, name: str, inputs: str, fn, *args, **kwargs):
        try:
            if self.tracer is None:
                return timed(fn, *args, **kwargs)
            with self.tracer.span(name, phase=BENCH_PHASE):
                return timed(fn, *args, tracer=self.tracer, **kwargs)
        except Exception as exc:  # an operation that raises is a failed operation
            self.ledger.fail(name, inputs, f"raised {exc!r}", wrong=False)
            return None, 0.0

    def triangles(self, adj: CSR, inputs: str) -> "tuple[float, float]":
        count, wall = self._call("triangles", inputs, count_triangles, adj, engine="fast")
        if count is None:
            return wall, 0.0
        expected, floor = floor_timed(triangles_scipy, to_scipy(adj))
        self.ledger.verdict("triangles", inputs, None if count == expected
                            else f"count {count}, scipy {expected}")
        return wall, floor

    def bfs(self, adj: CSR, sources: np.ndarray, inputs: str) -> "tuple[float, float]":
        levels, wall = self._call("bfs", inputs, multi_source_bfs, adj, sources,
                                  algorithm="hash", engine="fast")
        if levels is None:
            return wall, 0.0
        dist, floor = floor_timed(
            lambda: shortest_path(to_scipy(adj), directed=True, unweighted=True,
                                  indices=sources))
        expected = np.where(np.isinf(dist), -1, dist).astype(np.int64).T
        bad = np.argwhere(levels != expected)
        self.ledger.verdict("bfs", inputs, None if not len(bad) else (
            f"vertex {bad[0][0]} from source {sources[bad[0][1]]}: level "
            f"{levels[tuple(bad[0])]}, csgraph {expected[tuple(bad[0])]}"
        ))
        return wall, floor

    def amg(self, a: CSR, cache: PlanCache, inputs: str) -> "tuple[float, float]":
        h, wall = self._call("amg", inputs, amg_setup, a, engine="fast", plan_cache=cache)
        if h is None:
            return wall, 0.0
        r, p = to_scipy(h.restriction), to_scipy(h.prolongation)
        sa = to_scipy(a)
        coarse, floor = floor_timed(lambda: r @ sa @ p)
        self.ledger.verdict("amg", inputs, product_mismatch(
            h.coarse, canonical(coarse, drop_zeros=True), sorted_output=False,
            drop_zeros=True))
        return wall, floor


def run(seed: int, seconds: float, size: str, traced: bool) -> "tuple[Ledger, dict]":
    sizes = SIZES[size]
    tri_scale, tri_ef = sizes["triangles"]
    bfs_scale, bfs_ef, n_sources = sizes["bfs"]
    ledger = Ledger()
    gen_s = []

    def setup():
        def generate():
            return (graph(bfs_scale, bfs_ef, child_seed(seed, FIXED_KEY), symmetric=False),
                    mesh2d(sizes["amg"]))
        (bfs_graph, mesh), gen = timed(generate)
        gen_s.append(gen)
        # First calls pay one-off costs: pay them at full size on inputs
        # that no measured call uses.
        warm = Calls(Ledger(), None)
        s = child_seed(seed, WARM_KEY)
        warm.triangles(graph(tri_scale, tri_ef, s, symmetric=True), "warm-up")
        warm.bfs(bfs_graph, np.arange(n_sources), "warm-up")
        warm.amg(rescaled(mesh, s), PlanCache(), "warm-up")
        return bfs_graph, mesh

    (bfs_graph, mesh), setup_s = median_setup(setup, SETUP_REPEATS)
    bfs_inputs = f"g500 scale {bfs_scale} seed {child_seed(seed, FIXED_KEY)}"

    lookups = {"hits": 0, "misses": 0}  # the traced passes' AMG plan cache

    def round_inputs(r: int):
        s = child_seed(seed, r)
        sources = np.random.default_rng(s).choice(bfs_graph.nrows, n_sources,
                                                  replace=False)
        rebuilds = [rescaled(mesh, child_seed(seed, r, i)) for i in range(REBUILDS)]
        return r, s, graph(tri_scale, tri_ef, s, symmetric=True), sources, rebuilds

    def run_round(inputs, calls: Calls):
        r, s, adj, sources, rebuilds = inputs
        walls = [
            calls.triangles(adj, f"g500 scale {tri_scale} symmetrised seed {s}"),
            calls.bfs(bfs_graph, sources, f"{bfs_inputs}, sources seed {s}"),
        ]
        cache = PlanCache()
        for i, a in enumerate(rebuilds):
            walls.append(calls.amg(a, cache, f"mesh2d({mesh.nrows}) rebuild {i} "
                                             f"seed {child_seed(seed, r, i)}"))
        if calls.tracer is not None:
            lookups["hits"] += cache.hits
            lookups["misses"] += cache.misses
        return [(app, w, f) for app, (w, f) in zip(APPS, walls)]

    if not traced:
        calls = Calls(ledger, None)
        rounds = closed_loop(seconds, lambda r: run_round(round_inputs(r), calls))
        return ledger, end_to_end(setup_s, rounds)

    tracer = Tracer()
    passes = {False: Calls(ledger, None), True: Calls(ledger, tracer)}
    plain, traced_rounds = paired_loop(
        seconds, round_inputs, lambda inputs, t: run_round(inputs, passes[t]))
    n = len(traced_rounds)

    def call_s(app: str) -> float:
        return statistics.median(w for rnd in plain for cls, w, _ in rnd if cls == app)

    reader = TraceReader(tracer.spans)
    levels = reader.spans("bfs_level")
    metrics = {
        "inputs.generate_s": (statistics.median(gen_s), "s"),
        **kernel_layers(reader, n),
        **plan_layers(reader, lookups["hits"], lookups["misses"], n),
        "masked.wedges_s": (reader.inclusive("wedges") / n, "s"),
        "chain.galerkin_s": (reader.inclusive("galerkin") / n, "s"),
        "apps.triangles.call_s": (call_s("triangles"), "s"),
        "apps.triangles.reorder_s": (reader.inclusive("reorder") / n, "s"),
        "apps.triangles.split_s": (reader.inclusive("split") / n, "s"),
        "apps.bfs.call_s": (call_s("bfs"), "s"),
        "apps.bfs.level_s": (sum(s.duration for s in levels) / n, "s"),
        "apps.bfs.levels": (len(levels) / n, "count"),
        "apps.amg.call_s": (call_s("amg"), "s"),
        "apps.amg.strength_s": (reader.inclusive("strength") / n, "s"),
        "apps.amg.aggregate_s": (reader.inclusive("aggregate") / n, "s"),
        **trace_layers(reader, plain, traced_rounds, n),
    }
    return ledger, metrics
