"""Shared pieces of the benchmark: seeds, the scipy oracle, the failure
ledger, closed-loop timing and the reading of traces into layer metrics.

Everything here lives on the benchmark's side of the boundary: it hands
the program generated matrices and reads back only public results, spans
and counters.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time

import numpy as np
import scipy.sparse as sp

from repro.observability import phase_breakdown

#: Phase of the benchmark's own root span around each operation, so its
#: self time (call overhead outside the library) stays apart from every
#: phase the library reports.
BENCH_PHASE = "bench"

#: Each floor is the best of this many scipy calls: a few-millisecond
#: timing is otherwise at the mercy of one interrupt or cold cache line.
FLOOR_REPEATS = 3

#: Relative tolerance on product values.  Both sides sum the same products
#: in different orders; for at most a few thousand terms per entry in
#: float64 the rounding difference stays many orders of magnitude below it.
VALUE_RTOL = 1e-9


def child_seed(seed: int, *keys: int) -> int:
    """A 32-bit seed derived from the run seed and a path of small ints."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def to_scipy(m) -> sp.csr_matrix:
    """The program's CSR as a scipy matrix over copies of its arrays."""
    return sp.csr_matrix(
        (m.data.copy(), m.indices.copy(), m.indptr.copy()), shape=m.shape
    )


def flop_count(a, b) -> int:
    """Intermediate products of ``a @ b`` (one per multiply), from operands."""
    return int(np.diff(b.indptr)[a.indices].sum())


def canonical(m: sp.csr_matrix, drop_zeros: bool = False) -> sp.csr_matrix:
    """Rows sorted and duplicates summed (and exact zeros dropped if asked)."""
    m = m.tocsr(copy=True)
    m.sum_duplicates()
    if drop_zeros:
        m.eliminate_zeros()
    m.sort_indices()
    return m


def product_mismatch(c, expected: sp.csr_matrix, *, sorted_output: bool,
                     drop_zeros: bool = False) -> "str | None":
    """Compare the program's product with scipy's; None when they agree.

    The sparsity pattern must match row by row as sets (unsorted output
    may order a row any way), rows must really be sorted when sorted
    output was requested, and values must agree within VALUE_RTOL.
    ``drop_zeros`` removes entries that summed to exactly zero on both
    sides first: scipy's product drops them, the program keeps them.
    """
    if tuple(c.shape) != tuple(expected.shape):
        return f"shape {tuple(c.shape)} != {tuple(expected.shape)}"
    indptr, indices, data = c.indptr, c.indices, c.data
    rows = np.repeat(np.arange(c.nrows), np.diff(indptr))
    if sorted_output:
        inside = rows[1:] == rows[:-1]
        bad = np.flatnonzero(inside & (indices[1:] <= indices[:-1]))
        if bad.size:
            return f"order: row {rows[bad[0]]} is not sorted"
    got = canonical(
        sp.csr_matrix((data, indices, indptr), shape=c.shape), drop_zeros
    )
    if not np.array_equal(got.indptr, expected.indptr):
        row = int(np.flatnonzero(np.diff(got.indptr) != np.diff(expected.indptr))[0])
        return (
            f"pattern: row {row} has {got.indptr[row + 1] - got.indptr[row]} "
            f"entries, scipy {expected.indptr[row + 1] - expected.indptr[row]}"
        )
    if not np.array_equal(got.indices, expected.indices):
        at = int(np.flatnonzero(got.indices != expected.indices)[0])
        row = int(np.searchsorted(expected.indptr, at, side="right") - 1)
        return f"pattern: row {row} holds different columns than scipy"
    if not np.allclose(got.data, expected.data, rtol=VALUE_RTOL, atol=0.0):
        at = int(np.flatnonzero(
            ~np.isclose(got.data, expected.data, rtol=VALUE_RTOL, atol=0.0)
        )[0])
        row = int(np.searchsorted(expected.indptr, at, side="right") - 1)
        return (
            f"values: row {row} column {got.indices[at]}: "
            f"{got.data[at]!r} vs scipy {expected.data[at]!r}"
        )
    return None


class Ledger:
    """Operations attempted and failed; keeps the first failure's story.

    A wrong output and an exception both count as a failed operation; a
    wrong output also makes the run incorrect.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.first_failure: "str | None" = None

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, op: str, inputs: str, check: str, *, wrong: bool) -> None:
        self.attempted += 1
        self.failed += 1
        self.wrong += int(wrong)
        if self.first_failure is None:
            self.first_failure = f"operation {op!r} on input {inputs}: {check}"

    def verdict(self, op: str, inputs: str, problem: "str | None") -> None:
        if problem is None:
            self.ok()
        else:
            self.fail(op, inputs, problem, wrong=True)


def timed(fn, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def floor_timed(fn, *args):
    """``(result, seconds)`` of scipy computing a reference result: the
    best of FLOOR_REPEATS calls."""
    best = math.inf
    for _ in range(FLOOR_REPEATS):
        out, seconds = timed(fn, *args)
        best = min(best, seconds)
    return out, best


def median_setup(setup, repeats: int, release=None):
    """Run ``setup()`` ``repeats`` times; keep the last state.

    Returns ``(state, median seconds)``.  ``release(state)``, if given,
    ends each earlier state (a server, say) before the next set-up starts,
    untimed, and its garbage is collected, so that no two states live at
    once and the run does not start among the remains of earlier ones.
    """
    state, seconds = None, []
    for i in range(repeats):
        if i and release is not None:
            release(state)
            state = None
            gc.collect()
        t0 = time.perf_counter()
        state = setup()
        seconds.append(time.perf_counter() - t0)
    return state, statistics.median(seconds)


def closed_loop(seconds: float, run_round) -> "list[list[tuple[str, float, float]]]":
    """Run whole rounds, starting a new one while time is left.

    ``run_round(r)`` returns ``(class, wall, floor)`` for each operation of
    round ``r``; the list of those lists comes back.
    """
    rounds = []
    t_end = time.perf_counter() + seconds
    while True:
        rounds.append(run_round(len(rounds)))
        if time.perf_counter() >= t_end:
            return rounds


def paired_loop(seconds: float, make_inputs, run_inputs):
    """Whole rounds for a traced run: each round twice on the same inputs,
    untraced and traced, taking turns at going first, so that the tracing
    overhead is not confused with the drift of a warming process.

    ``make_inputs(r)`` builds round ``r``'s inputs and
    ``run_inputs(inputs, traced)`` runs them, returning the round's
    ``(class, wall, floor)`` list.  Returns the untraced and traced rounds.
    """
    plain = []

    def one_round(r):
        inputs = make_inputs(r)
        if r % 2:
            traced = run_inputs(inputs, True)
            plain.append(run_inputs(inputs, False))
        else:
            plain.append(run_inputs(inputs, False))
            traced = run_inputs(inputs, True)
        return traced

    traced = closed_loop(seconds, one_round)
    return plain, traced


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def round_ratio(rnd) -> "float | None":
    """A round's time as a ratio to its floor: the geometric mean over
    its classes of operation (a product kind, an app, a job) of summed
    wall ÷ summed floor, so each class weighs the same.  None when every
    operation of the round failed."""
    sums: "dict[str, list[float]]" = {}
    for cls, w, f in rnd:
        if f > 0:  # a failed operation has no floor
            acc = sums.setdefault(cls, [0.0, 0.0])
            acc[0] += w
            acc[1] += f
    if not sums:
        return None
    return math.exp(statistics.fmean(math.log(w / f) for w, f in sums.values()))


def end_to_end(setup_s: float, rounds) -> dict:
    """The end-to-end metrics every workload reports.

    ``rounds`` hold ``(class, wall, floor)`` per operation, the floor being
    scipy's time to compute the same result, measured right after it.
    Speed is reported as a ratio to the floor, the median over rounds: on
    a shared virtual machine with two vCPUs, absolute times drift by
    10-15 % from one run to the next and slow spells come and go within a
    run; the floor drifts with the first, the median over rounds rides out
    the second.
    """
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "floor_ratio": (statistics.median(
            r for r in map(round_ratio, rounds) if r is not None), "ratio"),
    }


def overhead_ratio(plain, traced) -> float:
    """Traced ÷ untraced wall over the rounds both passes ran.

    Round ``r`` is the same work in both passes (the same inputs, or
    inputs from the same seeds), so the ratio compares like with like.
    """
    n = min(len(plain), len(traced))
    return wall(traced[:n]) / wall(plain[:n])


def wall(rounds) -> float:
    """Summed wall of every operation of ``rounds``."""
    return sum(w for rnd in rounds for _, w, _ in rnd)


class TraceReader:
    """Per-layer seconds and counts read off a finished trace.

    ``roots`` are the benchmark's own spans, one per timed call; every
    library span the call opened sits beneath its root.
    """

    #: Library spans whose own ``other``-phase time is kernel time: the
    #: dispatch roots, and kernels that open no phase spans of their own.
    KERNEL_ROOTS = ("spgemm", "masked_spgemm")

    def __init__(self, roots) -> None:
        self.roots = list(roots)
        self.phases: "dict[str, float]" = {}
        for group in phase_breakdown(self.roots).values():
            for phase, seconds in group.items():
                self.phases[phase] = self.phases.get(phase, 0.0) + seconds

    def phase(self, name: str) -> float:
        """Self seconds of every span of one phase."""
        return self.phases.get(name, 0.0)

    def total(self) -> float:
        """Sum of the breakdown: the traced calls' wall, partitioned."""
        return sum(self.phases.values())

    def spans(self, *names: str):
        return [s for root in self.roots for s in root.walk() if s.name in names]

    def inclusive(self, name: str) -> float:
        """Seconds inside spans of one name, children included."""
        return sum(s.duration for s in self.spans(name))

    def kernel_other(self) -> float:
        return sum(
            s.exclusive_seconds() for s in self.spans(*self.KERNEL_ROOTS)
            if s.phase == "other"
        )


def kernel_layers(reader: TraceReader, per: int) -> dict:
    """The kernel self time per phase, per operation."""
    return {
        "kernel.symbolic_s": (reader.phase("symbolic") / per, "s"),
        "kernel.numeric_s": (reader.phase("numeric") / per, "s"),
        "kernel.sort_s": (reader.phase("sort") / per, "s"),
        "kernel.stitch_s": (reader.phase("stitch") / per, "s"),
        "kernel.mask_s": (reader.phase("mask") / per, "s"),
        "kernel.other_s": (reader.kernel_other() / per, "s"),
    }


def plan_layers(reader: TraceReader, hits: float, misses: float, per: int) -> dict:
    lookups = hits + misses
    return {
        "plan.inspect_s": (reader.phase("inspect") / per, "s"),
        "plan.execute_s": (reader.phase("execute") / per, "s"),
        "plan.hits": (hits / per, "count"),
        "plan.misses": (misses / per, "count"),
        "plan.hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
    }


def trace_layers(reader: TraceReader, plain, traced, per: int) -> dict:
    """How far the traced split can be trusted, and what it leaves out."""
    return {
        "trace.overhead_ratio": (overhead_ratio(plain, traced), "ratio"),
        # The phase breakdown partitions the traced calls' wall: about 1.
        "trace.coverage": (reader.total() / wall(traced), "ratio"),
        # Time inside the called function but in no library span, such as
        # resolving ``algorithm="auto"`` before the dispatch span opens.
        "trace.unspanned_s": (reader.phase(BENCH_PHASE) / per, "s"),
    }
