"""Workload ``oneshot``: single products on structures made fresh each time.

A closed loop on one thread.  Each round multiplies new R-MAT structures:
``A·A`` for an ER (uniform rows) and a G500 (skewed rows) class, through
every fast kernel and ``"auto"``, each with sorted and unsorted output, and
one tall-skinny ``A·X`` product (paper Fig. 16).  No plan cache is given,
so the kernel phases do all the work.  Every product is checked against
scipy's ``csr @ csr`` on the same operands, whose time is the floor.
"""

from __future__ import annotations

import statistics
import sys
from dataclasses import dataclass

from repro.core import KernelStats, spgemm
from repro.observability import Tracer
from repro.rmat import ER_PARAMS, G500_PARAMS, rmat, tall_skinny_pair

from common import (
    BENCH_PHASE,
    Ledger,
    TraceReader,
    canonical,
    child_seed,
    closed_loop,
    end_to_end,
    floor_timed,
    flop_count,
    kernel_layers,
    median_setup,
    paired_loop,
    plan_layers,
    product_mismatch,
    timed,
    trace_layers,
    to_scipy,
)

#: (scale, edge factor) per square class; the tall-skinny class is
#: (scale of A, log2 of the columns of X, edge factor).
SIZES = {
    "full": {"er": (12, 8), "g500": (11, 8), "tall_skinny": (12, 8, 8)},
    "tiny": {"er": (7, 4), "g500": (7, 4), "tall_skinny": (7, 4, 4)},
}
SQUARE = (("er", ER_PARAMS), ("g500", G500_PARAMS))
ALGORITHMS = ("hash", "hashvec", "spa", "esc", "auto")
SETUP_REPEATS = 3
#: Seed key of the warm-up structure, apart from every round's keys.
WARM_KEY = 1 << 20


@dataclass
class Product:
    name: str
    inputs: str
    a: object
    b: object
    algorithm: str
    sorted_output: bool

    def __post_init__(self) -> None:
        self.sa, self.sb = to_scipy(self.a), to_scipy(self.b)
        self.flop = flop_count(self.a, self.b)


def make_round(seed: int, r: int, size: str) -> "list[Product]":
    """The products of round ``r``: one new structure per class and kernel.

    The sorted and unsorted product of a kernel share operands so their
    times compare; which of the two runs first alternates.
    """
    sizes = SIZES[size]
    out = []
    for ci, (cls, params) in enumerate(SQUARE):
        scale, ef = sizes[cls]
        for ai, algorithm in enumerate(ALGORITHMS):
            s = child_seed(seed, r, ci, ai)
            a = rmat(scale, ef, params, seed=s)
            for sorted_output in ((True, False) if (ci + ai) % 2 else (False, True)):
                order = "sorted" if sorted_output else "unsorted"
                out.append(Product(
                    f"{cls}/{algorithm}/{order}", f"{cls} scale {scale} seed {s}",
                    a, a, algorithm, sorted_output,
                ))
    long_scale, short_scale, ef = sizes["tall_skinny"]
    s = child_seed(seed, r, len(SQUARE))
    a, x = tall_skinny_pair(long_scale, short_scale, ef, seed=s)
    out.append(Product(
        "tall_skinny/hash/unsorted",
        f"g500 scale {long_scale} x {1 << short_scale} columns seed {s}",
        a, x, "hash", False,
    ))
    return out


@dataclass
class Record:
    """What is kept of one product: the matrices are not."""
    name: str
    flop: int
    sorted_output: bool
    square: bool
    wall: float
    floor: float

    @classmethod
    def of(cls, p: Product, wall: float, floor: float) -> "Record":
        return cls(p.name, p.flop, p.sorted_output, p.b is p.a, wall, floor)

    def op(self) -> "tuple[str, float, float]":
        return self.name, self.wall, self.floor


def run_product(p: Product, ledger: Ledger, tracer, stats) -> Record:
    kwargs = dict(algorithm=p.algorithm, engine="fast", sort_output=p.sorted_output)
    try:
        if tracer is None:
            c, wall = timed(spgemm, p.a, p.b, **kwargs)
        else:
            with tracer.span(p.name, phase=BENCH_PHASE):
                c, wall = timed(spgemm, p.a, p.b, tracer=tracer, stats=stats, **kwargs)
    except Exception as exc:  # an operation that raises is a failed operation
        ledger.fail(p.name, p.inputs, f"raised {exc!r}", wrong=False)
        return Record.of(p, 0.0, 0.0)
    expected, floor = floor_timed(p.sa.__matmul__, p.sb)
    problem = product_mismatch(c, canonical(expected), sorted_output=p.sorted_output)
    ledger.verdict(p.name, p.inputs, problem)
    return Record.of(p, wall, floor)


def warm_up(seed: int, size: str) -> None:
    """First calls pay one-off costs: pay them on a full-size structure
    that no measured product uses."""
    scale, ef = SIZES[size]["er"]
    a = rmat(scale, ef, ER_PARAMS, seed=child_seed(seed, WARM_KEY))
    sa = to_scipy(a)
    for algorithm in ALGORITHMS:
        for sorted_output in (True, False):
            spgemm(a, a, algorithm=algorithm, engine="fast", sort_output=sorted_output)
    sa @ sa


def run(seed: int, seconds: float, size: str, traced: bool) -> "tuple[Ledger, dict]":
    ledger = Ledger()
    first = {}  # round 0's products, made during set-up
    gen_s = []

    def setup():
        first[0], gen = timed(make_round, seed, 0, size)
        gen_s.append(gen)
        warm_up(seed, size)

    _, setup_s = median_setup(setup, SETUP_REPEATS)

    def products(r: int) -> "list[Product]":
        return first.pop(r, None) or make_round(seed, r, size)

    if not traced:
        def one_round(r):
            return [run_product(p, ledger, None, None).op() for p in products(r)]

        return ledger, end_to_end(setup_s, closed_loop(seconds, one_round))

    tracer, stats = Tracer(), KernelStats()
    records: "list[Record]" = []

    def run_products(ps: "list[Product]", traced_pass: bool):
        if traced_pass:
            return [run_product(p, ledger, tracer, stats).op() for p in ps]
        out = [run_product(p, ledger, None, None) for p in ps]
        records.extend(out)
        return [rec.op() for rec in out]

    plain, traced_rounds = paired_loop(seconds, products, run_products)
    n = sum(map(len, traced_rounds))
    reader = TraceReader(tracer.spans)
    metrics = {
        "inputs.generate_s": (statistics.median(gen_s), "s"),
        **kernel_layers(reader, n),
        "kernel.flop": (stats.flops / n, "count"),
        "kernel.output_nnz": (stats.output_nnz / n, "count"),
        "kernel.sorted_elements": (stats.sorted_elements / n, "count"),
        **plan_layers(reader, 0, 0, n),
        **trace_layers(reader, plain, traced_rounds, n),
    }
    metrics.update(floor_layers(records))
    return ledger, metrics


def floor_layers(records: "list[Record]") -> dict:
    """Untraced timings against scipy; per class and kernel on stderr."""
    wall = sum(r.wall for r in records)
    floor = sum(r.floor for r in records)
    flop = sum(r.flop for r in records)
    square = [r for r in records if r.square]
    sorted_s = sum(r.wall for r in square if r.sorted_output)
    unsorted_s = sum(r.wall for r in square if not r.sorted_output)
    by_class: "dict[str, dict[str, list[float]]]" = {}
    for r in records:
        cls, kernel = r.name.split("/", 1)
        by_class.setdefault(cls, {}).setdefault(kernel, []).append((r.wall, r.floor))
    for cls, kernels in by_class.items():
        floors = [f for pairs in kernels.values() for _, f in pairs]
        ratios = " ".join(
            f"{k}={sum(w for w, _ in v) / sum(f for _, f in v):.2f}x"
            for k, v in sorted(kernels.items())
        )
        print(f"floor {cls}: scipy median {statistics.median(floors) * 1e3:.2f} ms; "
              f"program/scipy {ratios}", file=sys.stderr)
    return {
        "kernel.mflops": (2.0 * flop / wall / 1e6, "MFLOP/s"),
        "kernel.unsorted_speedup": (sorted_s / unsorted_s, "ratio"),
        "floor.scipy_s": (floor / len(records), "s"),
        "floor.ratio": (wall / floor, "ratio"),
    }
