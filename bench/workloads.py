"""Seeded instance streams, the pipelines they run, and the output checks.

Each workload is an endless stream of instances, produced in batches from
the seed alone.  Every batch carries nearly the same mix of instance
classes, so a run that stops anywhere has sampled the same mix whatever
the seed.  Inputs are plain text, as the CLI would read them; the library
sees nothing else.

The pipelines call the library through its public API, the same chain as
the matching CLI command.  The checks run outside the timed region.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from oracle import berlekamp_massey, forward_coeffs, profile_jumps

# Completion cap passed to every buchberger call; no workload instance
# comes near it, so reaching it is a failure, not a documented outcome.
MAX_STEPS = 10**5


@dataclass(frozen=True)
class Instance:
    """One input of a workload: what one CLI invocation would read."""

    ident: str
    label: str
    p: int
    r: int
    text: str
    order: str = ""


def _ring_label(p: int, r: int) -> str:
    return f"Z_{p ** r}"


# -- input generation ------------------------------------------------------------


def _format_poly(coeffs: list[int]) -> str:
    """Ascending coefficients in the POLY grammar (descending terms)."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c:
            terms.append(str(c) if k == 0 else f"{c}x" if k == 1 else f"{c}x^{k}")
    return "+".join(terms) or "0"


def _sequence_instance(ident: str, p: int, r: int, values: list[int], label: str = "") -> Instance:
    label = label or f"{_ring_label(p, r)} n={len(values)}"
    return Instance(ident, label, p, r, ",".join(map(str, values)))


# lrr-long mix: (p, r, n_lo, n_hi, every) per slot.  A slot joins every
# `every`-th round with a length from [n_lo, n_hi]; ranges rather than
# fixed lengths keep the time distribution free of gaps, so its median
# and 90th percentile do not jump between clusters from seed to seed.
# The ROADMAP baseline sizes Z_2 n=32, Z_2 n=64 and Z_256 n=16 have slots
# of their own; the last two average 0.8 s and 0.9 s with a tail to 2 s,
# so they come every 8th and 16th round.  The other lengths are held
# where a run of 30 s measures about 200 instances: the spread of the
# contents within a ring and length (solve times vary up to six times)
# leaves a median over 100-odd instances 0.14 apart from seed to seed.
LRR_LONG_SLOTS = (
    (2, 1, 32, 32, 1),
    (2, 1, 24, 44, 1),
    (2, 1, 24, 44, 1),
    (2, 1, 64, 64, 8),
    (2, 8, 8, 10, 1),
    (2, 8, 16, 16, 16),
    (3, 4, 10, 14, 1),
    (3, 4, 10, 14, 1),
    (65521, 1, 12, 16, 1),
)
# Over Z_2 the solve time follows the number of length changes in the
# sequence's linear complexity profile (about 0.9 correlation).  Ranked-
# set sampling on that count keeps the profile distribution of random
# sequences while cutting the spread of each stream prefix: a slot's k-th
# sequence is the (k mod RANKED_SET)-th ranked of RANKED_SET draws.  Over
# Z_65521 every random sequence has the same profile, and for r > 1 no
# count of this kind predicted the time, so those are plain draws.
RANKED_SET = 8


def lrr_long_rounds(seed: int) -> Iterator[list[Instance]]:
    """A slot's lengths run through a seeded permutation of its range.

    Every stretch of rounds then holds the lengths of a range evenly,
    where independent draws would add the spread of the lengths to that
    of the contents.
    """
    rng = random.Random(f"lrr-long:{seed}")
    perms = {slot: rng.sample(range(slot[2], slot[3] + 1), slot[3] - slot[2] + 1) for slot in LRR_LONG_SLOTS}
    # slots alike share a permutation at offsets spread over it
    offsets = [LRR_LONG_SLOTS[:i].count(slot) * len(perms[slot]) // LRR_LONG_SLOTS.count(slot)
               for i, slot in enumerate(LRR_LONG_SLOTS)]
    for k in itertools.count():
        batch = []
        for slot, offset in zip(LRR_LONG_SLOTS, offsets):
            p, r, lo, hi, every = slot
            if k % every:
                continue
            cycle = perms[slot]
            m, n = p**r, cycle[(k // every + offset) % len(cycle)]
            if r == 1 and p == 2:
                draws = [[rng.randrange(m) for _ in range(n)] for _ in range(RANKED_SET)]
                draws.sort(key=lambda s: profile_jumps(berlekamp_massey(s, p)[2]))
                values = draws[(k // every + offset) % RANKED_SET]
            else:
                values = [rng.randrange(m) for _ in range(n)]
            label = f"{_ring_label(p, r)} n={lo}" + (f"..{hi}" if hi > lo else "")
            batch.append(_sequence_instance(f"{k}.{len(batch)}", p, r, values, label))
        rng.shuffle(batch)
        yield batch


MODULE_RINGS = ((7, 1), (2, 3), (2, 4), (5, 2), (3, 3))
MODULE_QS = (2, 3, 4)
MODULE_GENERATORS = (2, 3, 4)
# Entry degrees are drawn from {zero, 0, ..., MODULE_DEGREE}.  Degree 3
# keeps the slowest POT instance near 0.2 s; q = 4 matrices of degree 5
# already reach 0.5 s and the tail grows fast beyond that.
MODULE_DEGREE = 3


def _random_matrix(rng: random.Random, m: int, q: int, k: int) -> str:
    rows = []
    while len(rows) < k:
        comps = []
        for _ in range(q):
            deg = rng.randint(-1, MODULE_DEGREE)
            comps.append([rng.randrange(m) for _ in range(deg + 1)])
        if any(any(c) for c in comps):
            rows.append("[" + ", ".join(_format_poly(c) for c in comps) + "]")
    return "\n".join(rows) + "\n"


def modules_rounds(seed: int) -> Iterator[list[Instance]]:
    """Every matrix appears twice in a row, under TOP and then POT."""
    rng = random.Random(f"modules:{seed}")
    for k in itertools.count():
        mats = []
        for (p, r), q, g in itertools.product(MODULE_RINGS, MODULE_QS, MODULE_GENERATORS):
            mats.append((p, r, q, g, _random_matrix(rng, p**r, q, g)))
        rng.shuffle(mats)
        batch = []
        for i, (p, r, q, g, text) in enumerate(mats):
            for order in ("TOP", "POT"):
                label = f"{_ring_label(p, r)} q={q} k={g} {order}"
                batch.append(Instance(f"{k}.{i}", label, p, r, text, order))
        yield batch


ENUM_SWEEP_RINGS = ((2, 3, (1, 2, 3, 4)), (3, 2, (1, 2, 3, 4)), (2, 2, (5,)))
ENUM_SWEEP_CHUNK = 250


def _spread_order(rng: random.Random, strata: list[list]) -> list:
    """Shuffle each stratum and interleave them evenly.

    Every stretch of the result holds each stratum in proportion to its
    size, so a run that stops anywhere has sampled all of them alike.
    """
    keyed = []
    for members in strata:
        members = list(members)
        rng.shuffle(members)
        size = len(members)
        keyed += [((i + rng.random()) / size, item) for i, item in enumerate(members)]
    keyed.sort(key=lambda pair: pair[0])
    return [item for _, item in keyed]


def enum_sweep_rounds(seed: int) -> Iterator[list[Instance]]:
    """The whole population in a seeded, stratified order, in chunks, repeated.

    Strata are (ring, n, entries divisible by p): sequences of zero
    divisors have the largest parametrizations, up to 100 times the median
    instance, so their share of a run is held fixed.
    """
    strata: dict[tuple, list] = {}
    for p, r, lengths in ENUM_SWEEP_RINGS:
        for n in lengths:
            for values in itertools.product(range(p**r), repeat=n):
                key = (p, r, n, sum(v % p == 0 for v in values))
                strata.setdefault(key, []).append((p, r, values))
    rng = random.Random(f"enum-sweep:{seed}")
    for cycle in itertools.count():
        order = _spread_order(rng, [strata[key] for key in sorted(strata)])
        for start in range(0, len(order), ENUM_SWEEP_CHUNK):
            yield [
                _sequence_instance(f"{cycle}.{start + i}", p, r, list(values))
                for i, (p, r, values) in enumerate(order[start : start + ENUM_SWEEP_CHUNK])
            ]


# -- pipelines ---------------------------------------------------------------------


@dataclass
class LrrOutput:
    seq: Any
    sol: Any
    monic: list | None
    doc: str


@dataclass
class ModulesOutput:
    rows: list
    basis: Any
    pbasis: Any
    doc: str


def read_sequence(pg, inst: Instance):
    """The `lrr --seq` input as a SequenceInput."""
    ring = pg.Zpr(inst.p, inst.r)
    return pg.SequenceInput(ring, tuple(int(v) for v in inst.text.split(",")))


def read_matrix(pg, inst: Instance):
    """The matrix file as generator vectors."""
    return pg.parse_matrix(pg.Zpr(inst.p, inst.r), inst.text)


def solve_lrr(pg, inst: Instance, cap: int) -> LrrOutput:
    """`pgroebner lrr --structured --max-enum CAP`."""
    seq = read_sequence(pg, inst)
    sol = pg.shortest_lrr(seq, max_steps=MAX_STEPS)
    try:
        monic = pg.enumerate_shortest(sol, cap=cap)
    except pg.EnumerationTooLarge:
        monic = None
    doc = pg.reports.render_lrr_doc(pg.reports.lrr_doc(sol, monic))
    return LrrOutput(seq, sol, monic, doc)


def solve_modules(pg, inst: Instance) -> ModulesOutput:
    """`pgroebner pbasis --structured --order ORDER`."""
    rows = read_matrix(pg, inst)
    basis = pg.buchberger(rows, pg.MonomialOrder(inst.order), max_steps=MAX_STEPS)
    pbasis = pg.build_p_basis(basis)
    return ModulesOutput(rows, basis, pbasis, pg.reports.render_p_basis_doc(pbasis))


# -- checks --------------------------------------------------------------------------


def check_lrr(pg, inst: Instance, out: LrrOutput, exhaustive: bool) -> list[str]:
    """Problems with one lrr output; an empty list means it is correct.

    For r = 1 the length is also checked against Berlekamp-Massey, and
    with exhaustive against the library's brute-force oracle.
    """
    problems = []
    seq, sol = out.seq, out.sol
    f = sol.shortest
    if not (f.is_monic() and f.degree == sol.length and pg.is_lrr(f, seq)):
        problems.append("shortest is not a monic recurrence of the reported length")
    if out.monic is not None:
        bad = [g for g in out.monic if not (g.is_monic() and g.degree == sol.length and pg.is_lrr(g, seq))]
        if bad:
            problems.append(f"{len(bad)} enumerated polynomials are not monic recurrences of length {sol.length}")
        if f not in out.monic:
            problems.append("the shortest recurrence is missing from the enumeration")
    if inst.r == 1:
        length, conn, _ = berlekamp_massey(seq.values, inst.p)
        if length != sol.length:
            problems.append(f"Berlekamp-Massey length {length} != {sol.length}")
        elif not pg.is_lrr(pg.Poly(seq.ring, forward_coeffs(conn)), seq):
            problems.append("Berlekamp-Massey recurrence rejected by is_lrr")
    if exhaustive:
        length, sols = pg.brute_force_shortest(seq)
        if length != sol.length:
            problems.append(f"brute-force length {length} != {sol.length}")
        elif out.monic is None or set(sols) != set(out.monic):
            problems.append("brute-force monic set differs from the enumeration")
    return problems


def check_modules(pg, inst: Instance, out: ModulesOutput, p_dims: dict) -> list[str]:
    """Problems with one p-basis output.

    p_dims maps a matrix to the p-dimension found under the other order,
    which must agree: the p-dimension does not depend on the order.
    """
    problems = []
    order = out.basis.order
    elements = list(out.basis.elements)
    if not all(pg.normal_form(g, elements, order).is_zero() for g in out.rows):
        problems.append("a generator does not reduce to 0 modulo G")
    if not pg.is_groebner(elements, order):
        problems.append("G fails the Buchberger criterion")
    # a seeded digit combination of the p-basis must come back unchanged
    ring = out.pbasis.ring
    rng = random.Random(f"{inst.ident}:{inst.order}")
    coeffs = tuple(pg.Poly(ring, [rng.randrange(ring.p) for _ in range(3)]) for _ in out.pbasis.vectors)
    f = pg.PolyVec.zero(ring, out.rows[0].q)
    for a, v in zip(coeffs, out.pbasis.vectors):
        f = f + v.poly_mul(a)
    if pg.p_represent(f, out.pbasis) != coeffs:
        problems.append("p_represent does not round-trip a digit combination")
    dim = pg.p_dim(out.pbasis)
    if p_dims.setdefault(inst.ident, dim) != dim:
        problems.append(f"p_dim {dim} differs from {p_dims[inst.ident]} under the other order")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: Callable[[int], Iterator[list[Instance]]]
    solve: Callable[[Any, Instance], Any]
    # check(pg, instance, output, state) with state a dict kept for one run
    check: Callable[[Any, Instance, Any, dict], list[str]]
    # rounds at the head of the stream that every run completes; the
    # traced run covers exactly these, and so does the document digest
    head_rounds: int


# lrr-long admits the full pivot-digit enumeration of Z_65521 (65520
# tuples) and 2^16 tuples on Z_256; larger parametrizations end in the
# documented EnumerationTooLarge, as `--max-enum 65536` would.
LRR_LONG_CAP = 65536
ENUM_SWEEP_CAP = 10**6

WORKLOADS = {
    "lrr-long": Workload(
        "lrr-long",
        lrr_long_rounds,
        lambda pg, inst: solve_lrr(pg, inst, LRR_LONG_CAP),
        lambda pg, inst, out, state: check_lrr(pg, inst, out, exhaustive=False),
        head_rounds=2,
    ),
    "modules": Workload(
        "modules",
        modules_rounds,
        solve_modules,
        check_modules,
        head_rounds=4,
    ),
    "enum-sweep": Workload(
        "enum-sweep",
        enum_sweep_rounds,
        lambda pg, inst: solve_lrr(pg, inst, ENUM_SWEEP_CAP),
        lambda pg, inst, out, state: check_lrr(pg, inst, out, exhaustive=True),
        head_rounds=4,
    ),
}
