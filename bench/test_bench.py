"""Tests of the benchmark's own code: the r = 1 oracle and the tracer.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import itertools
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pgroebner as pg  # noqa: E402
import pgroebner.reports  # noqa: E402,F401
import workloads  # noqa: E402
from oracle import berlekamp_massey, forward_coeffs, profile_jumps  # noqa: E402
from tracer import Tracer  # noqa: E402


def _short_sequences():
    for p, top in ((2, 8), (3, 5), (5, 3)):
        for n in range(1, top + 1):
            for values in itertools.product(range(p), repeat=n):
                yield p, values
    rng = random.Random(0)
    for p, n in ((5, 4), (7, 4), (7, 5)):
        for _ in range(150):
            yield p, tuple(rng.randrange(p) for _ in range(n))


def test_berlekamp_massey_agrees_with_brute_force():
    checked = 0
    for p, values in _short_sequences():
        seq = pg.SequenceInput(pg.Zpr(p, 1), values)
        length, conn, profile = berlekamp_massey(values, p)
        oracle_length, monic = pg.brute_force_shortest(seq)
        assert length == oracle_length == profile[-1], (p, values)
        assert pg.Poly(seq.ring, forward_coeffs(conn)) in monic, (p, values)
        checked += 1
    assert checked > 1400


def test_profile_jumps_counts_length_changes():
    assert profile_jumps([0, 1, 1, 2, 2, 3]) == 3
    assert profile_jumps([0, 0, 0]) == 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_streams_repeat_for_a_seed_and_differ_across_seeds(name):
    rounds = workloads.WORKLOADS[name].rounds
    first = [next(rounds(7)) for _ in range(2)]
    assert first[0] == first[1]
    assert next(rounds(8)) != first[0]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_and_outputs_are_unchanged(name):
    wl = workloads.WORKLOADS[name]
    batch = sorted(next(wl.rounds(3)), key=lambda inst: len(inst.text))[:8]
    plain = [wl.solve(pg, inst).doc for inst in batch]
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install(pg, workloads)
        try:
            traced = [tracer.run(inst.ident, wl.solve, pg, inst).doc for inst in batch]
        finally:
            tracer.uninstall()
        assert traced == plain
        metrics = tracer.layer_metrics()
        counts.append({k: v for k, v in metrics.items() if not k.endswith("_s")})
        assert metrics["groebner.normal_forms"] > 0
        assert metrics["polyvec.lm_calls"] > 0 and metrics["ring.calls"] > 0
    assert counts[0] == counts[1]
    # uninstall restores the library exactly
    assert pg.PolyVec.lm.__qualname__ == "PolyVec.lm"
    assert pg.groebner.normal_form.__module__ == "pgroebner.groebner"
