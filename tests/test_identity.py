"""Output identity: every rendered byte of a seeded population, pinned by digest.

The population covers q = 1..4 modules over Z_2 .. Z_256, Z_3 .. Z_81 and
Z_25 under TOP and POT, and sequences up to Z_65521.  Each output family
has its own digest, so a failure names the family whose bytes moved.  A
change that means to alter these bytes must say so and pin new digests;
one that means to keep them must leave this file alone.
"""

import hashlib
import random

from pgroebner import (
    POT,
    TOP,
    EnumerationTooLarge,
    Monomial,
    Poly,
    PolyVec,
    SequenceInput,
    Zpr,
    buchberger,
    build_p_basis,
    enumerate_shortest,
    format_poly,
    p_represent,
    shortest_lrr,
)
from pgroebner.polyvec import combine
from pgroebner.reports import (
    lrr_doc,
    parse_gb_doc,
    parse_lrr_doc,
    parse_p_basis_doc,
    render_gb_doc,
    render_gb_human,
    render_lrr_doc,
    render_lrr_human,
    render_p_basis_doc,
    render_p_basis_human,
)

MODULE_RINGS = [Zpr(2, r) for r in range(1, 9)] + [Zpr(3, r) for r in range(1, 5)] + [Zpr(5, 2)]
SEQUENCE_RINGS = MODULE_RINGS + [Zpr(7, 1), Zpr(251, 1), Zpr(65521, 1)]
ENUM_CAP = 1 << 12

# sha256 of each family, computed before the document parsers were rebuilt
PINNED = {
    "gb-doc": "4203248e38017167b4c105f0a394b22680690baecc67c8162275ea972bb7f6c8",
    "gb-human": "5e6f0ee335dfb6e48b40558db7ba1ff2897c1ff2764733b8edab8eb849705c24",
    "p-basis-doc": "c2d2c50ce9feb93b397fba94f52b63c199a29a191fb3f86283ad9e261b214ab5",
    "p-basis-human": "1c6967a5f8fc8a39fed0ed4246ac74bf66f95cd03740933d287c26717f56c13c",
    "p-represent": "8dfaf27a27013223059eb368ff817060653ed62b9f517a6ac1586336349160a5",
    "lrr-doc": "9c40bd6208e29c9ab04795d910c0cf9ef8de42804c202fc5105d7821977abaf3",
    # re-pinned when --all reports began to say "unit-leading-coefficient" for
    # lists that hold non-monic recurrences; only that label moved
    "lrr-human": "6675981e5ae48abba03ad545fa6521d7ac51bc70e259775c8a2b9989a1c0cbf2",
}


def _rows(rng, ring, q):
    rows, size = [], rng.randrange(1, 4)
    while len(rows) < size:
        terms = {
            Monomial(rng.randrange(4), rng.randrange(1, q + 1)):
                rng.randrange(ring.modulus) * ring.p ** rng.randrange(ring.r)
            for _ in range(rng.randrange(1, 5))
        }
        if any(c % ring.modulus for c in terms.values()):
            rows.append(PolyVec(ring, q, terms))
    return rows


def _enumerated(sol, monic_only):
    try:
        return enumerate_shortest(sol, monic_only=monic_only, cap=ENUM_CAP)
    except EnumerationTooLarge:
        return None


def _outputs():
    rng = random.Random(20091)
    out = {family: [] for family in PINNED}
    for k in range(120):
        ring = MODULE_RINGS[k % len(MODULE_RINGS)]
        rows = _rows(rng, ring, 1 + k % 4)
        for order in (TOP, POT):
            G = buchberger(rows, order)
            basis = build_p_basis(G)
            out["gb-doc"].append(render_gb_doc(G))
            out["gb-human"].append(render_gb_human(G))
            out["p-basis-doc"].append(render_p_basis_doc(basis))
            out["p-basis-human"].append(render_p_basis_human(basis))
            a = [Poly(ring, [rng.randrange(ring.modulus) for _ in range(3)]) for _ in rows]
            coeffs = p_represent(combine(a, rows), basis)
            out["p-represent"].append(";".join(format_poly(c) for c in coeffs))
    for k in range(150):
        ring = SEQUENCE_RINGS[k % len(SEQUENCE_RINGS)]
        values = tuple(rng.randrange(ring.modulus) for _ in range(1 + k % 9))
        sol = shortest_lrr(SequenceInput(ring, values))
        for monic_only in (True, False):
            found = _enumerated(sol, monic_only)
            out["lrr-doc"].append(render_lrr_doc(lrr_doc(sol, found)))
            out["lrr-human"].append(render_lrr_human(sol, found))
    return out


def test_rendered_bytes_match_the_pinned_digests():
    out = _outputs()
    for doc in out["gb-doc"]:
        assert render_gb_doc(parse_gb_doc(doc)) == doc
    for doc in out["p-basis-doc"]:
        assert render_p_basis_doc(parse_p_basis_doc(doc)) == doc
    for doc in out["lrr-doc"]:
        assert render_lrr_doc(parse_lrr_doc(doc)) == doc
    digests = {
        family: hashlib.sha256("\x00".join(texts).encode()).hexdigest()
        for family, texts in out.items()
    }
    assert digests == PINNED
