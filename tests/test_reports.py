"""Structured documents: a malformed document ends in a library error, never a traceback.

Every document is mutated field by field and line by line.  Each mutant
must either raise ParseError (or ValidationFailed, when well-formed fields
describe an invalid basis) or parse into a value whose rendering gives
back the mutant's own fields.  An lrr mutant that differs from the
original must raise ParseError.
"""

import random

import pytest

from pgroebner import (
    POT,
    TOP,
    ParseError,
    Poly,
    SequenceInput,
    ValidationFailed,
    Zpr,
    buchberger,
    build_p_basis,
    enumerate_shortest,
    format_poly,
    parse_matrix,
    shortest_lrr,
)
from pgroebner.reports import (
    _lines,
    _poly_lines,
    lrr_doc,
    parse_gb_doc,
    parse_lrr_doc,
    parse_p_basis_doc,
    render_gb_doc,
    render_lrr_doc,
    render_p_basis_doc,
)
from conftest import GEN_Z9A, Z8, Z9

KINDS = {
    "groebner-basis": (parse_gb_doc, render_gb_doc),
    "p-basis": (parse_p_basis_doc, render_p_basis_doc),
    "lrr-solution": (parse_lrr_doc, render_lrr_doc),
}
BAD_VALUES = ("x", "", "-1", "1,,2", "over-cap", "[1, x, x^2]")


def _lrr_text(ring, seq, over_cap=False):
    sol = shortest_lrr(SequenceInput(ring, seq))
    return render_lrr_doc(lrr_doc(sol, None if over_cap else enumerate_shortest(sol)))


def _documents():
    docs = []
    for ring, text in ((Z9, GEN_Z9A), (Z8, "[x^2+2, 4x, 1]\n[2x, x^3, 0]\n[4, 2x+2, x]\n")):
        for order in (TOP, POT):
            G = buchberger(parse_matrix(ring, text), order)
            docs += [render_gb_doc(G), render_p_basis_doc(build_p_basis(G))]
    for ring, seq in ((Z9, (1, 4, 4, 7, 7)), (Z8, (1, 2, 5, 2, 7, 6)), (Zpr(65521, 1), (1, 2, 3, 5))):
        docs += [_lrr_text(ring, seq), _lrr_text(ring, seq, over_cap=True)]
    return docs


def _mutants(text):
    lines = text.splitlines()
    for i, line in enumerate(lines):
        key = line.split(":", 1)[0]
        for bad in BAD_VALUES:
            yield lines[:i] + [f"{key}: {bad}"] + lines[i + 1:]
        yield lines[:i] + lines[i + 1:]
        yield lines[:i + 1] + [line] + lines[i + 1:]
        if i + 1 < len(lines):
            yield lines[:i] + [lines[i + 1], line] + lines[i + 2:]


def _assert_error_or_faithful(kind, text):
    parse, render = KINDS[kind]
    try:
        value = parse(text)
    except (ParseError, ValidationFailed):
        return
    assert _lines(render(value)) == _lines(text), text[:300]


def test_mutated_documents_fail_cleanly_or_parse_faithfully():
    changed_lrr = 0
    for text in _documents():
        kind = _lines(text)[0][1]
        for lines in _mutants(text):
            mutant = "\n".join(lines) + "\n"
            if kind == "lrr-solution" and mutant != text:
                # 35 of these parsed while companion, pivot, the param order
                # and the monic: lines were taken on trust
                changed_lrr += 1
                with pytest.raises(ParseError):
                    parse_lrr_doc(mutant)
            else:
                _assert_error_or_faithful(kind, mutant)
    assert changed_lrr == 693


def _edited(text, key, value):
    lines = text.splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(f"{key}:"))
    return "\n".join(lines[:i] + [f"{key}: {value}"] + lines[i + 1:]) + "\n"


def _gb_text():
    return render_gb_doc(buchberger(parse_matrix(Z9, GEN_Z9A), TOP))


def _lrr_z9_text():
    return _lrr_text(Z9, (1, 4, 4, 7, 7))


def _p_basis_text(order):
    return render_p_basis_doc(build_p_basis(buchberger(parse_matrix(Z9, GEN_Z9A), order)))


def _first_vec_lines_swapped(text):
    lines = text.splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("vec:"))
    return "\n".join(lines[:i] + [lines[i + 1], lines[i]] + lines[i + 2:]) + "\n"


NONCANONICAL_G1 = "[x^2+3x+1, x^5+4x^4+4x^3+8x^2+2x]"

NAMED_CASES = {
    "wrong-lead": lambda: _edited(_gb_text(), "lead", "pos=2 deg=5 ord=2 lc=8"),
    "wrong-betas": lambda: _edited(_gb_text(), "betas", "1,1,1,2"),
    "wrong-size": lambda: _edited(_gb_text(), "size", "3"),
    "residue-above-modulus": lambda: _edited(_gb_text(), "elem", "[17, x^5+4x^4+4x^3+7x^2+7x]"),
    "noncanonical-vector": lambda: _edited(_gb_text(), "elem", "[8,x^5+4x^4+4x^3+7x^2+7x]"),
    # g1+g3: g3 has lc 1 and covers x^2*e1, which buchberger cancels
    "uncancelled-gb-tail": lambda: _edited(_gb_text(), "elem", NONCANONICAL_G1),
    "uncancelled-p-basis-tail": lambda: _edited(
        _p_basis_text(TOP), "vec", f"{NONCANONICAL_G1} src=1 pow=0"
    ),
    "wrong-p-basis-n": lambda: _edited(_p_basis_text(POT), "n", "3"),
    # two source elements, and g with p*g: every line stays well-formed
    "swapped-p-basis-sources": lambda: _first_vec_lines_swapped(_p_basis_text(TOP)),
    "swapped-p-basis-powers": lambda: _first_vec_lines_swapped(_p_basis_text(POT)),
    "wrong-pivot-digits": lambda: _edited(
        _lrr_text(Zpr(5, 1), (1, 4, 3, 3, 2)), "pivot-digits", "1,2"
    ),
    "wrong-monic-count": lambda: _edited(_lrr_z9_text(), "monic-count", "2"),
    "wrong-lrr-n": lambda: _edited(_lrr_z9_text(), "n", "4"),
    "sequence-residue-above-modulus": lambda: _edited(_lrr_z9_text(), "seq", "1,4,4,7,16"),
    "negative-length": lambda: _edited(_lrr_z9_text(), "length", "-1"),
    "shortest-not-a-recurrence": lambda: _edited(_lrr_z9_text(), "shortest", "x"),
    "wrong-companion": lambda: _edited(_lrr_z9_text(), "companion", "8x^2+5x+1"),
    "wrong-pivot": lambda: _edited(_lrr_z9_text(), "pivot", "1"),
    # ascending, shortest kept, but x^2+4 does not annihilate 1,4,4,7,7
    "monic-not-a-recurrence": lambda: _lrr_z9_text().replace("monic: x^2+5\n", "monic: x^2+4\n"),
    # the params give 3 monic recurrences, and 2 is not the --all count 2*3^2 either
    "incomplete-monic-set": lambda: _edited(
        _lrr_z9_text().replace("monic: x^2+6x+8\n", ""), "monic-count", "2"
    ),
    # 5x^2+7 = 5(x^2+5) stays ascending with a unit lc, but 3 lines is the monic count
    "non-monic-line-in-monic-set": lambda: _lrr_z9_text().replace(
        "monic: x^2+5\n", "monic: 5x^2+7\n"
    ),
    # the counts would be 3^(10^9) and more: the parser must refuse it before counting
    "param-budget-past-length": lambda: _edited(
        _lrr_z9_text(), "param", "3x+6 budget=1000000000"
    ),
    # four params make the pivot 2r - 4 = 0
    "pivot-below-one": lambda: _edited(_lrr_z9_text(), "pivot", "0").replace(
        "param: 3x+6 budget=1\n", "param: 3x+6 budget=1\n" * 4
    ),
    # no p-basis vector after the pivot has first component 0; it keeps the count
    "zero-param": lambda: _edited(_lrr_z9_text(), "pivot", "2").replace(
        "param: 3x+6 budget=1\n", "param: 0 budget=0\nparam: 3x+6 budget=1\n"
    ),
}


@pytest.mark.parametrize("case", NAMED_CASES)
def test_inconsistent_or_noncanonical_fields_are_parse_errors(case):
    text = NAMED_CASES[case]()
    with pytest.raises(ParseError):
        KINDS[_lines(text)[0][1]][0](text)


def test_param_budget_is_refused_before_the_count():
    with pytest.raises(ParseError, match="past degree length"):
        parse_lrr_doc(NAMED_CASES["param-budget-past-length"]())


def test_basis_with_an_element_zero_in_the_documents_ring_fails_validation():
    # over Z_3 the element [3x+6, 3x] of the Z_9 basis is zero
    with pytest.raises(ValidationFailed, match="zero element"):
        parse_gb_doc(_edited(_gb_text(), "r", "1"))


def test_column_formatter_equals_format_poly():
    rng = random.Random(65521)
    cases = []
    for ring in (Z8, Z9, Zpr(2, 1), Zpr(65521, 1)):
        m = ring.modulus
        # zero, degree 0 with 1 and other constants, x^k with coefficient 1
        fixed = [Poly(ring, ()), Poly(ring, (1,)), Poly(ring, (m - 1,)), Poly(ring, (0, 1)),
                 Poly(ring, (1, 1)), Poly(ring, (1, 0, 0, 1)), Poly(ring, (0, 0, m - 1))]
        mixed = fixed + [Poly(ring, [rng.choice((0, 1, rng.randrange(m))) for _ in range(k)])
                         for k in (rng.randrange(0, 14) for _ in range(60))]
        rng.shuffle(mixed)
        # below 16 lines format_poly formats them; from 16 on, the columns do
        cases += [fixed, fixed * 3, mixed, [Poly(ring, ())], [Poly(ring, ())] * 20, mixed[:1],
                  mixed[:15], mixed[:16], []]
    for polys in cases:
        for prefix in ("monic: ", "  ", ""):
            want = "\n".join(prefix + format_poly(f) for f in polys)
            assert "\n".join(_poly_lines(prefix, polys)) == want, [str(f) for f in polys]
            assert "\n".join(_poly_lines(prefix, tuple(polys))) == want
