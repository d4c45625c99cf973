"""Human and structured text renderings of bases and recurrence solutions.

Structured documents are single self-describing `key: value` texts with a
leading `doc:` line; they are parsed back into the library's objects and
re-emitting a parsed document reproduces it byte for byte.  Three kinds
exist: groebner-basis, p-basis, and lrr-solution (formats documented in
the README).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError
from .groebner import GroebnerBasis
from .lrr import LrrSolution
from .pbasis import PBasis, format_p_basis, order_differences
from .polyvec import (
    Monomial,
    MonomialOrder,
    Poly,
    format_poly,
    format_vector,
    parse_poly,
    parse_vector,
)
from .ring import Zpr

# Long lists (65520 pivot digits at p = 65521, up to 65536 `monic:` lines)
# are rendered and joined this many items at a time: a string per item for
# all of them at once would take several times the finished text's memory.
JOIN_CHUNK = 1024


def _join(sep: str, items, fmt=str) -> str:
    """sep.join(map(fmt, items)) for a sequence, built a chunk at a time."""
    return sep.join(
        sep.join(map(fmt, items[k:k + JOIN_CHUNK])) for k in range(0, len(items), JOIN_CHUNK)
    )


def format_monomial(m: Monomial) -> str:
    if m.alpha == 0:
        return f"e{m.pos}"
    x = "x" if m.alpha == 1 else f"x^{m.alpha}"
    return f"{x}*e{m.pos}"


def _betas_csv(betas) -> str:
    return ",".join(str(b) for b in betas)


# -- structured documents ------------------------------------------------------


def _lines(text: str) -> list[tuple[str, str]]:
    out = []
    for raw in text.splitlines():
        if not raw.strip():
            continue
        if ":" not in raw:
            raise ParseError(f"expected 'key: value', got {raw!r}")
        key, value = raw.split(":", 1)
        out.append((key.strip(), value.strip()))
    return out


def _take(fields: list[tuple[str, str]], key: str) -> str:
    if not fields or fields[0][0] != key:
        found = fields[0][0] if fields else "end of document"
        raise ParseError(f"expected field {key!r}, found {found!r}")
    return fields.pop(0)[1]


def _take_all(fields: list[tuple[str, str]], key: str) -> list[str]:
    out = []
    while fields and fields[0][0] == key:
        out.append(fields.pop(0)[1])
    return out


def _parse_header(fields: list[tuple[str, str]]) -> tuple[Zpr, int, MonomialOrder]:
    p = int(_take(fields, "p"))
    r = int(_take(fields, "r"))
    q = int(_take(fields, "q"))
    order = MonomialOrder(_take(fields, "order"))
    return Zpr(p, r), q, order


def render_gb_doc(G: GroebnerBasis) -> str:
    ring = G.ring
    lines = [
        "doc: groebner-basis",
        f"p: {ring.p}",
        f"r: {ring.r}",
        f"q: {G.q}",
        f"order: {G.order.value}",
        f"size: {len(G)}",
    ]
    lines += [f"elem: {format_vector(g)}" for g in G.elements]
    lines += [
        f"lead: pos={d.lpos} deg={d.deg} ord={d.ord} lc={d.lc}" for d in G.leads
    ]
    lines.append(f"betas: {_betas_csv(order_differences(G).betas)}")
    return "\n".join(lines) + "\n"


def parse_gb_doc(text: str) -> GroebnerBasis:
    fields = _lines(text)
    if _take(fields, "doc") != "groebner-basis":
        raise ParseError("not a groebner-basis document")
    ring, q, order = _parse_header(fields)
    size = int(_take(fields, "size"))
    rows = [parse_vector(ring, s) for s in _take_all(fields, "elem")]
    _take_all(fields, "lead")
    _take(fields, "betas")
    if fields:
        raise ParseError(f"unexpected trailing field {fields[0][0]!r}")
    if len(rows) != size or any(r.q != q for r in rows):
        raise ParseError("inconsistent groebner-basis document")
    return GroebnerBasis(order, tuple(rows))


def render_p_basis_doc(basis: PBasis) -> str:
    ring = basis.ring
    lines = [
        "doc: p-basis",
        f"p: {ring.p}",
        f"r: {ring.r}",
        f"q: {basis.vectors[0].q}",
        f"order: {basis.order.value}",
        f"n: {basis.N}",
        f"betas: {_betas_csv(basis.betas)}",
    ]
    for v, (src, power) in zip(basis.vectors, basis.provenance):
        lines.append(f"vec: {format_vector(v)} src={src + 1} pow={power}")
    return "\n".join(lines) + "\n"


def parse_p_basis_doc(text: str) -> PBasis:
    fields = _lines(text)
    if _take(fields, "doc") != "p-basis":
        raise ParseError("not a p-basis document")
    ring, q, order = _parse_header(fields)
    n = int(_take(fields, "n"))
    betas = tuple(int(b) for b in _take(fields, "betas").split(","))
    vectors = []
    provenance = []
    for entry in _take_all(fields, "vec"):
        try:
            vec_text, src_text, pow_text = entry.rsplit(" ", 2)
            src = int(src_text.removeprefix("src="))
            power = int(pow_text.removeprefix("pow="))
        except ValueError as exc:
            raise ParseError(f"bad vec entry {entry!r}") from exc
        vectors.append(parse_vector(ring, vec_text))
        provenance.append((src - 1, power))
    if fields:
        raise ParseError(f"unexpected trailing field {fields[0][0]!r}")
    if len(vectors) != n or sum(betas) != n or any(v.q != q for v in vectors):
        raise ParseError("inconsistent p-basis document")
    return PBasis(order, tuple(vectors), tuple(provenance), betas)


@dataclass(frozen=True)
class LrrDoc:
    """Parsed form of an lrr-solution document."""

    ring: Zpr
    sequence: tuple[int, ...]
    shortest: Poly
    length: int
    companion: Poly
    pivot_index: int
    pivot_digits: tuple[int, ...] | range  # the solution's range, or parsed
    params: tuple[tuple[Poly, int], ...]
    monic: tuple[Poly, ...] | None  # None when enumeration exceeded the cap


def lrr_doc(sol: LrrSolution, monic: list[Poly] | None) -> LrrDoc:
    return LrrDoc(
        ring=sol.ring,
        sequence=sol.sequence,
        shortest=sol.shortest,
        length=sol.length,
        companion=sol.companion,
        pivot_index=sol.pivot_index,
        pivot_digits=sol.pivot_digit_range,
        params=sol.param_basis,
        monic=tuple(monic) if monic is not None else None,
    )


def render_lrr_doc(doc: LrrDoc) -> str:
    ring = doc.ring
    lines = [
        "doc: lrr-solution",
        f"p: {ring.p}",
        f"r: {ring.r}",
        f"n: {len(doc.sequence)}",
        f"seq: {','.join(str(v) for v in doc.sequence)}",
        f"shortest: {format_poly(doc.shortest)}",
        f"length: {doc.length}",
        f"companion: {format_poly(doc.companion)}",
        f"pivot: {doc.pivot_index + 1}",
        f"pivot-digits: {_join(',', doc.pivot_digits)}",
    ]
    for d, budget in doc.params:
        lines.append(f"param: {format_poly(d)} budget={budget}")
    if doc.monic is None:
        lines.append("monic-count: over-cap")
    else:
        lines.append(f"monic-count: {len(doc.monic)}")
        if doc.monic:
            lines.append(_join("\n", doc.monic, lambda f: f"monic: {format_poly(f)}"))
    lines.append("")  # the final newline, without copying the whole text once more
    return "\n".join(lines)


def parse_lrr_doc(text: str) -> LrrDoc:
    fields = _lines(text)
    if _take(fields, "doc") != "lrr-solution":
        raise ParseError("not an lrr-solution document")
    ring = Zpr(int(_take(fields, "p")), int(_take(fields, "r")))
    n = int(_take(fields, "n"))
    seq = tuple(int(v) for v in _take(fields, "seq").split(","))
    shortest = parse_poly(ring, _take(fields, "shortest"))
    length = int(_take(fields, "length"))
    companion = parse_poly(ring, _take(fields, "companion"))
    pivot = int(_take(fields, "pivot")) - 1
    digits = tuple(int(d) for d in _take(fields, "pivot-digits").split(","))
    if digits == tuple(range(1, ring.p)):
        digits = range(1, ring.p)  # as lrr_doc holds them, so that the two compare equal
    params = []
    for entry in _take_all(fields, "param"):
        poly_text, budget_text = entry.rsplit(" ", 1)
        params.append(
            (parse_poly(ring, poly_text), int(budget_text.removeprefix("budget=")))
        )
    count_text = _take(fields, "monic-count")
    if count_text == "over-cap":
        monic: tuple[Poly, ...] | None = None
    else:
        monic = tuple(parse_poly(ring, s) for s in _take_all(fields, "monic"))
        if len(monic) != int(count_text):
            raise ParseError("monic-count does not match the monic entries")
    if fields:
        raise ParseError(f"unexpected trailing field {fields[0][0]!r}")
    if len(seq) != n:
        raise ParseError("sequence length mismatch")
    return LrrDoc(
        ring, seq, shortest, length, companion, pivot, digits, tuple(params), monic
    )


# -- human renderings ------------------------------------------------------------


def render_gb_human(G: GroebnerBasis) -> str:
    ring = G.ring
    lines = [
        f"minimal Groebner basis over {ring} "
        f"({G.order.value}, q={G.q}): {len(G)} element(s)"
    ]
    for i, g in enumerate(G.elements, start=1):
        lines.append(f"  g{i} = {format_vector(g)}")
    lines.append("leading data:")
    for i, d in enumerate(G.leads, start=1):
        lines.append(
            f"  g{i}: lm={format_monomial(d.lm)} lc={d.lc} "
            f"lpos={d.lpos} deg={d.deg} ord={d.ord}"
        )
    lines.append(f"order differences: ({_betas_csv(order_differences(G).betas)})")
    return "\n".join(lines) + "\n"


def render_p_basis_human(basis: PBasis) -> str:
    ring = basis.ring
    lines = [f"minimal Groebner p-basis over {ring} ({basis.order.value}):"]
    for i, (v, (src, power)) in enumerate(
        zip(basis.vectors, basis.provenance), start=1
    ):
        origin = f"g{src + 1}" if power == 0 else f"p^{power}*g{src + 1}"
        lines.append(f"  v{i} = {origin:>8} = {format_vector(v)}")
    lines.append(f"p-dimension: {basis.N}")
    lines.append(format_p_basis(basis))
    return "\n".join(lines) + "\n"


def parametrization_template(sol: LrrSolution) -> list[str]:
    ring = sol.ring
    digit_set = "{" + ",".join(str(d) for d in range(ring.p)) + "}"
    pieces = [f"q0*({format_poly(sol.shortest)})"]
    constraints = [
        f"q0: nonzero digit in {{{_join(',', sol.pivot_digit_range)}}}"
    ]
    for i, (d, budget) in enumerate(sol.param_basis, start=1):
        pieces.append(f"q{i}*({format_poly(d)})")
        constraints.append(
            f"q{i}: polynomial with coefficients in {digit_set}, deg <= {budget}"
        )
    lines = ["all shortest recurrences: " + " + ".join(pieces)]
    lines += [f"  {c}" for c in constraints]
    return lines


def render_lrr_human(sol: LrrSolution, monic: list[Poly] | None) -> str:
    lines = [
        f"sequence {','.join(str(v) for v in sol.sequence)} over {sol.ring}",
        f"shortest recurrence: {format_poly(sol.shortest)}  (length {sol.length})",
    ]
    lines += parametrization_template(sol)
    if monic is None:
        lines.append("monic set: enumeration exceeds the configured cap")
    else:
        lines.append(f"monic shortest recurrences ({len(monic)}):")
        lines += [f"  {format_poly(f)}" for f in monic]
    return "\n".join(lines) + "\n"
