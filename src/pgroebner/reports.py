"""Human and structured text renderings of bases and recurrence solutions.

Structured documents are single self-describing `key: value` texts with a
leading `doc:` line.  Three kinds exist: groebner-basis, p-basis, and
lrr-solution (formats documented in the README).  Each renderer is the only
statement of its format: a parser reads just the fields that determine the
value, builds it, and accepts the document only if rendering that value
gives back the same fields.  So parse then re-emit is byte-identical, and
anything malformed, inconsistent or non-canonical is a ParseError.  The
mathematics is checked where that is cheap: a p-basis document must be
the one `build_p_basis` derives from its source vectors.  In an
lrr-solution, `shortest` and the `monic:` lines must be recurrences of
`seq` of degree `length` with unit leading coefficients (`shortest`
monic), the `monic:` lines strictly ascending and holding `shortest`;
`companion` must be shortest*S(x) mod x^(n+1), `pivot` at least 1 and
2r minus the number of `param:` lines, and the `param:` budgets must
ascend from 0 with d nonzero and deg d + budget <= `length`.  The number of `monic:`
lines must be the count of shortest recurrences the params give, either
the monic or the `lrr --all` one; at the monic count every line is monic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat, zip_longest

from .errors import ParseError, ValidationFailed
from .groebner import GroebnerBasis
from .lrr import LrrSolution, SequenceInput, _solution_count, build_module, is_lrr
from .pbasis import PBasis, build_p_basis, format_p_basis, order_differences
from .polyvec import (
    Monomial,
    MonomialOrder,
    Poly,
    PolyVec,
    format_poly,
    format_vector,
    parse_poly,
    parse_vector,
)
from .ring import Zpr

# `_poly_lines` joins the up to 65536 `monic:` lines this many at a time: a string
# per line for all of them at once would take several times the text's memory.
JOIN_CHUNK = 1024


def _poly_lines(prefix: str, polys):
    """Yield the lines prefix + format_poly(f) of polys, JOIN_CHUNK lines to a string.

    Each degree's column maps its nonzero coefficients to "+term" strings, and
    a line joins its terms without the first "+".  The zero polynomial enters
    as the one coefficient "0", whose term is "+0".
    """
    for k in range(0, len(polys), JOIN_CHUNK):
        if len(polys) - k < 16:  # on so few lines the dicts cost more than they save
            yield "\n".join(prefix + format_poly(f) for f in polys[k:])
            continue
        cols = [*zip_longest(*[f.coeffs or ("0",) for f in polys[k:k + JOIN_CHUNK]], fillvalue=0)]
        mapped = []
        for alpha in range(len(cols) - 1, -1, -1):
            x = "" if alpha == 0 else "x" if alpha == 1 else f"x^{alpha}"
            term = {c: f"+{c}{x}" if c != 1 or not x else f"+{x}" for c in set(cols[alpha]) if c}
            mapped.append(map(term.get, cols[alpha], repeat("")))
        text = ("\n" + prefix).join(map("".join, zip(*mapped)))
        yield prefix + text[1:].replace("\n" + prefix + "+", "\n" + prefix)


_DIGITS = "0123456789"


def _nonzero_digits(p: int, prefix: str = "") -> str:
    """prefix + ",".join(map(str, range(1, p))), joined once from decimal blocks.

    The template for width w holds ",#s" for every w-digit suffix s in
    ascending order; it is ten replaces of the template for width w - 1 and
    is only built while 10^w < p.  The numbers k*10^w .. (k+1)*10^w - 1,
    k = 1..9, are one replace of "#" by str(k) in it, and since every entry
    of the template is w + 2 characters, the block holding p - 1 is the
    template cut after its first p - k*10^w entries.  At p = 65521 that is
    about 80 C-level string operations in place of formatting 65520 numbers.
    """
    pieces = [prefix + ",".join(_DIGITS[1:p])]
    template, width = ",#", 0
    while 10 ** (width + 1) < p:
        template = "".join(template.replace("#", "#" + d) for d in _DIGITS)
        width += 1
        for k in range(1, 10):
            left = p - k * 10**width
            if left <= 0:
                break
            pieces.append(template[:left * (width + 2)].replace("#", str(k)))
    return "".join(pieces)


_PIVOT_DIGITS = "pivot-digits: "
# (p, the field for p), for the largest p asked for so far; a smaller p's is its
# prefix.  One tuple, so that no caller pairs one p with another p's text.
_kept = (1, _PIVOT_DIGITS)


def _pivot_digits(p: int) -> str:
    """_nonzero_digits(p, "pivot-digits: "), cut from the kept text.

    Of 1..p-1, p - 10^w have more than w digits, so the field has p - 2
    commas and the sum of p - 10^w over the w below the digit count of
    p - 1 in digits.  At the largest p the cut is the kept text itself.
    """
    global _kept
    kept_p, text = _kept
    if p > kept_p:
        text = _nonzero_digits(p, _PIVOT_DIGITS)
        _kept = p, text
    digits = sum(p - 10**w for w in range(len(str(p - 1))))
    return text[:len(_PIVOT_DIGITS) + digits + p - 2]


def format_monomial(m: Monomial) -> str:
    if m.alpha == 0:
        return f"e{m.pos}"
    x = "x" if m.alpha == 1 else f"x^{m.alpha}"
    return f"{x}*e{m.pos}"


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


def _read(fields: list[tuple[str, str]], key: str, convert=str, many: bool = False):
    """convert() of the first `key` value, or the list of all of them when many.

    A missing field, or a value that convert rejects, is a ParseError.
    """
    values = [v for k, v in fields if k == key]
    if not (values or many):
        raise ParseError(f"missing field {key!r}")
    try:
        return [convert(v) for v in values] if many else convert(values[0])
    except ValueError as exc:
        raise ParseError(f"bad {key!r} field: {exc}") from exc


def _checked(value, render, fields: list[tuple[str, str]]):
    """value, if rendering it gives back the document's fields; else a ParseError."""
    for i, (want, got) in enumerate(zip_longest(_lines(render(value)), fields)):
        if want != got:
            raise ParseError(f"field {i + 1} is {got!r:.80}, expected {want!r:.80}")
    return value


def _header(kind: str, ring: Zpr, q: int, order: MonomialOrder) -> list[str]:
    return [f"doc: {kind}", f"p: {ring.p}", f"r: {ring.r}", f"q: {q}", f"order: {order.value}"]


def _parse_header(fields: list[tuple[str, str]], kind: str) -> Zpr:
    if _read(fields, "doc") != kind:
        raise ParseError(f"not a {kind} document")
    p = _read(fields, "p", int)
    return _read(fields, "r", lambda r: Zpr(p, int(r)))


def _canonical_tails(G: GroebnerBasis) -> GroebnerBasis:
    """G, unless a tail term is covered by a unit-lc element: then a ParseError."""
    if GroebnerBasis.from_elements(list(G.elements), G.order) != G:
        raise ParseError("a tail term is covered by a unit-lc element")
    return G


def render_gb_doc(G: GroebnerBasis) -> str:
    lines = _header("groebner-basis", G.ring, G.q, G.order) + [f"size: {len(G)}"]
    lines += [f"elem: {format_vector(g)}" for g in G.elements]
    lines += [
        f"lead: pos={d.lpos} deg={d.deg} ord={d.ord} lc={d.lc}" for d in G.leads
    ]
    lines.append(f"betas: {','.join(map(str, order_differences(G).betas))}")
    return "\n".join(lines) + "\n"


def parse_gb_doc(text: str) -> GroebnerBasis:
    fields = _lines(text)
    ring = _parse_header(fields, "groebner-basis")
    rows = _read(fields, "elem", lambda s: parse_vector(ring, s), many=True)
    G = GroebnerBasis(_read(fields, "order", MonomialOrder), tuple(rows))
    return _checked(_canonical_tails(G), render_gb_doc, fields)


def render_p_basis_doc(basis: PBasis) -> str:
    lines = _header("p-basis", basis.ring, basis.vectors[0].q, basis.order)
    lines += [f"n: {basis.N}", f"betas: {','.join(map(str, basis.betas))}"]
    for v, (src, power) in zip(basis.vectors, basis.provenance):
        lines.append(f"vec: {format_vector(v)} src={src + 1} pow={power}")
    return "\n".join(lines) + "\n"


def parse_p_basis_doc(text: str) -> PBasis:
    """The p-basis that `build_p_basis` derives from the document's pow=0 vectors.

    Those vectors are the source basis, which must pass GroebnerBasis's
    validation, and the derived p-basis, p-generator check included, must
    render back to the document.  A document that fails either is a
    ParseError.
    """
    fields = _lines(text)
    ring = _parse_header(fields, "p-basis")

    def source(entry: str) -> PolyVec | None:
        vec_text, _, pow_text = entry.rsplit(" ", 2)
        return parse_vector(ring, vec_text) if pow_text == "pow=0" else None

    elements = [v for v in _read(fields, "vec", source, many=True) if v is not None]
    try:
        G = GroebnerBasis(_read(fields, "order", MonomialOrder), tuple(elements))
        basis = build_p_basis(_canonical_tails(G))
    except ValidationFailed as exc:
        raise ParseError(f"not a p-basis: {exc}") from exc
    return _checked(basis, render_p_basis_doc, fields)


@dataclass(frozen=True)
class LrrDoc:
    """Parsed form of an lrr-solution document.

    The document's other fields are derived from these: `n` from the
    sequence, `monic-count` from the monic set, and `pivot-digits` is
    always the nonzero digits 1..p-1.
    """

    ring: Zpr
    sequence: tuple[int, ...]
    shortest: Poly
    length: int
    companion: Poly
    pivot_index: int
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
        _pivot_digits(ring.p),  # the join below is its one copy
    ]
    for d, budget in doc.params:
        lines.append(f"param: {format_poly(d)} budget={budget}")
    if doc.monic is None:
        lines.append("monic-count: over-cap")
    else:
        lines.append(f"monic-count: {len(doc.monic)}")
        lines += _poly_lines("monic: ", doc.monic)
    lines.append("")  # the final newline, without copying the whole text once more
    return "\n".join(lines)


def parse_lrr_doc(text: str) -> LrrDoc:
    fields = _lines(text)
    ring = _parse_header(fields, "lrr-solution")

    def poly(s: str) -> Poly:
        return parse_poly(ring, s)

    def param(entry: str) -> tuple[Poly, int]:
        poly_text, budget_text = entry.rsplit(" ", 1)
        return poly(poly_text), int(budget_text.removeprefix("budget="))

    over_cap = _read(fields, "monic-count") == "over-cap"
    doc = LrrDoc(
        ring,
        _read(fields, "seq", lambda s: tuple(ring.reduce(int(v)) for v in s.split(","))),
        _read(fields, "shortest", poly),
        _read(fields, "length", int),
        _read(fields, "companion", poly),
        _read(fields, "pivot", int) - 1,
        tuple(_read(fields, "param", param, many=True)),
        None if over_cap else tuple(_read(fields, "monic", poly, many=True)),
    )
    _checked(doc, render_lrr_doc, fields)
    S = SequenceInput(ring, doc.sequence)

    def recurrence(f: Poly) -> bool:
        """f annihilates seq, has degree length and a unit leading coefficient."""
        return f.degree == doc.length and is_lrr(f, S)

    f = doc.shortest
    if not (f.is_monic() and recurrence(f)):
        raise ParseError("shortest is not a monic recurrence of seq of degree length")
    # [shortest, -companion] lies in the module of [1, -S(x)] and [0, x^(n+1)]
    s_poly = -build_module(S)[0].component(2)
    if doc.companion != Poly(ring, (f * s_poly).coeffs[:S.n + 1]):
        raise ParseError("companion is not shortest*S(x) mod x^(n+1)")
    # that module is free of rank 2, so its p-basis has 2r vectors, and
    # their degrees descend, so the budgets after the pivot ascend
    if not 1 <= doc.pivot_index + 1 == 2 * ring.r - len(doc.params):
        raise ParseError("pivot is not 2r minus the number of params, at least 1")
    budgets = [0] + [budget for _, budget in doc.params]
    if any(a > b for a, b in zip(budgets, budgets[1:])):
        raise ParseError("param budgets do not ascend from 0")
    # the p-basis vectors after the pivot have degree <= length, and [0, h]
    # in the module has degree > n >= length, so d is nonzero; this also
    # keeps the exponent of _solution_count below 2r * (length + 1)
    if any(d.is_zero() or d.degree + budget > doc.length for d, budget in doc.params):
        raise ParseError("a param is zero or reaches past degree length")
    # monic: lines hold the monic solutions, or under `lrr --all` every
    # unit-leading-coefficient one, in ascending coefficient order.  The two
    # counts differ unless p^r = 2, so the count tells the mode.
    if doc.monic is not None:
        keys = [g.coeffs for g in doc.monic]
        monic_mode = len(keys) == _solution_count(ring, doc.params, True)
        if not (monic_mode or len(keys) == _solution_count(ring, doc.params, False)):
            raise ParseError("monic-count is not the number of recurrences the params give")
        if not (all(a < b for a, b in zip(keys, keys[1:])) and f.coeffs in keys
                and all(map(recurrence, doc.monic))):
            raise ParseError("monic lines are not ascending recurrences of seq holding shortest")
        if monic_mode and not all(g.is_monic() for g in doc.monic):
            raise ParseError("a monic line is not monic")
    return doc


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
    lines.append(f"order differences: ({','.join(map(str, order_differences(G).betas))})")
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
    nonzero = _pivot_digits(sol.ring.p)[len(_PIVOT_DIGITS):]  # copied into each line
    pieces = [f"q0*({format_poly(sol.shortest)})"]
    constraints = [f"  q0: nonzero digit in {{{nonzero}}}"]
    for i, (d, budget) in enumerate(sol.param_basis, start=1):
        pieces.append(f"q{i}*({format_poly(d)})")
        constraints.append(
            f"  q{i}: polynomial with coefficients in {{0,{nonzero}}}, deg <= {budget}"
        )
    return ["all shortest recurrences: " + " + ".join(pieces), *constraints]


def render_lrr_human(sol: LrrSolution, monic: list[Poly] | None) -> str:
    """The text report; `monic` is the monic set, or every unit-lc recurrence under --all."""
    lines = [
        f"sequence {','.join(str(v) for v in sol.sequence)} over {sol.ring}",
        f"shortest recurrence: {format_poly(sol.shortest)}  (length {sol.length})",
    ]
    lines += parametrization_template(sol)
    if monic is None:
        lines.append("monic set: enumeration exceeds the configured cap")
    else:
        kind = "monic" if all(f.is_monic() for f in monic) else "unit-leading-coefficient"
        lines.append(f"{kind} shortest recurrences ({len(monic)}):")
        lines += _poly_lines("  ", monic)
    lines.append("")  # the final newline, without copying the whole text once more
    return "\n".join(lines)
