"""Exact sparse polynomial arithmetic in several named variables.

A :class:`MultiPoly` maps exponent tuples (one entry per variable in an
ordered ambient variable list) to nonzero coefficients.  Coefficients are
Python ints or :class:`fractions.Fraction`, so every operation is exact.
Two polynomials are equal iff they share the same variable list and the
same term map; zero-coefficient terms are never stored.

The term order used for printing, leading terms and sign normalization is
graded lexicographic: higher total degree first, ties broken by comparing
exponent tuples left to right.  Variable lists of the form ``c0, c1, ...``
with at most 26 entries print as the letters ``A, B, ...`` so that small
generators stay readable.

The minors of a :class:`PolyMatrix` come from one memoised Laplace
expansion that shares sub-minors on ``(rows, columns)``.  Each minor is
built in one term dictionary: entry terms times cofactor terms are added
into it directly (a fused multiply-accumulate), and the coefficients that
cancel are dropped once at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod
from operator import add
from typing import Iterable, Iterator, Sequence

_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _grlex(exps):
    return (sum(exps), exps)


class MultiPoly:
    """Sparse exact polynomial over an ordered tuple of variable names."""

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, variables, terms: "dict | None" = None):
        vars_ = tuple(variables)
        nv = len(vars_)
        acc = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nv:
                raise ValueError(
                    f"exponent tuple of length {len(exps)} in a ring with {nv} variables"
                )
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if coeff:
                total = acc.get(exps, 0) + coeff
                if total:
                    acc[exps] = total
                elif exps in acc:
                    del acc[exps]
        self.vars = vars_
        self.terms = acc
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables) -> "MultiPoly":
        return cls(variables)

    @classmethod
    def constant(cls, variables, value) -> "MultiPoly":
        vars_ = tuple(variables)
        return cls(vars_, {(0,) * len(vars_): value})

    @classmethod
    def variable(cls, variables, name: str) -> "MultiPoly":
        vars_ = tuple(variables)
        idx = vars_.index(name)
        exps = [0] * len(vars_)
        exps[idx] = 1
        return cls(vars_, {tuple(exps): 1})

    # -- basic queries -----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def total_degree(self) -> int:
        """Max term degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def leading_term(self):
        """(exponents, coefficient) of the graded-lex maximal term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=_grlex)
        return exps, self.terms[exps]

    def sign_normalized(self) -> "MultiPoly":
        """Flip the sign if needed so the leading coefficient is positive."""
        if not self.terms:
            return self
        _, coeff = self.leading_term()
        return -self if coeff < 0 else self

    def content(self) -> int:
        """Positive gcd of the integer coefficients (1 if any is fractional)."""
        coeffs = self.terms.values()
        if any(c.denominator != 1 for c in coeffs):
            return 1
        return gcd(*(c.numerator for c in coeffs)) or 1

    def primitive_part(self) -> "MultiPoly":
        g = self.content()
        if g == 1:
            return self
        res = MultiPoly(self.vars)
        res.terms = {e: c // g for e, c in self.terms.items()}
        return res

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.vars != self.vars:
                raise ValueError(
                    f"mixed variable lists: {self.vars} vs {other.vars}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.constant(self.vars, other)
        return NotImplemented

    # Results built from valid operands are valid, so the operators below
    # set ``terms`` directly instead of re-checking every exponent tuple in
    # the constructor.

    def __neg__(self) -> "MultiPoly":
        res = MultiPoly(self.vars)
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            total = out.get(e, 0) + c
            if total:
                out[e] = total
            elif e in out:
                del out[e]
        res = MultiPoly(self.vars)
        res.terms = out
        return res

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                total = out.get(e, 0) + c1 * c2
                if total:
                    out[e] = total
                elif e in out:
                    del out[e]
        res = MultiPoly(self.vars)
        res.terms = out
        return res

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        result = MultiPoly.constant(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- evaluation and calculus -------------------------------------------

    def evaluate(self, point: Sequence) -> Fraction:
        """Exact value at ``point``, one rational per variable in ring order;
        see :func:`evaluate_many`."""
        return next(evaluate_many((self,), point))

    def differentiate(self, name: str) -> "MultiPoly":
        idx = self.vars.index(name)
        out = {}
        for exps, coeff in self.terms.items():
            e = exps[idx]
            if e:
                lowered = exps[:idx] + (e - 1,) + exps[idx + 1 :]
                out[lowered] = out.get(lowered, 0) + coeff * e
        return MultiPoly(self.vars, out)

    # -- comparison / hashing ------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.vars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.vars, frozenset(self.terms.items())))
        return self._hash

    # -- rendering -----------------------------------------------------------

    def text(self) -> str:
        """Human-readable form, e.g. ``A*D^2 + B^2*E - B*C*D``."""
        if not self.terms:
            return "0"
        letters = len(self.vars) <= 26 and all(v == f"c{i}" for i, v in enumerate(self.vars))
        names = _LETTERS[: len(self.vars)] if letters else self.vars
        pieces = []
        for exps in sorted(self.terms, key=_grlex, reverse=True):
            coeff = self.terms[exps]
            mono = "*".join(
                n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e
            )
            mag = abs(coeff)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            pieces.append(("-" if coeff < 0 else "+", body))
        sign0, body0 = pieces[0]
        out = body0 if sign0 == "+" else "-" + body0
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    __str__ = text

    def __repr__(self):
        return f"MultiPoly({self.text()!r})"

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        """``{"vars": [...], "terms": [{"coeff": "...", "exps": [...]}]}``.

        Coefficients are emitted as decimal strings so arbitrary precision
        survives any JSON reader.
        """
        terms = []
        for exps in sorted(self.terms, key=_grlex, reverse=True):
            coeff = self.terms[exps]
            if isinstance(coeff, Fraction):
                if coeff.denominator != 1:
                    raise ValueError("JSON form supports integer coefficients only")
                coeff = coeff.numerator
            terms.append({"coeff": str(coeff), "exps": list(exps)})
        return {"vars": list(self.vars), "terms": terms}


def evaluate_many(polys: Iterable[MultiPoly], point: Sequence) -> Iterator[Fraction]:
    """Exact values of ``polys`` at ``point``, one ``Fraction`` each, lazily
    and in order, so ``any(evaluate_many(...))`` stops at the first nonzero.

    The polynomials share one ring and ``point`` holds one rational per
    variable, in ring order.  Its denominators are cleared once for the
    whole set: with ``L`` their lcm, a polynomial of total degree ``D`` sums
    ``c * L^(D - deg) * prod (x_i L)^e_i`` over its terms in integers (no
    powers of ``L`` when it is homogeneous) and divides by ``L^D``.
    """
    xs = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in point]
    L = lcm(*[x.denominator for x in xs])
    nums = [x.numerator * (L // x.denominator) for x in xs]
    ring = None
    for p in polys:
        if p.vars != ring:
            if ring is not None:
                raise ValueError(f"mixed variable lists: {ring} vs {p.vars}")
            if len(nums) != len(p.vars):
                raise ValueError(f"point of length {len(nums)} in a ring with {len(p.vars)} variables")
            ring = p.vars
        degs = list(map(sum, p.terms))
        D = max(degs, default=0)
        values = (c * prod(map(pow, nums, e)) for e, c in p.terms.items())
        if min(degs, default=0) < D:
            values = (v * L ** (D - d) for v, d in zip(values, degs))
        yield Fraction(sum(values), L**D)


def symbols(names: Iterable[str]) -> tuple:
    """Atoms of a shared polynomial ring, one per name."""
    vars_ = tuple(names)
    return tuple(MultiPoly.variable(vars_, n) for n in vars_)


def coefficient_symbols(k: int) -> tuple:
    """Symbols ``c0 .. c{k-1}`` for the entries of an end-to-end filter."""
    return symbols(f"c{i}" for i in range(k))


def dedup_generators(tagged: Iterable) -> tuple:
    """Drop zeros, sign-normalize, keep the first of each polynomial up to
    sign and integer content.

    ``tagged`` yields ``(tag, poly)`` pairs; the survivors come back as two
    aligned tuples ``(tags, polys)`` in their original order.
    """
    tags = []
    polys = []
    seen = set()
    for tag, poly in tagged:
        if not poly.terms:
            continue
        poly = poly.sign_normalized()
        # canonical form: sign-normalized (above) primitive part
        key = tuple(sorted(poly.primitive_part().terms.items()))
        if key in seen:
            continue
        seen.add(key)
        tags.append(tag)
        polys.append(poly)
    return tuple(tags), tuple(polys)


# -- polynomial matrices -------------------------------------------------------


@dataclass(frozen=True)
class PolyMatrix:
    """Row-major matrix of polynomials from one shared ring."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"{len(self.entries)} entries for a {self.rows}x{self.cols} matrix"
            )
        if len({e.vars for e in self.entries}) > 1:
            raise ValueError("matrix entries come from different rings")

    @property
    def variables(self) -> tuple:
        return self.entries[0].vars if self.entries else ()

    def entry(self, i: int, j: int) -> MultiPoly:
        return self.entries[i * self.cols + j]

    def text(self) -> str:
        cells = [[self.entry(i, j).text() for j in range(self.cols)] for i in range(self.rows)]
        widths = [max(map(len, col)) for col in zip(*cells)]
        return "\n".join("[ " + "  ".join(c.rjust(w) for c, w in zip(r, widths)) + " ]" for r in cells)


def _cofactor_expansion(m: PolyMatrix):
    """``det(rows, mask)``: the minor on the row tuple ``rows`` and the
    columns set in ``mask``, expanded along ``rows[-1]`` in ascending column
    order.  Sub-minors are memoised in one table per length of the row
    prefix ``rows[:-1]``, emptied when that prefix changes: asked for row
    sets in lexicographic order, each sub-minor is computed once (O(2^n)
    products for a determinant, not n!) and only those of the current row
    prefixes stay alive.

    Each minor is accumulated in one ``{exponents: coefficient}`` dict:
    every term ``c1 x^e1`` of a nonzero entry times every term ``c2 x^e2``
    of its cofactor adds ``+-c1*c2`` at ``e1 + e2``, with no intermediate
    product, negation or sum polynomials.  Coefficients that cancel to zero
    are dropped once, when the minor is finished."""
    vars_ = m.variables
    one = MultiPoly.constant(vars_, 1)
    tables = {}  # prefix length -> (prefix, {mask: minor})

    def det(rows: tuple, mask: int) -> MultiPoly:
        if not rows:
            return one
        above = rows[:-1]
        prefix, table = tables.get(len(above), (None, None))
        if prefix != above:
            table = {}
            tables[len(above)] = (above, table)
        acc = {}
        get = acc.get
        for pos, j in enumerate(j for j in range(m.cols) if (mask >> j) & 1):
            e = m.entry(rows[-1], j)
            if e.terms:
                sub = mask ^ (1 << j)
                if sub not in table:
                    table[sub] = det(above, sub)
                cofactor = table[sub].terms.items()
                odd = (len(above) + pos) % 2
                for e1, c1 in e.terms.items():
                    if odd:
                        c1 = -c1
                    for e2, c2 in cofactor:
                        key = tuple(map(add, e1, e2))
                        acc[key] = get(key, 0) + c1 * c2
        res = MultiPoly(vars_)
        res.terms = {key: c for key, c in acc.items() if c}
        return res

    return det


def determinant(m: PolyMatrix) -> MultiPoly:
    """Exact symbolic determinant: the full-size minor of a square matrix."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    return _cofactor_expansion(m)(tuple(range(m.rows)), (1 << m.rows) - 1)


def minor_expansion(m: PolyMatrix, size: int) -> Iterator:
    """All (row-set, col-set, determinant) triples of the given minor size.

    Enumeration is lexicographic in (row-set, col-set).  One expansion serves
    the whole call, so sub-minors are shared on ``(rows, columns)``.  A square
    matrix at full size has one minor, its :func:`determinant`.  Zero and
    duplicate determinants are kept; see :func:`dedup_generators`.
    """
    if size < 1:
        raise ValueError("minor size must be at least 1")
    if size > min(m.rows, m.cols):
        return
    if size == m.rows == m.cols:
        yield tuple(range(size)), tuple(range(size)), determinant(m)
        return
    det = _cofactor_expansion(m)
    for ri in combinations(range(m.rows), size):
        for ci in combinations(range(m.cols), size):
            yield ri, ci, det(ri, sum(1 << j for j in ci))
