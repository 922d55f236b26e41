"""Exact sparse polynomial arithmetic in several named variables.

A :class:`MultiPoly` maps monomials over an ordered tuple of variable names
to nonzero coefficients.  Coefficients are Python ints or
:class:`fractions.Fraction`, so every operation is exact.  Two polynomials
are equal iff they share the same variable list and the same term map;
zero-coefficient terms are never stored.

Each monomial is stored as one packed int key: one 8-bit field per
variable, the first variable's field most significant, and the total degree
in the bits above them.  A monomial product is the sum of the keys, and the
order of the keys as ints is the graded lexicographic order used for
printing, leading terms and sign normalization: higher total degree first,
ties broken by comparing exponents left to right.  Exponents are therefore
limited to 255; the constructor, products and powers raise ``ValueError``
rather than carry into the next field.  The constructor takes and the
``terms`` property returns ``{exponent tuple: coefficient}``, so no other
module reads the key layout.

Variable lists of the form ``c0, c1, ...`` with at most 26 entries print as
the letters ``A, B, ...`` so that small generators stay readable.

The minors of a :class:`PolyMatrix` come from one memoised Laplace
expansion that shares sub-minors on ``(rows, columns)``.  Each minor is
built in one term dictionary: entry terms times cofactor terms are added
into it directly (a fused multiply-accumulate), and the coefficients that
cancel are dropped once at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm, prod
from operator import add, getitem
from typing import Iterable, Iterator, Sequence

_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
# Bits per exponent field of a packed key, and the largest exponent.
_BITS = 8
_MAX_EXPONENT = (1 << _BITS) - 1


def _exponents(key: int, n: int) -> bytes:
    """The ``n`` exponents of a packed key, first variable first."""
    return (key & ((1 << _BITS * n) - 1)).to_bytes(n, "big")


def _max_exponents(terms, n: int) -> list:
    """Per variable, the largest exponent over the keys ``terms``."""
    top = [0] * n
    for key in terms:
        top = list(map(max, top, _exponents(key, n)))
    return top


def _check_fields(bounds):
    """Raise unless every per-variable exponent bound fits in a field."""
    if max(bounds, default=0) > _MAX_EXPONENT:
        raise ValueError(f"exponent above {_MAX_EXPONENT}")


def _packed(vars_: tuple, terms: dict) -> "MultiPoly":
    """A polynomial on packed keys that are valid for ``vars_``."""
    res = object.__new__(MultiPoly)
    res.vars = vars_
    res._terms = terms
    res._hash = None
    return res


class MultiPoly:
    """Sparse exact polynomial over an ordered tuple of variable names."""

    __slots__ = ("vars", "_terms", "_hash")

    def __init__(self, variables, terms: "dict | None" = None):
        vars_ = tuple(variables)
        nv = len(vars_)
        shift = _BITS * nv
        acc = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nv:
                raise ValueError(
                    f"exponent tuple of length {len(exps)} in a ring with {nv} variables"
                )
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if any(e > _MAX_EXPONENT for e in exps):
                raise ValueError(f"exponent above {_MAX_EXPONENT} in {exps}")
            if coeff:
                key = sum(exps) << shift | int.from_bytes(bytes(exps), "big")
                total = acc.get(key, 0) + coeff
                if total:
                    acc[key] = total
                elif key in acc:
                    del acc[key]
        self.vars = vars_
        self._terms = acc
        self._hash = None

    @property
    def terms(self) -> dict:
        """``{exponent tuple: coefficient}``, a new dict on every access."""
        n = len(self.vars)
        return {tuple(_exponents(key, n)): c for key, c in self._terms.items()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, variables, value) -> "MultiPoly":
        return _packed(tuple(variables), {0: value} if value else {})

    @classmethod
    def variable(cls, variables, name: str) -> "MultiPoly":
        vars_ = tuple(variables)
        n = len(vars_)
        idx = vars_.index(name)
        return _packed(vars_, {1 << _BITS * n | 1 << _BITS * (n - 1 - idx): 1})

    # -- basic queries -----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def total_degree(self) -> int:
        """Max term degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(self._terms) >> _BITS * len(self.vars)

    def leading_term(self):
        """(exponents, coefficient) of the graded-lex maximal term."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        key = max(self._terms)
        return tuple(_exponents(key, len(self.vars))), self._terms[key]

    def sign_normalized(self) -> "MultiPoly":
        """Flip the sign if needed so the leading coefficient is positive."""
        if not self._terms:
            return self
        _, coeff = self.leading_term()
        return -self if coeff < 0 else self

    def content(self) -> int:
        """Positive gcd of the integer coefficients (1 if any is fractional)."""
        coeffs = self._terms.values()
        if any(c.denominator != 1 for c in coeffs):
            return 1
        return gcd(*(c.numerator for c in coeffs)) or 1

    def primitive_part(self) -> "MultiPoly":
        g = self.content()
        if g == 1:
            return self
        return _packed(self.vars, {k: c // g for k, c in self._terms.items()})

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

    def __neg__(self) -> "MultiPoly":
        return _packed(self.vars, {k: -c for k, c in self._terms.items()})

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for k, c in other._terms.items():
            total = out.get(k, 0) + c
            if total:
                out[k] = total
            elif k in out:
                del out[k]
        return _packed(self.vars, out)

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
        a, b = self._terms, other._terms
        n = len(self.vars)
        # a field can only overflow when the total degrees sum past it
        if a and b and (max(a) >> _BITS * n) + (max(b) >> _BITS * n) > _MAX_EXPONENT:
            _check_fields(map(add, _max_exponents(a, n), _max_exponents(b, n)))
        out = {}
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                total = out.get(k, 0) + c1 * c2
                if total:
                    out[k] = total
                elif k in out:
                    del out[k]
        return _packed(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        result = MultiPoly.constant(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- evaluation and calculus -------------------------------------------

    def evaluate(self, point: Sequence) -> Fraction:
        """Exact value at ``point``, one rational per variable in ring order;
        see :func:`evaluate_many`."""
        return next(evaluate_many((self,), point))

    def differentiate(self, name: str) -> "MultiPoly":
        n = len(self.vars)
        field = _BITS * (n - 1 - self.vars.index(name))
        # one less in the variable's field and in the total degree
        step = 1 << _BITS * n | 1 << field
        out = {}
        for k, c in self._terms.items():
            e = k >> field & _MAX_EXPONENT
            if e:
                out[k - step] = c * e
        return _packed(self.vars, out)

    # -- comparison / hashing ------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.vars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.vars, frozenset(self._terms.items())))
        return self._hash

    # -- rendering -----------------------------------------------------------

    def text(self) -> str:
        """Human-readable form, e.g. ``A*D^2 + B^2*E - B*C*D``."""
        if not self._terms:
            return "0"
        monomial = _monomial_texts(self.vars)
        pieces = []
        for k in sorted(self._terms, reverse=True):
            coeff = self._terms[k]
            mono = monomial(k)
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
        n = len(self.vars)
        terms = []
        for k in sorted(self._terms, reverse=True):
            coeff = self._terms[k]
            if isinstance(coeff, Fraction):
                if coeff.denominator != 1:
                    raise ValueError("JSON form supports integer coefficients only")
                coeff = coeff.numerator
            terms.append({"coeff": str(coeff), "exps": list(_exponents(k, n))})
        return {"vars": list(self.vars), "terms": terms}


@lru_cache(maxsize=1)
def _monomial_texts(vars_: tuple):
    """``key -> monomial string`` for ``vars_``, e.g. ``A*D^2``; the empty
    string for the constant monomial.  Strings are memoised for the most
    recent ring only, so the memo holds at most the monomials of one
    generator set."""
    n = len(vars_)
    letters = n <= 26 and all(v == f"c{i}" for i, v in enumerate(vars_))
    names = _LETTERS[:n] if letters else vars_
    memo = {}

    def monomial(key: int) -> str:
        mono = memo.get(key)
        if mono is None:
            mono = memo[key] = "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(names, _exponents(key, n))
                if e
            )
        return mono

    return monomial


def evaluate_many(polys: Iterable[MultiPoly], point: Sequence) -> Iterator[Fraction]:
    """Exact values of ``polys`` at ``point``, one ``Fraction`` each, lazily
    and in order, so ``any(evaluate_many(...))`` stops at the first nonzero.

    The polynomials share one ring and ``point`` holds one rational per
    variable, in ring order.  Its denominators are cleared once for the
    whole set: with ``L`` their lcm, a polynomial of total degree ``D`` sums
    ``c * L^(D - deg) * prod (x_i L)^e_i`` over its terms in integers (no
    powers of ``L`` when it is homogeneous) and divides by ``L^D``.  The
    powers ``(x_i L)^e`` come from one table per point, grown to the
    largest degree seen so far.
    """
    xs = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in point]
    L = lcm(*[x.denominator for x in xs])
    nums = [x.numerator * (L // x.denominator) for x in xs]
    powers = [[1] for _ in nums]  # powers[i][e] == nums[i] ** e, e <= top
    top = 0
    ring = None
    for p in polys:
        if p.vars != ring:
            if ring is not None:
                raise ValueError(f"mixed variable lists: {ring} vs {p.vars}")
            if len(nums) != len(p.vars):
                raise ValueError(f"point of length {len(nums)} in a ring with {len(p.vars)} variables")
            ring = p.vars
            n = len(ring)
            shift = _BITS * n
        terms = p._terms
        D = max(terms, default=0) >> shift
        if D > top:
            for row, x in zip(powers, nums):
                for _ in range(D - top):
                    row.append(row[-1] * x)
            top = D
        values = (c * prod(map(getitem, powers, _exponents(k, n))) for k, c in terms.items())
        if min(terms, default=0) >> shift < D:
            values = (v * L ** (D - (k >> shift)) for v, k in zip(values, terms))
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

    Two polynomials are the same generator when their sign-normalized
    primitive parts are equal as :class:`MultiPoly` values.  ``tagged``
    yields ``(tag, poly)`` pairs; the survivors come back as two aligned
    tuples ``(tags, polys)`` in their original order.
    """
    tags = []
    polys = []
    seen = set()
    for tag, poly in tagged:
        if not poly:
            continue
        poly = poly.sign_normalized()
        key = poly.primitive_part()
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

    Each minor is accumulated in one ``{key: coefficient}`` dict: every term
    ``c1 x^k1`` of a nonzero entry times every term ``c2 x^k2`` of its
    cofactor adds ``+-c1*c2`` at the key ``k1 + k2``, with no intermediate
    product, negation or sum polynomials.  Coefficients that cancel to zero
    are dropped once, when the minor is finished.

    A minor takes one entry from each of at most ``min(rows, cols)`` rows,
    so the exponent fields are checked once for the whole matrix: per
    variable, the largest exponents of that many rows must fit in a field."""
    vars_ = m.variables
    n = len(vars_)
    row_tops = [
        _max_exponents([k for j in range(m.cols) for k in m.entry(i, j)._terms], n)
        for i in range(m.rows)
    ]
    size = min(m.rows, m.cols)
    _check_fields(sum(sorted(col, reverse=True)[:size]) for col in zip(*row_tops))
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
            if e._terms:
                sub = mask ^ (1 << j)
                if sub not in table:
                    table[sub] = det(above, sub)
                cofactor = table[sub]._terms.items()
                odd = (len(above) + pos) % 2
                for k1, c1 in e._terms.items():
                    if odd:
                        c1 = -c1
                    for k2, c2 in cofactor:
                        key = k1 + k2
                        acc[key] = get(key, 0) + c1 * c2
        return _packed(vars_, {key: c for key, c in acc.items() if c})

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
