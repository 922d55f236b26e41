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

:func:`evaluate_many` evaluates exactly through a monomial program kept for
the most recent ring: each packed key gets a slot the first time it is
evaluated, after its parent, the key one lower in its lowest nonzero field.
So the values of all monomials at a point fill a table with one
multiplication each, and each polynomial is a sum of coefficients times
table entries.  Each call fills its own table and keeps nothing of the
point, so a generator set at one point takes one :func:`evaluate_many` call.
:func:`nonzero_compositions` runs a program of its own on polynomial values,
to decide which polynomials vanish identically under a substitution.

A matrix is a sequence of equally long rows of polynomials from one ring.
Its minors come from one memoised Laplace expansion that shares sub-minors
on ``(rows, columns)``.  Each minor is
built in one term dictionary: entry terms times cofactor terms are added
into it directly (a fused multiply-accumulate), and the coefficients that
cancel are dropped once at the end.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from math import gcd, lcm
from operator import add, mul
from threading import Lock
from typing import Iterable, Iterator, Sequence

_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
# The value of every vanishing evaluation; a Fraction is immutable.
_ZERO = Fraction(0)
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
        """Exact value at ``point``, one rational per variable in ring order:
        :func:`evaluate_many` of this one polynomial, which fills a table of
        monomial values for this call alone; evaluate a generator set at one
        point with one :func:`evaluate_many` call instead."""
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


class _MonomialProgram(dict):
    """``packed key -> slot`` for the monomials of one ring; see
    :func:`evaluate_many`.

    Slot 0 is the constant monomial.  A key gets the next free slot the
    first time it is looked up, after its parent: the key one lower in its
    lowest nonzero field and in the total degree.  So ``parents[s] < s``,
    and slot ``s`` holds its parent's value times the scaled variable
    ``factors[s]``: a straight-line program of one multiplication per slot.
    The program holds no point: each call fills its own value table.
    """

    def __init__(self, n: int):
        super().__init__({0: 0})
        self.n = n
        self.parents = [0]
        self.factors = [0]
        # around every growth of the program, so that threads evaluating in
        # one ring never see a slot without its step
        self.lock = Lock()

    def __missing__(self, key: int) -> int:
        # walk down to a key that has a slot, then give the chain slots
        # from the top, parents first; a loop, as chains reach 255 * n keys
        with self.lock:
            chain = []
            degree = 1 << _BITS * self.n
            while key not in self:
                field = ((key & -key).bit_length() - 1) // _BITS
                chain.append((key, self.n - 1 - field))
                key -= degree | 1 << _BITS * field
            slot = self[key]
            for key, var in reversed(chain):
                self.parents.append(slot)
                self.factors.append(var)
                slot = self[key] = len(self.parents) - 1
            return slot

    def extend(self, table: list, nums: list, top: int):
        """Fill ``table`` at ``nums`` up to slot ``top``."""
        start = len(table)
        for parent, var in zip(self.parents[start : top + 1], self.factors[start : top + 1]):
            table.append(table[parent] * nums[var])


@lru_cache(maxsize=1)
def _monomial_program(vars_: tuple) -> _MonomialProgram:
    """The monomial program of the most recent ring only, so it holds the
    monomials of the polynomials evaluated in one ring."""
    return _MonomialProgram(len(vars_))


def evaluate_many(polys: Iterable[MultiPoly], point: Sequence) -> Iterator[Fraction]:
    """Exact values of ``polys`` at ``point``, one ``Fraction`` each, lazily
    and in order, so ``any(evaluate_many(...))`` stops at the first nonzero.

    The polynomials share one ring and ``point`` holds one rational per
    variable, in ring order.  Its denominators are cleared once: with ``L``
    their lcm, a polynomial of total degree ``D`` sums
    ``c * L^(D - deg) * prod (x_i L)^e_i`` over its terms in integers (no
    powers of ``L`` when it is homogeneous) and divides by ``L^D``.  The
    monomial values ``prod (x_i L)^e_i`` come from the ring's monomial
    program: a table of one multiplication per distinct monomial, filled
    only as far as the polynomials pulled so far need.  The table belongs
    to this call, so evaluate a generator set at one point in one call.
    """
    ring = None
    for p in polys:
        if p.vars != ring:
            if ring is not None:
                raise ValueError(f"mixed variable lists: {ring} vs {p.vars}")
            if len(point) != len(p.vars):
                raise ValueError(f"point of length {len(point)} in a ring with {len(p.vars)} variables")
            ring = p.vars
            shift = _BITS * len(ring)
            program = _monomial_program(ring)
            xs = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in point]
            L = lcm(*[x.denominator for x in xs])
            nums = [x.numerator * (L // x.denominator) for x in xs]
            table = [1]
        terms = p._terms
        if not terms:
            yield _ZERO
            continue
        slots = list(map(program.__getitem__, terms))
        top = max(slots)
        if top >= len(table):
            program.extend(table, nums, top)
        values = map(mul, terms.values(), map(table.__getitem__, slots))
        D = max(terms) >> shift
        if min(terms) >> shift < D:
            values = (v * L ** (D - (k >> shift)) for v, k in zip(values, terms))
        total = sum(values)
        yield Fraction(total, L**D) if total else _ZERO


def nonzero_compositions(polys: Sequence[MultiPoly], values: Sequence[MultiPoly]) -> tuple:
    """Indices of the ``polys`` that are not identically zero once each ring
    variable is replaced by its polynomial in ``values`` (ring order, all
    ``values`` in one ring of their own).

    The monomials are composed through a monomial program of their own,
    loaded with the ``polys`` in leading-monomial order, as in
    :func:`evaluate_many` but with polynomial values: slot ``s`` is slot
    ``parents[s]`` times ``values[factors[s]]``, filled in slot order as far
    as the polynomials taken so far need.  Each composition is accumulated
    term by term into one ``{key: coefficient}`` dict, so no polynomial is
    built per term.  Every slot is read, as a term of a polynomial or as
    the parent of another slot, and is dropped at its last read, so only
    the slots still ahead stay alive.
    """
    polys = tuple(polys)
    if not polys:
        return ()
    ring = polys[0].vars
    if any(p.vars != ring for p in polys):
        raise ValueError("polynomials from different rings")
    if len(values) != len(ring):
        raise ValueError(f"{len(values)} values in a ring with {len(ring)} variables")
    # by leading monomial, so that polynomials sharing monomials are composed
    # close together and the slots they read die sooner
    order = sorted(range(len(polys)), key=lambda i: max(polys[i]._terms, default=0))
    program = _MonomialProgram(len(ring))
    slots = [list(map(program.__getitem__, polys[i]._terms)) for i in order]
    parents, factors = program.parents, program.factors
    # reads[s]: one per term occurrence of slot s and one per child
    reads = [0] * len(parents)
    for s in chain(parents[1:], *slots):
        reads[s] += 1
    table = {0: MultiPoly.constant(values[0].vars if values else (), 1)}

    def read(s: int) -> MultiPoly:
        reads[s] -= 1
        return table[s] if reads[s] else table.pop(s)

    filled = 0
    flagged = []
    for i, row in zip(order, slots):
        for s in range(filled + 1, max(row, default=0) + 1):
            table[s] = read(parents[s]) * values[factors[s]]
            filled = s
        acc = {}
        get = acc.get
        for c1, s in zip(polys[i]._terms.values(), row):
            for k, c2 in read(s)._terms.items():
                acc[k] = get(k, 0) + c1 * c2
        if any(acc.values()):
            flagged.append(i)
    return tuple(sorted(flagged))


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


def _cofactor_expansion(rows: Sequence[Sequence[MultiPoly]]):
    """``det(ri, mask)``: the minor of the matrix ``rows`` on the row tuple
    ``ri`` and the columns set in ``mask``, expanded along ``ri[-1]`` in
    ascending column order.  Sub-minors are memoised in one table per
    length of the row prefix ``ri[:-1]``, emptied when that prefix changes:
    asked for row sets in lexicographic order, each sub-minor is computed
    once (O(2^n) products for a determinant, not n!) and only those of the
    current row prefixes stay alive.

    Each minor is accumulated in one ``{key: coefficient}`` dict: every term
    ``c1 x^k1`` of a nonzero entry times every term ``c2 x^k2`` of its
    cofactor adds ``+-c1*c2`` at the key ``k1 + k2``, with no intermediate
    product, negation or sum polynomials.  Coefficients that cancel to zero
    are dropped once, when the minor is finished.

    Raises ``ValueError`` unless the rows have one length and the entries
    one ring.  A minor takes one entry from each of at most
    ``min(rows, cols)`` rows, so the exponent fields are checked once for
    the whole matrix: per variable, the largest exponents of that many rows
    must fit in a field."""
    if len({len(row) for row in rows}) > 1:
        raise ValueError("matrix rows of different lengths")
    rings = {e.vars for row in rows for e in row}
    if len(rings) > 1:
        raise ValueError("matrix entries come from different rings")
    vars_ = next(iter(rings), ())
    n = len(vars_)
    cols = len(rows[0]) if rows else 0
    row_tops = [_max_exponents([k for e in row for k in e._terms], n) for row in rows]
    size = min(len(rows), cols)
    _check_fields(sum(sorted(col, reverse=True)[:size]) for col in zip(*row_tops))
    one = MultiPoly.constant(vars_, 1)
    tables = {}  # prefix length -> (prefix, {mask: minor})

    def det(ri: tuple, mask: int) -> MultiPoly:
        if not ri:
            return one
        above = ri[:-1]
        prefix, table = tables.get(len(above), (None, None))
        if prefix != above:
            table = {}
            tables[len(above)] = (above, table)
        acc = {}
        get = acc.get
        row = rows[ri[-1]]
        for pos, j in enumerate(j for j in range(cols) if (mask >> j) & 1):
            e = row[j]
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


def determinant(rows: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
    """Exact symbolic determinant of the square matrix ``rows``: its
    full-size minor."""
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("determinant of a non-square matrix")
    return _cofactor_expansion(rows)(tuple(range(len(rows))), (1 << len(rows)) - 1)


def minor_expansion(rows: Sequence[Sequence[MultiPoly]], size: int) -> Iterator:
    """All (row-set, col-set, determinant) triples of the given minor size of
    the matrix ``rows``, a sequence of equally long rows of polynomials from
    one ring.

    Enumeration is lexicographic in (row-set, col-set).  One expansion serves
    the whole call, so sub-minors are shared on ``(rows, columns)``.  A square
    matrix at full size has one minor, its :func:`determinant`.  Zero and
    duplicate determinants are kept; see :func:`dedup_generators`.
    """
    if size < 1:
        raise ValueError("minor size must be at least 1")
    cols = len(rows[0]) if rows else 0
    if size == len(rows) == cols:
        yield tuple(range(size)), tuple(range(size)), determinant(rows)
        return
    det = _cofactor_expansion(rows)
    for ri in combinations(range(len(rows)), size):
        for ci in combinations(range(cols), size):
            yield ri, ci, det(ri, sum(1 << j for j in ci))
