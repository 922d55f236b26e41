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
the letters ``A, B, ...`` so that small generators stay readable.  The
string of each monomial is memoised for the most recent ring and joined
from memoised strings of its blocks of 8 variables; a polynomial keeps its
own text once made.

:func:`evaluate_many` evaluates one polynomial set exactly at many points
through one monomial program built for the call: each packed key gets a
slot the first time a polynomial needing it is evaluated, after its parent,
the key one lower in its lowest nonzero field.  So the values of all
monomials at a point fill that point's table with one multiplication each,
and each polynomial is a sum of coefficients times table entries, at slots
looked up once per call.  No program outlives its call.

A matrix is a sequence of equally long rows of polynomials from one ring.
Its minors come from one memoised Laplace expansion that shares sub-minors
on ``(rows, columns)`` and visits only the nonzero entries of each row,
taking each one's sign from the number of columns of the minor before it.
Each minor is built in one term dictionary: entry terms times cofactor
terms are added into it directly (a fused multiply-accumulate), and it is
copied without zeros only if some coefficient cancelled.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm
from numbers import Integral
from operator import add, mul
from typing import Iterable, Iterator, Sequence

_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
# The value of every vanishing evaluation; a Fraction is immutable.
_ZERO = Fraction(0)
# Bits per exponent field of a packed key, and the largest exponent.
_BITS = 8
_MAX_EXPONENT = (1 << _BITS) - 1
# Variables per memoised block of a monomial string.
_BLOCK = 8


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


def _add_product(acc: dict, a: dict, b: dict, n: int) -> dict:
    """Add the product of the term dicts ``a`` and ``b`` (``n`` variables, no
    zero coefficients) into ``acc`` and return it; zero sums are left in.

    Raises ``ValueError`` if an exponent of the product would carry into
    the next field.  A field can only overflow when the total degrees sum
    past it, so only then are the fields checked."""
    if a and b and (max(a) >> _BITS * n) + (max(b) >> _BITS * n) > _MAX_EXPONENT:
        _check_fields(map(add, _max_exponents(a, n), _max_exponents(b, n)))
    get = acc.get
    for k2, c2 in b.items():
        for k1, c1 in a.items():
            k = k1 + k2
            acc[k] = get(k, 0) + c1 * c2
    return acc


def _nonzero(terms: dict) -> dict:
    """``terms`` without its zero coefficients; itself when it has none."""
    return {k: c for k, c in terms.items() if c} if 0 in terms.values() else terms


def _coefficient(value):
    """A Fraction as given, an integral number (numpy's too) as an int; else TypeError."""
    if not isinstance(value, (Integral, Fraction)):
        raise TypeError(f"coefficients must be int or Fraction, got {type(value).__name__} {value!r}")
    return value if isinstance(value, Fraction) else int(value)


def _packed(vars_: tuple, terms: dict) -> "MultiPoly":
    """A polynomial on packed keys that are valid for ``vars_``."""
    res = object.__new__(MultiPoly)
    res.vars = vars_
    res._terms = terms
    res._hash = res._text = None
    return res


class MultiPoly:
    """Sparse exact polynomial over an ordered tuple of variable names."""

    __slots__ = ("vars", "_terms", "_hash", "_text")

    def __init__(self, variables, terms: "dict | None" = None):
        vars_ = tuple(variables)
        nv = len(vars_)
        shift = _BITS * nv
        acc = {}
        for exps, coeff in (terms or {}).items():
            if not all(isinstance(e, Integral) for e in exps):
                raise TypeError(f"exponents must be integers, got {exps!r}")
            exps = tuple(int(e) for e in exps)
            if len(exps) != nv:
                raise ValueError(
                    f"exponent tuple of length {len(exps)} in a ring with {nv} variables"
                )
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if any(e > _MAX_EXPONENT for e in exps):
                raise ValueError(f"exponent above {_MAX_EXPONENT} in {exps}")
            coeff = _coefficient(coeff)
            if coeff:
                acc[sum(exps) << shift | int.from_bytes(bytes(exps), "big")] = coeff
        self.vars = vars_
        self._terms = acc
        self._hash = self._text = None

    @property
    def terms(self) -> dict:
        """``{exponent tuple: coefficient}``, a new dict on every access."""
        n = len(self.vars)
        return {tuple(_exponents(key, n)): c for key, c in self._terms.items()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, variables, value) -> "MultiPoly":
        value = _coefficient(value)
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

    def sign_normalized(self) -> "MultiPoly":
        """Flip the sign if needed so the leading coefficient (that of the
        largest key) is positive."""
        terms = self._terms
        return -self if terms and terms[max(terms)] < 0 else self

    def content(self) -> int:
        """Positive gcd of the integer coefficients (1 if any is fractional)."""
        coeffs = self._terms.values()
        try:
            return gcd(*coeffs) or 1
        except TypeError:  # a Fraction among them
            if any(c.denominator != 1 for c in coeffs):
                return 1
            return gcd(*(c.numerator for c in coeffs))

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
        return _packed(self.vars, _nonzero(_add_product({}, self._terms, other._terms, len(self.vars))))

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
        :func:`evaluate_many` of this one polynomial at this one point, with
        a monomial program for this call alone; evaluate a set at many
        points with one :func:`evaluate_many` call instead."""
        return next(next(evaluate_many((self,), (point,))))

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
            terms = self._terms
            # a constant hashes as its value, to which it is equal
            key = terms.get(0, 0) if terms.keys() <= {0} else (self.vars, frozenset(terms.items()))
            self._hash = hash(key)
        return self._hash

    # -- rendering -----------------------------------------------------------

    def text(self) -> str:
        """Human-readable form, e.g. ``A*D^2 + B^2*E - B*C*D``."""
        if self._text is None:
            monomial = _monomial_texts(self.vars)
            out = []
            for k in sorted(self._terms, reverse=True):
                coeff, mono = self._terms[k], monomial[k]
                mag = abs(coeff)
                out.append(" - " if coeff < 0 else " + ")
                out.append(f"{mag}*{mono}" if mag != 1 and mono else mono or str(mag))
            # the first term keeps only the "-" of its sign
            out[:1] = ["-"] if out[:1] == [" - "] else []
            self._text = "".join(out) or "0"
        return self._text

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


class _MonomialTexts(dict):
    """``packed key -> monomial string`` for one ring, e.g. ``A*D^2``; the
    empty string for the constant monomial.

    A key's string is made the first time it is looked up, by joining with
    ``*`` the strings of its nonzero blocks: slices of at most 64 bits, the
    fields of 8 consecutive variables.  Each block's string is memoised on
    its slice, so a new monomial whose blocks are known costs one join.
    """

    def __init__(self, vars_: tuple):
        super().__init__({0: ""})
        n = len(vars_)
        letters = n <= 26 and all(v == f"c{i}" for i, v in enumerate(vars_))
        names = _LETTERS[:n] if letters else vars_
        self.blocks = []  # (shift, mask, names, {slice: string}), first variables first
        for start in range(0, n, _BLOCK):
            part = names[start : start + _BLOCK]
            self.blocks.append((_BITS * (n - start - len(part)), (1 << _BITS * len(part)) - 1, part, {}))

    def __missing__(self, key: int) -> str:
        parts = []
        for shift, mask, names, memo in self.blocks:
            block = key >> shift & mask
            if block:
                text = memo.get(block)
                if text is None:
                    exps = block.to_bytes(len(names), "big")
                    text = memo[block] = "*".join(
                        name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e
                    )
                parts.append(text)
        text = self[key] = "*".join(parts)
        return text


@lru_cache(maxsize=1)
def _monomial_texts(vars_: tuple) -> _MonomialTexts:
    """The monomial strings of the most recent ring only, so the memo holds
    at most the monomials of one generator set."""
    return _MonomialTexts(vars_)


class _MonomialProgram(dict):
    """``packed key -> slot`` for the monomials of one ring; see
    :func:`evaluate_many`.

    Slot 0 is the constant monomial.  A key gets the next free slot the
    first time it is looked up, after its parent: the key one lower in its
    lowest nonzero field and in the total degree.  So ``parents[s] < s``,
    and slot ``s`` holds its parent's value times the scaled variable
    ``factors[s]``: a straight-line program of one multiplication per slot.
    The program holds no point: each point fills its own value table.
    """

    def __init__(self, n: int):
        super().__init__({0: 0})
        self.n = n
        self.parents = [0]
        self.factors = [0]

    def __missing__(self, key: int) -> int:
        # walk down to a key that has a slot, then give the chain slots
        # from the top, parents first; a loop, as chains reach 255 * n keys
        chain = []
        while key not in self:
            field = ((key & -key).bit_length() - 1) // _BITS
            chain.append((key, self.n - 1 - field))
            key -= 1 << _BITS * self.n | 1 << _BITS * field
        slot = self[key]
        for key, var in reversed(chain):
            self.parents.append(slot)
            self.factors.append(var)
            slot = self[key] = len(self.parents) - 1
        return slot

    def values(self, polys: tuple, compiled: list, point: Sequence) -> Iterator[Fraction]:
        """Lazy exact values of ``polys`` (this program's ring) at ``point``,
        from a value table of the point's own; see :func:`evaluate_many`.
        ``compiled[i]`` holds what ``polys[i]`` needs at every point, made by
        the first point to pull it: its coefficients, the slots of its terms,
        its top slot, its total degree ``D`` and, unless it is homogeneous,
        each term's lift ``D - deg``."""
        if polys and len(point) != self.n:
            raise ValueError(f"point of length {len(point)} in a ring with {self.n} variables")
        xs = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in point]
        L = lcm(*[x.denominator for x in xs])
        nums = [x.numerator * (L // x.denominator) for x in xs]
        table = [1]
        shift = _BITS * self.n

        def value(i: int, p: MultiPoly) -> Fraction:
            if i == len(compiled):
                slots = list(map(self.__getitem__, p._terms))
                degrees = [k >> shift for k in p._terms]
                D = max(degrees, default=0)
                lifts = [D - d for d in degrees] if any(d < D for d in degrees) else None
                compiled.append((list(p._terms.values()), slots, max(slots, default=0), D, lifts))
            coeffs, slots, top, D, lifts = compiled[i]
            if not slots:
                return _ZERO
            # the point's table catches up with the program, to the top slot
            steps = slice(len(table), top + 1)
            for parent, var in zip(self.parents[steps], self.factors[steps]):
                table.append(table[parent] * nums[var])
            values = map(mul, coeffs, map(table.__getitem__, slots))
            if lifts is not None:
                values = map(mul, values, map(L.__pow__, lifts))
            total = sum(values)
            return Fraction(total, L**D) if total else _ZERO

        return map(value, range(len(polys)), polys)


def evaluate_many(polys: Iterable[MultiPoly], points: Iterable[Sequence]) -> Iterator[Iterator[Fraction]]:
    """Exact values of ``polys`` at each of ``points``: one lazy iterator of
    ``Fraction`` values per point, in order, so
    ``map(any, evaluate_many(...))`` stops each point at its first nonzero.

    The polynomials are read once, up front, and must share one ring; each
    point holds one rational per variable, in ring order, and is checked and
    converted when it is reached, as the points are pulled lazily too.  A
    point's denominators are cleared once: with ``L`` their lcm, a
    polynomial of total degree ``D`` sums
    ``c * L^(D - deg) * prod (x_i L)^e_i`` over its terms in integers (no
    powers of ``L`` when it is homogeneous) and divides by ``L^D``.  The
    monomial values ``prod (x_i L)^e_i`` come from one monomial program for
    the call, which holds only the monomials of the polynomials pulled so
    far, and each polynomial's term slots, top slot, total degree and lifts
    ``D - deg``, worked out by the first point to pull it: each point fills a
    table of one multiplication per distinct monomial, only as far as its
    own pulls need.  The iterators of one call share its program, so they
    belong to one thread, as any generator does; separate calls share
    nothing.
    """
    polys = tuple(polys)
    for p in polys:
        if p.vars != polys[0].vars:
            raise ValueError(f"mixed variable lists: {polys[0].vars} vs {p.vars}")
    program = _MonomialProgram(len(polys[0].vars) if polys else 0)
    compiled = []
    return (program.values(polys, compiled, point) for point in points)


def symbols(names: Iterable[str]) -> tuple:
    """Atoms of a shared polynomial ring, one per name."""
    vars_ = tuple(names)
    return tuple(MultiPoly.variable(vars_, n) for n in vars_)


def coefficient_symbols(k: int) -> tuple:
    """Symbols ``c0 .. c{k-1}`` for the entries of an end-to-end filter."""
    return symbols(f"c{i}" for i in range(k))


def dedup_generators(tagged: Iterable, identity=None) -> Iterator:
    """Drop zeros, sign-normalize, and yield each ``(tag, poly)`` pair of
    ``tagged`` with a new identity as soon as it is read: by default the
    sign-normalized primitive part, else ``identity`` of it.  Only identities
    are held.  :meth:`MultiPoly.text` serves within one ring, as it spells out
    every term's coefficient and exponents."""
    seen = set()
    for tag, poly in tagged:
        if poly:
            poly = poly.sign_normalized()
            key = poly.primitive_part()
            key = key if identity is None else identity(key)
            if key not in seen:
                seen.add(key)
                yield tag, poly


# -- polynomial matrices -------------------------------------------------------


def _cofactor_expansion(rows: Sequence[Sequence[MultiPoly]]):
    """``det(ri, mask)``: the minor of the matrix ``rows`` on the row tuple
    ``ri`` and the columns set in ``mask``, expanded along ``ri[-1]`` over
    its nonzero entries in ascending column order; an entry's sign is the
    parity of ``len(ri) - 1`` plus the number of ``mask`` columns before
    it.  Sub-minors are memoised in one table per length of the row prefix
    ``ri[:-1]``, emptied when that prefix changes: asked for row sets in
    lexicographic order, each sub-minor is computed once (O(2^n) products
    for a determinant, not n!) and only those of the current row prefixes
    stay alive.

    Each minor is accumulated in one ``{key: coefficient}`` dict: every term
    ``c1 x^k1`` of a nonzero entry times every term ``c2 x^k2`` of its
    cofactor adds ``+-c1*c2`` at the key ``k1 + k2``, with no intermediate
    product, negation or sum polynomials.  The finished dict is the minor's
    unless a coefficient cancelled to zero: only then is it copied without.

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
    # per row, (column bit, term items) of each nonzero entry
    nonzero = [[(1 << j, tuple(e._terms.items())) for j, e in enumerate(row) if e._terms]
               for row in rows]
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
        for bit, terms in nonzero[ri[-1]]:
            if not mask & bit:
                continue
            sub = mask ^ bit
            if sub not in table:
                table[sub] = det(above, sub)
            cofactor = table[sub]._terms.items()
            # the entry's position among the mask's columns sets the sign
            odd = (len(above) + (mask & (bit - 1)).bit_count()) % 2
            for k1, c1 in terms:
                if odd:
                    c1 = -c1
                for k2, c2 in cofactor:
                    key = k1 + k2
                    acc[key] = get(key, 0) + c1 * c2
        return _packed(vars_, _nonzero(acc))

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
    the whole call, so sub-minors are shared on ``(rows, columns)``.  Zero and
    duplicate determinants are kept; see :func:`dedup_generators`.
    """
    if size < 1:
        raise ValueError("minor size must be at least 1")
    cols = len(rows[0]) if rows else 0
    det = _cofactor_expansion(rows)
    col_sets = [(ci, sum(1 << j for j in ci)) for ci in combinations(range(cols), size)]
    for ri in combinations(range(len(rows)), size):
        for ci, mask in col_sets:
            yield ri, ci, det(ri, mask)
