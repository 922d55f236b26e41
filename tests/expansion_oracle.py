"""Reference code for the minor tests.

``product_then_add_minors`` is the memoised Laplace expansion that
``lcn.polyring.minor_expansion`` fuses into one term dictionary per minor:
the same row-prefix tables, expansion row and column order, but each
cofactor term is a whole polynomial product ``entry * sub-minor``, folded
into the running total with ``+`` or ``-``.
"""

from itertools import combinations

from lcn.polyring import MultiPoly, PolyMatrix


def _product_then_add(m: PolyMatrix):
    """``det(rows, mask)`` over polynomial products and sums."""
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
        total = MultiPoly(vars_)
        for pos, j in enumerate(j for j in range(m.cols) if (mask >> j) & 1):
            e = m.entry(rows[-1], j)
            if e.terms:
                sub = mask ^ (1 << j)
                if sub not in table:
                    table[sub] = det(above, sub)
                piece = e * table[sub]
                total = total - piece if (len(above) + pos) % 2 else total + piece
        return total

    return det


def product_then_add_minors(m: PolyMatrix, size: int) -> list:
    """All (row-set, col-set, determinant) triples of one minor size, in
    lexicographic order, as ``minor_expansion`` lists them."""
    det = _product_then_add(m)
    return [
        (ri, ci, det(ri, sum(1 << j for j in ci)))
        for ri in combinations(range(m.rows), size)
        for ci in combinations(range(m.cols), size)
    ]
