"""Reference code for the minor tests.

``product_then_add_minors`` is the memoised Laplace expansion that
``lcn.polyring.minor_expansion`` fuses into one term dictionary per minor:
the same row-prefix tables, expansion row and column order, but each
cofactor term is a whole polynomial product ``entry * sub-minor``, folded
into the running total with ``+`` or ``-``.  A matrix is a list of rows.
"""

from itertools import combinations

from lcn.polyring import MultiPoly


def _product_then_add(rows: list):
    """``det(ri, mask)`` over polynomial products and sums."""
    vars_ = rows[0][0].vars
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
        total = MultiPoly(vars_)
        for pos, j in enumerate(j for j in range(len(rows[0])) if (mask >> j) & 1):
            e = rows[ri[-1]][j]
            if e.terms:
                sub = mask ^ (1 << j)
                if sub not in table:
                    table[sub] = det(above, sub)
                piece = e * table[sub]
                total = total - piece if (len(above) + pos) % 2 else total + piece
        return total

    return det


def product_then_add_minors(rows: list, size: int) -> list:
    """All (row-set, col-set, determinant) triples of one minor size, in
    lexicographic order, as ``minor_expansion`` lists them."""
    det = _product_then_add(rows)
    return [
        (ri, ci, det(ri, sum(1 << j for j in ci)))
        for ri in combinations(range(len(rows)), size)
        for ci in combinations(range(len(rows[0])), size)
    ]
