"""Reference renderer for the ``MultiPoly.text`` tests.

``zip_text`` writes each monomial by zipping the ring's names with the
whole exponent tuple, as ``MultiPoly.text`` did before it memoised each
monomial from its prefix.  It reads only the public ``vars`` and ``terms``
and sorts the exponent tuples in graded lexicographic order itself.
"""

from string import ascii_uppercase


def zip_text(p) -> str:
    """``p`` written out, e.g. ``A*D^2 + B^2*E - B*C*D``."""
    terms = p.terms
    if not terms:
        return "0"
    n = len(p.vars)
    letters = n <= 26 and all(v == f"c{i}" for i, v in enumerate(p.vars))
    names = ascii_uppercase[:n] if letters else p.vars
    out = ""
    for exps in sorted(terms, key=lambda e: (sum(e), e), reverse=True):
        coeff = terms[exps]
        mono = "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e)
        mag = abs(coeff)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not out:
            out = "-" + body if coeff < 0 else body
        else:
            out += f" - {body}" if coeff < 0 else f" + {body}"
    return out
