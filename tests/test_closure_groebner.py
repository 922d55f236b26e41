"""Reverse inclusion by Gröbner bases: V(gens) lies in the closure of the image.

With :mod:`lcn.verify`'s membership proof (image ⊆ V(gens)) this certifies
V(gens) = closure of the neuromanifold over C on small architectures.

- Each of the first L - 1 layers of the typed architecture is put in the
  chart ``theta_l[0] = 1``.  Rescaling between layers leaves the composed
  filter unchanged and the chart is dense modulo rescaling, so its image has
  the same closure.
- The theta-free part of a lex Gröbner basis of ``(c - phi(theta))``, theta
  first, generates the ideal of that closure (elimination).
- Each closure generator ``h`` must lie in the radical of ``(gens)``:
  ``1 ∈ (gens, 1 - y h)`` (Rabinowitsch).
"""

import pytest
import sympy

from lcn.arch import Architecture, compose_filters
from lcn.idealgen import vanishing_generators


def to_sympy(poly, variables):
    return sum(
        coef * sympy.prod(v**e for v, e in zip(variables, exps))
        for exps, coef in poly.terms.items()
    )


def closure_generators(arch, variables):
    """The theta-free elements of the lex basis of ``(c - phi(theta))``."""
    layers = [list(sympy.symbols(f"t{layer}_:{k}")) for layer, k in enumerate(arch.filter_sizes)]
    for entries in layers[:-1]:
        entries[0] = 1
    thetas = [t for entries in layers for t in entries if t != 1]
    phi = compose_filters(arch, layers)
    basis = sympy.groebner(
        [c - p for c, p in zip(variables, phi)], *thetas, *variables, order="lex"
    )
    return [h for h in basis.exprs if not h.free_symbols & set(thetas)]


def outside_radical(closure, gens, variables):
    """The closure generators ``h`` with ``1 ∉ (gens, 1 - y h)``."""
    y = sympy.Symbol("y")
    return [
        h
        for h in closure
        if sympy.groebner(gens + [1 - y * h], y, *variables, order="grevlex").exprs != [1]
    ]


def certify(arch, drop=()):
    """Closure generators and those of them outside the radical of the
    generators, without the generators indexed by ``drop``."""
    ideal = vanishing_generators(arch)
    variables = sympy.symbols(ideal.variables)
    gens = [
        to_sympy(g, variables) for i, g in enumerate(ideal.generators) if i not in drop
    ]
    closure = closure_generators(arch, variables)
    return closure, outside_radical(closure, gens, variables)


@pytest.mark.parametrize(
    "sizes, strides",
    [
        ((2, 2), (2, 1)),
        ((3, 2), (2, 1)),
        ((2, 3), (2, 1)),
        ((3, 3), (2, 1)),
        ((5, 2), (3, 1)),
        ((2, 2, 2), (2, 2, 1)),
        ((2, 2, 2), (2, 3, 1)),
        # size-1 layers: a first layer kept at its stride, and one merged away
        ((1, 3), (2, 1)),
        ((1, 3), (3, 1)),
        ((1, 2, 2), (2, 2, 1)),
        ((2, 1, 2), (2, 3, 1)),
    ],
)
def test_generators_cut_out_the_closure(sizes, strides):
    closure, outside = certify(Architecture(sizes, strides))
    assert closure and outside == []


@pytest.mark.parametrize(
    "sizes, strides, drop, total, left_out",
    [
        ((2, 3), (2, 1), (0,), 3, 1),
        ((2, 2, 2), (2, 2, 1), (0, 1, 2), 9, 2),
    ],
)
def test_dropping_generators_is_caught(sizes, strides, drop, total, left_out):
    closure, outside = certify(Architecture(sizes, strides), drop)
    assert (len(closure), len(outside)) == (total, left_out)
