"""Architectures of 1D linear convolutional networks and their filters.

An architecture is a tuple of per-layer filter sizes and strides.  Composing
the layers gives a single convolution whose end-to-end filter has size
``k = k_1 + sum_{l>=2} (k_l - 1) * S_l`` where ``S_l`` is the product of the
strides before layer ``l``.  The last stride never influences the end-to-end
filter, but it is kept as given: the stride of the composed convolution, and
with it the training data model, is the product of all strides.

Filters are plain sequences (ints, Fractions, floats, complex or
polynomials); all the helpers here are generic over the entry type so
exact, numeric and symbolic callers share one code path.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from math import prod
from typing import NamedTuple, Sequence


def _integers(values: Sequence, what: str) -> tuple:
    """``values`` as a tuple of ints.

    Raises ValueError naming ``what`` unless every entry equals an integer:
    ``2.0`` and numpy integers pass, ``2.5``, ``inf``, ``nan`` and bools
    (Python's or numpy's, which would read as 0 and 1) do not.
    """
    values = tuple(values)
    # a numpy bool can only be among the values once numpy is loaded; while
    # another thread's first import of numpy runs, it may have no bool_ yet
    bools = {bool, getattr(sys.modules.get("numpy"), "bool_", bool)}
    try:
        ints = tuple(map(int, values))
    except (OverflowError, ValueError):
        ints = None
    if ints != values or not bools.isdisjoint(map(type, values)):
        raise ValueError(f"{what} must be integers, got {values}")
    return ints


def _count(value, what: str) -> int:
    """``value`` as an int of at least 1; else ValueError naming ``what``."""
    (value,) = _integers([value], what)
    if value < 1:
        raise ValueError(f"{what} must be at least 1, got {value}")
    return value


class Architecture(NamedTuple("Architecture", [("filter_sizes", tuple), ("strides", tuple)])):
    """Filter sizes and strides of a 1D linear convolutional network.

    An immutable record compared and hashed by value; the sizes and strides
    are stored as tuples of ints, checked when the record is made."""

    __slots__ = ()

    def __new__(cls, filter_sizes: Sequence, strides: Sequence):
        ks = _integers(filter_sizes, "filter sizes")
        ss = _integers(strides, "strides")
        if not ks:
            raise ValueError("architecture needs at least one layer")
        if len(ks) != len(ss):
            raise ValueError(
                f"{len(ks)} filter sizes but {len(ss)} strides"
            )
        if any(v < 1 for v in ks) or any(v < 1 for v in ss):
            raise ValueError("filter sizes and strides must be positive")
        return super().__new__(cls, ks, ss)

    @property
    def depth(self) -> int:
        return len(self.filter_sizes)

    @property
    def dilations(self) -> tuple:
        """S_l = s_1 * ... * s_{l-1}, the monomial spacing of layer l."""
        out = []
        acc = 1
        for s in self.strides:
            out.append(acc)
            acc *= s
        return tuple(out)

    @property
    def out_size(self) -> int:
        """Size of the end-to-end filter."""
        ks, dil = self.filter_sizes, self.dilations
        return ks[0] + sum((k - 1) * d for k, d in zip(ks[1:], dil[1:]))

    @property
    def stride_product(self) -> int:
        return prod(self.strides)

    def describe(self) -> str:
        return f"k={','.join(map(str, self.filter_sizes))} s={','.join(map(str, self.strides))}"

    def merged(self, i: int) -> "Architecture":
        """Layers ``i`` and ``i+1`` merged into one layer of filter size
        ``k_i + s_i (k_{i+1} - 1)`` and stride ``s_i * s_{i+1}``; the
        end-to-end filter size is unchanged.  Raises ``ValueError`` unless
        ``0 <= i < depth - 1``."""
        if not 0 <= i < self.depth - 1:
            raise ValueError(f"layer {i} has no next layer in a {self.depth}-layer architecture")
        ks, ss = list(self.filter_sizes), list(self.strides)
        ks[i : i + 2] = [ks[i] + ss[i] * (ks[i + 1] - 1)]
        ss[i : i + 2] = [ss[i] * ss[i + 1]]
        merged = Architecture(tuple(ks), tuple(ss))
        assert merged.out_size == self.out_size, "layer merging must preserve the filter size"
        return merged


def expected_dimension(arch: Architecture) -> int:
    """Dimension ``sum k_i - (L - 1)`` of the filter variety of a reduced
    architecture: the layer filters modulo rescaling between layers."""
    return sum(arch.filter_sizes) - (arch.depth - 1)


def reduce_arch(arch: Architecture) -> Architecture:
    """Merge away unit strides and unit filter sizes where the merge is exact.

    Layers ``i`` and ``i+1`` merge (:meth:`Architecture.merged`) whenever
    ``s_i = 1`` or ``k_{i+1} = 1``: a stride-1 layer with its successor, a
    size-1 layer after the first into its predecessor.  A size-1 first
    layer at a stride above 1 stays: its filter is the successor's filter
    spaced by ``s_1``, which no single dense layer describes.  The result
    has the same filter variety, end-to-end filter size and stride product.
    """
    while arch.depth > 1:
        ks, ss = arch.filter_sizes, arch.strides
        unit = [i for i in range(len(ks) - 1) if ss[i] == 1 or ks[i + 1] == 1]
        if not unit:
            break
        arch = arch.merged(unit[0])
    return arch


def _convolve(a: Sequence, b: Sequence) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, av in enumerate(a):
        if not av:
            continue
        for j, bv in enumerate(b):
            if bv:
                out[i + j] = out[i + j] + av * bv
    return out


def _spaced(w: Sequence, gap: int) -> list:
    out = [0] * ((len(w) - 1) * gap + 1)
    for j, v in enumerate(w):
        out[j * gap] = v
    return out


def compose_filters(arch: Architecture, layer_filters: Sequence[Sequence]) -> tuple:
    """End-to-end filter of the composed convolution.

    Index ``j`` of the result is the coefficient of ``x^{k-1-j} y^j`` in the
    product of the per-layer polynomials, i.e. the coefficient list and the
    filter agree entry-wise.
    """
    if len(layer_filters) != arch.depth:
        raise ValueError(f"{arch.depth} layers but {len(layer_filters)} filters")
    for w, k in zip(layer_filters, arch.filter_sizes):
        if len(w) != k:
            raise ValueError(f"layer filter of length {len(w)}, expected {k}")
    acc = list(layer_filters[0])
    for w, gap in zip(layer_filters[1:], arch.dilations[1:]):
        acc = _convolve(acc, _spaced(w, gap))
    assert len(acc) == arch.out_size
    return tuple(acc)


def sample_neuromanifold(arch: Architecture, rng_seed: int):
    """Random rational layer filters together with their composed filter.

    Entries are Fractions with numerator uniform in [-10, 10] and denominator
    uniform in [1, 10], so membership checks downstream stay exact.  The same
    seed always returns the same sample.
    """
    rng = random.Random(rng_seed)
    layers = [
        tuple(
            Fraction(rng.randint(-10, 10), rng.randint(1, 10)) for _ in range(k)
        )
        for k in arch.filter_sizes
    ]
    return layers, compose_filters(arch, layers)
