import runpy
import sys
from fractions import Fraction
from itertools import product
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import eddegree_oracle
import lcn.eddegree
from lcn.arch import Architecture
from lcn.eddegree import (
    arch_ed_degree,
    fully_connected_count,
    generic_ed_degree,
    merge_tree,
    tree_lines,
    two_layer_table,
)

# two-layer counts for k1, k2 = 2..9 (known values)
TWO_LAYER_TABLE = [
    [6, 10, 14, 18, 22, 26, 30, 34],
    [10, 39, 83, 143, 219, 311, 419, 543],
    [14, 83, 284, 676, 1324, 2292, 3644, 5444],
    [18, 143, 676, 2205, 5557, 11821, 22341, 38717],
    [22, 219, 1324, 5557, 17730, 46222, 104026, 209766],
    [26, 311, 2292, 11821, 46222, 145635, 388327, 910171],
    [30, 419, 3644, 22341, 104026, 388327, 1213560, 3288712],
    [34, 543, 5444, 38717, 209766, 910171, 3288712, 10218105],
]

MERGE_TREE_VALUES = {
    (2, 3, 4, 5): 2976084,
    (2, 3, 8): 12698,
    (4, 4, 5): 806396,
    (2, 6, 5): 139726,
    (2, 10): 38,
    (9, 3): 543,
    (4, 8): 3644,
    (7, 5): 11821,
    (6, 6): 17730,
}


def _bounded_compositions(total, bounds):
    """All tuples with entry j in [0, bounds[j]] summing to ``total``."""
    if len(bounds) == 1:
        if total <= bounds[0]:
            yield (total,)
        return
    lo = max(0, total - sum(bounds[1:]))
    for i in range(lo, min(bounds[0], total) + 1):
        for rest in _bounded_compositions(total - i, bounds[1:]):
            yield (i,) + rest


def composition_sum(sizes):
    """The closed form summed term by term over bounded compositions (oracle)."""
    dims = [k - 1 for k in sizes]
    kbar = sum(dims)
    total = 0
    for t in range(kbar + 1):
        inner = Fraction(0)
        for combo in _bounded_compositions(t, dims):
            num = den = 1
            for n_j, i_j in zip(dims, combo):
                num *= comb(n_j + 1, i_j)
                den *= factorial(n_j - i_j)
            inner += Fraction(num, den)
        term = inner * factorial(kbar - t)
        assert term.denominator == 1
        total += (-1) ** t * (2 ** (kbar + 1 - t) - 1) * term.numerator
    return total


class TestAgainstCompositionSum:
    def test_two_layer_table_to_20(self):
        expected = [[composition_sum((k1, k2)) for k2 in range(2, 21)] for k1 in range(2, 21)]
        assert two_layer_table(20, 20) == expected

    @given(st.lists(st.integers(1, 7), min_size=1, max_size=6))
    def test_random_multisets(self, sizes):
        assert generic_ed_degree(sizes) == composition_sum(sizes)


class TestAgainstTermByTerm:
    # the oracle divides each t-term on its own, so it also checks that every
    # term is an integer, which the library no longer asserts
    @given(st.lists(st.integers(1, 40), min_size=1, max_size=9))
    @example([1])
    @example([1, 2, 1, 3])
    @example([40] * 9)
    @example([1, 40, 1, 40, 40])
    def test_random_multisets(self, sizes):
        assert generic_ed_degree(sizes) == eddegree_oracle.term_by_term_count(sizes)

    @pytest.mark.parametrize(
        "sizes", [(50,) * 8, (100,) * 6, tuple(range(2, 40))], ids=["eight-50s", "six-100s", "2-to-39"]
    )
    def test_large_fixed_cases(self, sizes):
        assert generic_ed_degree(sizes) == eddegree_oracle.term_by_term_count(sizes)


class TestTable:
    def test_all_64_entries(self):
        assert two_layer_table(9, 9) == TWO_LAYER_TABLE

    def test_corner_values(self):
        assert generic_ed_degree((2, 2)) == 6
        assert generic_ed_degree((3, 3)) == 39
        assert generic_ed_degree((9, 9)) == 10218105

    def test_monotone_rows_and_columns(self):
        table = two_layer_table(9, 9)
        for row in table:
            assert all(a < b for a, b in zip(row, row[1:]))
        for col in zip(*table):
            assert all(a < b for a, b in zip(col, col[1:]))


class TestKnownValues:
    @pytest.mark.parametrize("sizes,value", sorted(MERGE_TREE_VALUES.items()))
    def test_node_values(self, sizes, value):
        assert generic_ed_degree(sizes) == value


class TestInvariance:
    @given(
        st.lists(st.integers(2, 6), min_size=1, max_size=5),
        st.randoms(use_true_random=False),
    )
    def test_permutation(self, sizes, rng):
        shuffled = list(sizes)
        rng.shuffle(shuffled)
        assert generic_ed_degree(shuffled) == generic_ed_degree(sizes)

    def test_stride_independence_through_api(self):
        for strides in [(2, 1), (3, 1), (4, 1)]:
            assert arch_ed_degree(Architecture((3, 2), strides)) == 10
        # merging a unit stride first changes nothing either
        assert arch_ed_degree(Architecture((2, 2, 2), (1, 2, 1))) == 10
        # an interior size-1 layer adds nothing: the (2,2) count
        assert arch_ed_degree(Architecture((2, 1, 2), (2, 3, 1))) == 6

    def test_single_layer(self):
        assert generic_ed_degree((4,)) == 1


class TestErrors:
    def test_small_filter_sizes_rejected(self):
        assert generic_ed_degree((1, 2)) == generic_ed_degree((2,))
        assert arch_ed_degree(Architecture((1, 1), (1, 1))) == 1
        with pytest.raises(ValueError):
            generic_ed_degree((0, 2))
        with pytest.raises(ValueError):
            generic_ed_degree(())

    @pytest.mark.parametrize("sizes", [(2.5, 3), (2.9, 3, 2), (float("inf"), 2), (2, float("nan"))])
    def test_non_integral_sizes_rejected(self, sizes):
        with pytest.raises(ValueError, match="must be integers"):
            generic_ed_degree(sizes)
        with pytest.raises(ValueError, match="must be integers"):
            merge_tree(sizes)

    def test_integral_numbers_accepted(self):
        assert generic_ed_degree((2.0, 3)) == generic_ed_degree((2, 3)) == 10
        assert merge_tree((2.0, 3, 2)) == merge_tree((2, 3, 2))


class TestFullyConnected:
    def test_binomials(self):
        assert fully_connected_count(3, 3, 1) == 3
        assert fully_connected_count(5, 4, 2) == 6

    def test_far_below_convolutional_count(self):
        assert fully_connected_count(2, 2, 1) == 2
        assert generic_ed_degree((2, 2)) == 6
        assert fully_connected_count(2, 2, 1) < generic_ed_degree((2, 2))

    def test_range_errors(self):
        with pytest.raises(ValueError):
            fully_connected_count(3, 3, 0)
        with pytest.raises(ValueError):
            fully_connected_count(3, 3, 4)


def collect(node, acc):
    acc[tuple(sorted(node.filter_sizes))] = node.value
    for child in node.children:
        collect(child, acc)


class TestMergeTree:
    def test_all_published_nodes_present(self):
        root = merge_tree((2, 3, 4, 5))
        values = {}
        collect(root, values)
        for sizes, value in MERGE_TREE_VALUES.items():
            assert values[tuple(sorted(sizes))] == value

    def test_children_are_distinct_multisets(self):
        root = merge_tree((2, 3, 4, 5))
        keys = [tuple(sorted(c.filter_sizes)) for c in root.children]
        assert len(keys) == len(set(keys)) == 6

    def test_merges_preserve_dimension(self):
        def kbar(node):
            return sum(k - 1 for k in node.filter_sizes)

        root = merge_tree((2, 3, 4, 5))
        for child in root.children:
            assert kbar(child) == kbar(root) == 1 + 2 + 3 + 4

    def test_two_layer_leaf(self):
        root = merge_tree((2, 2))
        assert root.children == ()
        assert root.value == 6

    def test_tree_lines_format(self):
        lines = tree_lines(merge_tree((2, 3, 8)))
        assert lines[0] == "C[2,3,8] = 12698"
        assert any(line.strip().startswith("C[") for line in lines[1:])


ORACLE_TREES = [s for n in (2, 3, 4) for s in product(range(1, 5), repeat=n)]
ORACLE_TREES += [(2, 3, 4, 5, 6, 7), (1, 2, 2, 3, 3)]


class TestAgainstPlainRecursion:
    def test_merge_trees_equal_oracle(self):
        assert len(ORACLE_TREES) == 338
        for sizes in ORACLE_TREES:
            root, expected = merge_tree(sizes), eddegree_oracle.merge_tree(sizes)
            assert root == expected, sizes
            assert tree_lines(root) == tree_lines(expected), sizes

    def test_two_layer_table_entry_by_entry(self):
        expected = [[generic_ed_degree((k1, k2)) for k2 in range(2, 21)] for k1 in range(2, 21)]
        assert two_layer_table(20, 20) == expected


class TestSharedWork:
    @pytest.fixture
    def calls(self, monkeypatch):
        made = []
        count = lcn.eddegree.generic_ed_degree

        def counting(sizes):
            made.append(tuple(sizes))
            return count(sizes)

        monkeypatch.setattr(lcn.eddegree, "generic_ed_degree", counting)
        return made

    def test_merge_tree_counts_each_multiset_once(self, calls):
        root = merge_tree((2, 3, 4, 5, 6, 7))
        assert len(calls) == len({tuple(sorted(c)) for c in calls}) == 108

        visited = []

        def walk(node):
            visited.append(node)
            for child in node.children:
                walk(child)

        walk(root)
        assert len(visited) == len(tree_lines(root)) == 2836
        by_sizes = {}
        for node in visited:
            assert by_sizes.setdefault(node.filter_sizes, node) is node
        assert len({id(node) for node in visited}) == len(by_sizes) == 182

    def test_equal_tuple_by_two_paths_is_one_node(self):
        # (7,5) is reached from (4,4,5), (5,3,5) and (2,6,5)
        root = merge_tree((2, 3, 4, 5))
        reached = [c for p in root.children for c in p.children if c.filter_sizes == (7, 5)]
        assert len(reached) == 3
        assert reached[0] is reached[1] is reached[2]

    def test_nothing_shared_between_calls(self, calls):
        first, second = merge_tree((2, 3, 4)), merge_tree((2, 3, 4))
        assert first == second and first is not second
        assert len(calls) == 2 * len(set(calls)) == 8

    def test_two_layer_table_counts_each_pair_once(self, calls):
        two_layer_table(20, 20)
        assert len(calls) == len(set(calls)) == 190

    def test_two_layer_table_builds_each_row_once(self):
        # sizes 2..20 need the rows n = 1..19; 190 counts read two rows each
        lcn.eddegree._row.cache_clear()
        two_layer_table(20, 20)
        info = lcn.eddegree._row.cache_info()
        assert info.misses == info.currsize == 19
        assert info.hits + info.misses == 2 * 190


class TestTablesScript:
    PATH = Path(__file__).resolve().parents[1] / "scripts" / "ed_degree_tables.py"

    def test_small_table_and_tree(self, capsys, monkeypatch):
        argv = [str(self.PATH), "--max-k1", "3", "--max-k2", "3", "--tree", "2,3,8"]
        monkeypatch.setattr(sys, "argv", argv)
        runpy.run_path(str(self.PATH), run_name="__main__")
        out = capsys.readouterr().out
        assert "C[2,3,8] = 12698" in out.splitlines()

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--max-k1", "1"), "argument --max-k1"),
            (("--max-k2", "1"), "argument --max-k2"),
            (("--tree", "5"), "at least two layers"),
            (("--tree", "0,3"), "argument --tree"),
        ],
    )
    def test_bad_argument_usage_error(self, capsys, monkeypatch, argv, message):
        monkeypatch.setattr(sys, "argv", [str(self.PATH), *argv])
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_path(str(self.PATH), run_name="__main__")
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
