import hashlib
import json
from dataclasses import replace
from itertools import product

import pytest

import lcn.verify
from lcn.arch import Architecture
from lcn.cli import _build_parser, main
from lcn.polyring import MultiPoly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEddeg:
    def test_value(self, capsys):
        code, out, _ = run(capsys, "eddeg", "-k", "2,3,4,5")
        assert code == 0
        assert out == "2976084\n"

    def test_usage_error_small_filter(self, capsys):
        code, out, err = run(capsys, "eddeg", "-k", "0,2")
        assert code == 2
        assert out == ""
        assert "at least 1" in err

    def test_size_one_layer_adds_nothing(self, capsys):
        code, out, _ = run(capsys, "eddeg", "-k", "1,2")
        assert (code, out) == run(capsys, "eddeg", "-k", "2")[:2] == (0, "1\n")
        assert run(capsys, "eddeg", "-k", "1,3,1,2")[:2] == run(capsys, "eddeg", "-k", "3,2")[:2]

    def test_tree(self, capsys):
        code, out, _ = run(capsys, "eddeg", "-k", "2,3,8", "--tree")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "C[2,3,8] = 12698"
        assert "C[2,10] = 38" in [l.strip() for l in lines]

    def test_table(self, capsys):
        code, out, _ = run(capsys, "eddeg", "-k", "2,2", "--table", "9", "9")
        assert code == 0
        rows = [line.split("\t") for line in out.splitlines()]
        assert rows[0][0] == "k1\\k2"
        assert rows[1][1] == "6"
        assert rows[8][8] == "10218105"

    def test_table_without_sizes(self, capsys):
        code, out, _ = run(capsys, "eddeg", "--table", "3", "3")
        assert code == 0
        assert (code, out) == run(capsys, "eddeg", "-k", "2,2", "--table", "3", "3")[:2]

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("-k", "2,3", "--table", "1", "5"), "--table"),
            (("-k", "5", "--tree"), "two filter sizes"),
            ((), "-k"),
            (("-k", "2,2,2", "--tree", "--table", "2", "2"), "--tree and --table"),
        ],
    )
    def test_usage_error_prints_nothing(self, capsys, argv, message):
        code, out, err = run(capsys, "eddeg", *argv)
        assert code == 2
        assert out == ""
        assert "error: " in err
        assert message in err

    @pytest.mark.parametrize(
        "argv,sha",
        [
            (("-k", "7,7,7,7,7,7,7"), "f73724f0ce115faa17b8766d3cf8b888d26ebec091360a2fc8d9beb26e8d6f63"),
            (("-k", "4,4,4,4,4,4,4,4,4"), "3f6292cad4f682c4c45fe4263ff4bec3eecc70be63e672269da7cf9f2d1bb8ca"),
            (("-k", "2,3,4,5,6,7", "--tree"), "e4fceef3552789f040a2c8f9b9595efb0886ad8c8c9f060570704dc8152a517b"),
            (("-k", "2", "--table", "20", "20"), "7f0225353ddd2f82c7ff16d0ae6f3bb8369ceba647d92f171f0c557995c09cf7"),
        ],
        ids=["seven-7s", "nine-4s", "tree", "table"],
    )
    def test_stdout_pinned(self, capsys, argv, sha):
        # SHA-256 of stdout recorded before merge trees shared nodes and
        # counts; pins every value and the order of the tree lines
        code, out, _ = run(capsys, "eddeg", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha

    @pytest.mark.parametrize(
        "argv,sha",
        [
            (("--table", "30", "30"), "4489bfc2ee3e19e3d5e47057201d831c7f082bc087892e2db4ff8250e4555f8d"),
            (("-k", "2,3,4,5,6,7,8", "--tree"), "88a7b67c65cfb823d015496bf027c0cf22bd6039f186f07d20a3ea7dda9d5204"),
            (("-k", "50,50,50,50,50,50,50,50"), "033c945347f5f12b9d26c6490869d55d06ce2605bf24557da00ac4598211d7d5"),
            (("-k", "1,2,1,3"), "917df3320d778ddbaa5c5c7742bc4046bf803c36ed2b050f30844ed206783469"),
        ],
        ids=["table-30", "tree-2-to-8", "eight-50s", "size-one-layers"],
    )
    def test_stdout_pinned_before_horner_sum(self, capsys, argv, sha):
        # SHA-256 of stdout recorded while each t-term had its own factorial
        # and division and each tree line was formatted afresh
        code, out, _ = run(capsys, "eddeg", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha


class TestIdeal:
    def test_two_layer_text(self, capsys):
        code, out, _ = run(capsys, "ideal", "-k", "2,2", "-s", "2,1")
        assert code == 0
        assert out == "A*D - B*C\n"

    def test_provenance(self, capsys):
        code, out, _ = run(capsys, "ideal", "-k", "5,2", "-s", "3,1", "--provenance")
        assert code == 0
        assert "two_layer(5,2;3):I1" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "ideal", "-k", "2,2", "-s", "2,1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["vars"] == ["c0", "c1", "c2", "c3"]
        assert payload["generators"][0]["terms"][0]["coeff"] == "1"

    def test_grid_stdout_pinned(self, capsys):
        # SHA-256 of the concatenated stdout over the reduced depth-2 and
        # depth-3 architectures with out_size <= 12, recorded before the
        # generator dedup keyed on MultiPoly equality; pins survivors, their
        # order, signs and first tags
        grid = [((k1, k2), (s, 1)) for k1, k2, s in product(range(2, 6), range(2, 6), range(2, 5))]
        grid += [
            (ks, (s1, s2, 1))
            for ks in product(range(2, 4), repeat=3)
            for s1, s2 in product(range(2, 4), repeat=2)
        ]
        grid = [a for a in grid if Architecture(*a).out_size <= 12]
        assert len(grid) == 42
        digest = hashlib.sha256()
        for ks, ss in grid:
            for extra in ((), ("--format", "json")):
                argv = ("-k", ",".join(map(str, ks)), "-s", ",".join(map(str, ss)), "--provenance")
                code, out, _ = run(capsys, "ideal", *argv, *extra)
                assert code == 0
                digest.update(out.encode())
        assert digest.hexdigest() == "1d9840ffc113510eeb48224e085d8d6477a77040bb47de96395e939b900bbd85"

    @pytest.mark.parametrize(
        "extra,sha",
        [
            ((), "712bf821169abb20fe87742bd0e31db69f3795c59e8bdf2f81093bfb97f1186e"),
            (
                ("--format", "json", "--provenance"),
                "d089cb1edd86932f69cb208c3509e663cd55162588e84b6cdf9cf492148e6e99",
            ),
        ],
    )
    def test_more_than_26_variables_pinned(self, capsys, extra, sha):
        # 32 filter coefficients print as c0 .. c31, not as letters; SHA-256
        # of stdout recorded before monomials were stored as packed keys
        code, out, _ = run(capsys, "ideal", "-k", "2,2,2,2,2", "-s", "2,2,2,2,1", *extra)
        assert code == 0
        assert "c31" in out
        assert hashlib.sha256(out.encode()).hexdigest() == sha

    def test_zero_ideal_names_the_reduced_architecture(self, capsys):
        # two typed layers; the trailing size-1 layer merges into the first
        code, out, err = run(capsys, "ideal", "-k", "3,1", "-s", "2,1")
        assert code == 0
        assert out == ""
        assert err == "# zero ideal (the reduced architecture has one layer)\n"

    @pytest.mark.parametrize(
        "sizes,strides,expected",
        [
            # a size-1 first layer at stride 2: the odd entries vanish
            ("1,3", "2,1", "B\nD\n"),
            # an interior size-1 layer at stride 3: c2..c5 vanish, and the
            # rest is the (2,2) network at stride 6
            ("2,1,2", "2,3,1", "F\nE\nD\nC\nA*H - B*G\n"),
        ],
    )
    def test_size_one_layer_at_a_stride(self, capsys, sizes, strides, expected):
        assert run(capsys, "ideal", "-k", sizes, "-s", strides) == (0, expected, "")

    def test_missing_strides(self, capsys):
        code, out, err = run(capsys, "ideal", "-k", "2,2")
        assert code == 2
        assert out == ""
        assert "the following arguments are required: -s" in err


class TestVerify:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "-k", "5,2", "-s", "3,1", "--samples", "15", "--seed", "1")
        assert code == 0
        assert "jacobian rank  : 6 (expected 6)" in out
        assert out.rstrip().endswith("ok")

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "verify", "-k", "2,2", "-s", "2,1", "--samples", "10",
            "--seed", "1", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["failures"] == []
        assert payload["samples"] == 10
        assert payload["nonmember_violations"] == 10

    def test_json_failures_are_generator_indices(self, capsys, monkeypatch):
        original = lcn.verify.vanishing_generators

        def with_constant(arch):
            gens = original(arch)
            one = MultiPoly.constant(gens.variables, 1)
            return replace(gens, generators=gens.generators[:2] + (one,) + gens.generators[2:])

        monkeypatch.setattr(lcn.verify, "vanishing_generators", with_constant)
        code, out, _ = run(capsys, "verify", "-k", "5,2", "-s", "3,1", "--samples", "3", "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["failures"] == [2]
        assert payload["ok"] is False

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_nonmembership_shortfall_fails(self, capsys, monkeypatch, fmt):
        monkeypatch.setattr(lcn.verify, "smoke_nonmembership", lambda *args, **kwargs: 19)
        code, out, _ = run(
            capsys, "verify", "-k", "2,2", "-s", "2,1", "--samples", "20", "--format", fmt,
        )
        assert code == 1
        if fmt == "json":
            payload = json.loads(out)
            assert payload["nonmember_violations"] == 19
            assert payload["ok"] is False
        else:
            assert "nonmembership  : 19/20 random points violate a generator" in out
            assert out.splitlines()[-1] == "FAILED"

    def test_generators_built_once(self, capsys, monkeypatch):
        built = []
        original = lcn.verify.vanishing_generators

        def counting(arch):
            built.append(arch)
            return original(arch)

        monkeypatch.setattr(lcn.verify, "vanishing_generators", counting)
        code, _, _ = run(capsys, "verify", "-k", "3,2,2", "-s", "2,2,1", "--samples", "3")
        assert code == 0
        assert len(built) == 1


    # The benchmark's verify command lines at seed 1: generator count and the
    # SHA-256 of the whole stdout.
    BENCHMARK_LINES = {
        ("5,3,2", "2,2,1", 30): (464, "f77a96feac4f105ddb5db817461bda01b103f85aac3171529d12775cb2c89de1"),
        ("3,3,3", "2,2,1", 60): (163, "79e81375ab06e52ddec0d797037e1e0524bef8043775207d223a48eba55bbbe1"),
        ("5,5", "2,1", 60): (56, "34b7c8b003a0d959a483ecbfd28350e25a83abfa2a534152487236a1cca9ad66"),
        ("4,3", "3,1", 100): (40, "1977f26c4207d348f9302f7b85ec49f5962e0cee4fa070d9b8558b9f207f6867"),
        ("3,2,2", "2,2,1", 100): (42, "df9fd5d89332e7edff82ef9649f26df842130524a8e360f2328e061c5b27b12a"),
    }

    @pytest.mark.parametrize("line", BENCHMARK_LINES)
    def test_benchmark_lines_pinned(self, capsys, line):
        k, s, n = line
        gens, sha = self.BENCHMARK_LINES[line]
        code, out, _ = run(capsys, "verify", "-k", k, "-s", s, "--samples", str(n), "--seed", "1")
        assert code == 0
        assert f"generators     : {gens}\n" in out
        assert f"nonmembership  : {n}/{n} random points violate a generator\n" in out
        assert out.splitlines()[-1] == "ok"
        assert hashlib.sha256(out.encode()).hexdigest() == sha

    def test_negative_samples_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "-k", "2,2", "-s", "2,1", "--samples", "-1")
        assert code == 2
        assert out == ""
        assert "argument --samples" in err


class TestResultant:
    def test_recipe_and_matrices(self, capsys):
        code, out, _ = run(capsys, "resultant", "-k", "5,2", "-s", "3,1", "--print-matrices")
        assert code == 0
        assert "n*=2, n_*=1, r=2" in out
        assert "[ B  E  H ]" in out
        assert "I2 = R_3" in out

    def test_grid_stdout_pinned(self, capsys):
        # SHA-256 of the concatenated stdout, recorded before the two-layer
        # matrices were planned by one function
        digest = hashlib.sha256()
        for k1, k2, s in product(range(2, 7), range(2, 5), range(2, 5)):
            for extra in ((), ("--print-matrices",)):
                code, out, _ = run(capsys, "resultant", "-k", f"{k1},{k2}", "-s", f"{s},1", *extra)
                assert code == 0
                digest.update(out.encode())
        assert digest.hexdigest() == "622f9375b020fe64517e7745a57a84d4795e22e60669409c47d3a0a55013a6f6"

    @pytest.mark.parametrize(
        "ks, ss, sha256",
        [
            ("5,2", "3,1", "e888626aa3e46463b6d8991ea2ecdc797037fc15dc1fefca41b8a912e486cf48"),
            ("3,2", "2,1", "20a0db45b92fddf30ced20216b6a2f0d4470961cc1a4fdc553e4c828a74a583e"),
            ("1,3", "2,1", "c95b5ed699f256bb8bdee52f3fd7a228ddb396948ccd950e86e3b27790412241"),
            ("6,4", "2,1", "4263728c22c32930850312130b652928a2a3db945e9aa06de5acb93c56e2c5e2"),
            ("4,3", "3,1", "a2c3af3b27eda3ebb06ca0261ec3f4fa688df703710d7ffb7c59f3fe7e08b414"),
        ],
    )
    def test_print_matrices_stdout_pinned(self, capsys, ks, ss, sha256):
        # recorded before slots were taken by slicing
        code, out, _ = run(capsys, "resultant", "-k", ks, "-s", ss, "--print-matrices")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    def test_size_one_first_layer(self, capsys):
        code, out, _ = run(capsys, "resultant", "-k", "1,3", "-s", "2,1", "--print-matrices")
        assert code == 0
        assert out.splitlines()[-2:] == ["I1 = R_1  (1x2, minors of size 1)", "[ B  D ]"]

    def test_rejects_deep_architectures(self, capsys):
        code, _, err = run(capsys, "resultant", "-k", "2,2,2", "-s", "2,2,1")
        assert code == 2
        assert "two-layer" in err

    def test_format_flag_rejected(self, capsys):
        code, out, err = run(capsys, "resultant", "-k", "2,2", "-s", "2,1", "--format", "json")
        assert code == 2
        assert out == ""
        assert "--format" in err


class TestCompose:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "compose", "-k", "2,2", "-s", "2,1", "--seed", "5")
        assert code == 0
        assert out.splitlines()[1].startswith("w1 = ")

    def test_json_members(self, capsys):
        code, out, _ = run(
            capsys, "compose", "-k", "3,2", "-s", "2,1", "--seed", "9", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        from fractions import Fraction

        w = [Fraction(v) for v in payload["filter"]]
        layers = [[Fraction(v) for v in layer] for layer in payload["layers"]]
        from lcn.arch import compose_filters

        assert tuple(w) == compose_filters(Architecture((3, 2), (2, 1)), layers)


class TestCritpoints:
    def test_small_run(self, capsys):
        code, out, _ = run(
            capsys, "critpoints", "-k", "2,2", "-s", "2,1",
            "--starts", "400", "--seed", "42", "--data-seed", "7",
        )
        assert code == 0
        assert "expected count : 6" in out
        assert "distinct found : 6" in out

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "critpoints", "-k", "2,2", "-s", "2,1",
            "--starts", "400", "--seed", "42", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["distinct"] == payload["expected"] == 6
        assert payload["max_residual"] < 1e-10

    def test_shortfall_exit_code(self, capsys):
        code, out, _ = run(
            capsys, "critpoints", "-k", "2,2", "-s", "2,1", "--starts", "2", "--seed", "0"
        )
        assert code == 1

    def test_non_hypersurface_usage_error(self, capsys):
        code, _, err = run(capsys, "critpoints", "-k", "5,2", "-s", "3,1")
        assert code == 2
        assert "non-hypersurface" in err

    def test_size_one_first_layer_is_a_linear_space(self, capsys):
        # (1,2) at stride 2: the filters with c1 = 0, one critical point
        code, out, _ = run(
            capsys, "critpoints", "-k", "1,2", "-s", "2,1", "--starts", "20", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["distinct"] == payload["expected"] == 1
        # (1,2,2) at strides 2,1,1: c1 = c3 = 0 has codimension 2
        code, _, err = run(capsys, "critpoints", "-k", "1,2,2", "-s", "2,1,1")
        assert code == 2
        assert "codimension 2" in err

    # the second case merges its size-1 layer away and keeps the stride product
    @pytest.mark.parametrize("sizes,strides", [("2,2", "2,3"), ("2,2,1", "2,3,1")])
    def test_last_stride_kept(self, capsys, sizes, strides):
        code, out, _ = run(
            capsys, "critpoints", "-k", sizes, "-s", strides, "--starts", "300", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["strides"] == [2, 3]
        assert payload["distinct"] == payload["expected"] == 6

    def test_zero_out_dim_usage_error(self, capsys):
        code, _, err = run(capsys, "critpoints", "-k", "2,2", "-s", "2,1", "--out-dim", "0")
        assert code == 2
        assert "--out-dim" in err

    @pytest.mark.parametrize("flag", ["--seed", "--data-seed"])
    def test_negative_seed_names_flag(self, capsys, flag):
        code, _, err = run(capsys, "critpoints", "-k", "2,2", "-s", "2,1", flag, "-1")
        assert code == 2
        assert f"argument {flag}" in err

    def test_json_flag_removed(self, capsys):
        code, _, err = run(capsys, "critpoints", "-k", "2,2", "-s", "2,1", "--json")
        assert code == 2
        assert "--json" in err

    # The benchmark's (2,2) operations at its seed 1: (--seed, --data-seed)
    # and the (distinct, real) counts that 100 starts find.
    @pytest.mark.parametrize(
        "seed,data_seed,counts",
        [
            (1360519128, 854298711, (6, 2)),
            (1297078773, 1460426806, (6, 2)),
            (1486213216, 1982260984, (6, 2)),
            (2107584400, 1304393579, (5, 1)),
            (305538746, 776982476, (6, 2)),
            (517455722, 1048435624, (5, 1)),
            (608914157, 439391812, (6, 2)),
            (669840859, 636460010, (6, 2)),
        ],
    )
    def test_benchmark_counts_pinned(self, capsys, seed, data_seed, counts):
        code, out, _ = run(
            capsys, "critpoints", "-k", "2,2", "-s", "2,1", "--format", "json",
            "--starts", "100", "--seed", str(seed), "--data-seed", str(data_seed),
        )
        payload = json.loads(out)
        assert (payload["distinct"], payload["real"]) == counts
        assert payload["starts_used"] == 100
        assert payload["saturated"] == (counts[0] == 6)
        assert code == (0 if payload["saturated"] else 1)


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("ideal", "-k", "3,2,2", "-s", "2,2,1", "--format", "json", "--provenance"),
            ("eddeg", "-k", "2,3,4,5", "--tree"),
            ("compose", "-k", "3,2,2", "-s", "2,2,1", "--seed", "3"),
            ("verify", "-k", "2,2", "-s", "2,1", "--samples", "5", "--seed", "2"),
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_one_parser_serves_every_call(self, capsys):
        calls = [
            ("verify", "-k", "2,2", "-s", "2,1", "--samples", "-1"),
            ("eddeg", "-k", "2,3,4,5", "--tree"),
            ("verify", "-k", "3,2,2", "-s", "2,2,1", "--samples", "5", "--seed", "2"),
        ]
        separate = []
        for argv in calls:
            _build_parser.cache_clear()
            separate.append(run(capsys, *argv))
        assert [code for code, _, _ in separate] == [2, 0, 0]
        # a usage error on the shared parser leaves nothing behind for the next call
        assert [run(capsys, *argv) for argv in calls] == separate
        assert _build_parser() is _build_parser()
