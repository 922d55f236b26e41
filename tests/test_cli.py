import hashlib
import json
from itertools import product

import pytest

import lcn.verify
from lcn.cli import main


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
        ],
    )
    def test_usage_error_prints_nothing(self, capsys, argv, message):
        code, out, err = run(capsys, "eddeg", *argv)
        assert code == 2
        assert out == ""
        assert message in err


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
        assert payload["nonmember_violations"] == 20

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_nonmembership_shortfall_fails(self, capsys, monkeypatch, fmt):
        monkeypatch.setattr(lcn.verify, "smoke_nonmembership", lambda *args, **kwargs: 19)
        code, out, _ = run(
            capsys, "verify", "-k", "2,2", "-s", "2,1", "--samples", "5", "--format", fmt,
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
        from lcn.arch import Architecture, compose_filters

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
