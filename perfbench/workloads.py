"""The benchmark's four workloads and the output check of every operation.

Each workload is a fixed list of ``lcn`` command lines, run in order through
``lcn.cli.main`` in one fresh interpreter.  Every operation carries what its
output must look like, so a change that is fast but wrong shows up as a
failed operation rather than as a gain.

Why each workload is there:

* ``ideal``: the symbolic build path (polynomial multiply and determinant,
  resultant minors, recursive generator assembly) at depths 2 to 5, with no
  exact evaluation.  Its 14 two-layer bases are all distinct.
* ``verify``: the read path of the same polynomial layer; nearly all of its
  time is exact evaluation of 40 to 464 generators per architecture, and
  each architecture's generators are built twice.
* ``critpoints``: multi-start Newton in numpy, which barely touches the
  symbolic layers, on the three smallest hypersurface architectures.
* ``eddeg``: pure big-integer closed-form counts and a merge tree that makes
  2836 calls on 108 distinct multisets; it bypasses every other layer.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass

import numpy as np

# Newton starts per critical-point run.  At this budget the larger two
# architectures usually fall short of their predicted count; that shortfall
# is what ``recall`` reports, and it must stay visible.
CRITPOINT_STARTS = 100
# (seed, data seed) pairs drawn per architecture, so one unlucky pair moves
# ``recall`` and ``wall_s`` less.
CRITPOINT_SEED_PAIRS = 8
MAX_RESIDUAL = 1e-10


@dataclass(frozen=True)
class Op:
    """One command line and what its output must be.

    ``kind`` picks the check: ``digest`` compares the SHA-256 of stdout,
    ``verify`` wants exit 0, ``ok`` and ``expect`` generators, and
    ``critpoints`` checks the JSON report against ``expect`` predicted points.
    """

    argv: tuple
    kind: str
    expect: object

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Outcome:
    ok: bool
    reason: str
    found: int
    expected: int


# SHA-256 of stdout, recorded at the commit that introduced the benchmark.
_IDEAL = {
    ("4,4,3", "2,2,1"): "be75728900ded8809d9a50e82707c32717d464b8501b2d426ab8f866a8bbb279",
    ("3,3,3,3", "2,2,2,1"): "588a5464775f863e3ca5ec0fa18a73f74311f90d0a09da047972cc5a2b3ad152",
    ("5,4,2", "2,2,1"): "f7d52bfda9cd8753ef111b0741db6b41d9f2f9dd2757f7f162297432297d8149",
    ("4,3,3", "2,2,1"): "28f30b82c8d67e7d11dec34ed6ac8cbc30a41f4ccf6748b7fcea39f528dd8e80",
    ("2,2,2,2,2", "2,2,2,2,1"): "712bf821169abb20fe87742bd0e31db69f3795c59e8bdf2f81093bfb97f1186e",
    ("6,4", "2,1"): "ff571f9b037d852448beecabb06a7c65d05effc60f8fb5952219d1e78760a06f",
}
_EDDEG = {
    ("-k", "7,7,7,7,7,7,7"): "f73724f0ce115faa17b8766d3cf8b888d26ebec091360a2fc8d9beb26e8d6f63",
    ("-k", "4,4,4,4,4,4,4,4,4"): "3f6292cad4f682c4c45fe4263ff4bec3eecc70be63e672269da7cf9f2d1bb8ca",
    ("-k", "2,3,4,5,6,7", "--tree"): "e4fceef3552789f040a2c8f9b9595efb0886ad8c8c9f060570704dc8152a517b",
    ("-k", "2", "--table", "20", "20"): "7f0225353ddd2f82c7ff16d0ae6f3bb8369ceba647d92f171f0c557995c09cf7",
}
# (sizes, strides, samples) -> generator count at the same commit.
_VERIFY = {
    ("5,3,2", "2,2,1", 30): 464,
    ("3,3,3", "2,2,1", 60): 163,
    ("5,5", "2,1", 60): 56,
    ("4,3", "3,1", 100): 40,
    ("3,2,2", "2,2,1", 100): 42,
}
# Architectures of the critical-point workload and their predicted counts.
_CRITPOINTS = {"2,2": 6, "3,2": 10, "4,2": 14}


def _ideal_ops(seed: int) -> list:
    return [
        Op(("ideal", "-k", k, "-s", s), "digest", sha) for (k, s), sha in _IDEAL.items()
    ]


def _verify_ops(seed: int) -> list:
    return [
        Op(("verify", "-k", k, "-s", s, "--samples", str(n), "--seed", str(seed)), "verify", gens)
        for (k, s, n), gens in _VERIFY.items()
    ]


def _critpoints_ops(seed: int) -> list:
    rng = random.Random(f"critpoints:{seed}")
    ops = []
    for _ in range(CRITPOINT_SEED_PAIRS):
        newton_seed, data_seed = rng.randrange(2**31), rng.randrange(2**31)
        for k, expected in _CRITPOINTS.items():
            argv = (
                "critpoints", "-k", k, "-s", "2,1", "--format", "json",
                "--starts", str(CRITPOINT_STARTS),
                "--seed", str(newton_seed), "--data-seed", str(data_seed),
            )
            ops.append(Op(argv, "critpoints", expected))
    return ops


def _eddeg_ops(seed: int) -> list:
    return [Op(("eddeg",) + args, "digest", sha) for args, sha in _EDDEG.items()]


# The seed drives the sampled filters of ``verify`` and the Newton starts and
# training data of ``critpoints``; ``ideal`` and ``eddeg`` are deterministic.
WORKLOADS = {
    "ideal": _ideal_ops,
    "verify": _verify_ops,
    "critpoints": _critpoints_ops,
    "eddeg": _eddeg_ops,
}


def check(op: Op, rc, stdout: str, sha256: str) -> Outcome:
    """Judge one operation from its exit code and captured stdout.

    ``rc`` is None when the operation raised.  ``found``/``expected`` feed
    ``recall``: predicted critical points for ``critpoints``, one per
    operation elsewhere.
    """
    if op.kind == "critpoints":
        return _check_critpoints(op, rc, stdout)
    if rc is None:
        return Outcome(False, "raised", 0, 1)
    if op.kind == "digest":
        if rc != 0:
            return Outcome(False, f"exit code {rc}", 0, 1)
        if sha256 != op.expect:
            return Outcome(False, f"stdout digest {sha256[:12]} differs from the recorded one", 0, 1)
        return Outcome(True, "", 1, 1)
    if op.kind == "verify":
        if rc != 0:
            return Outcome(False, f"exit code {rc}", 0, 1)
        match = re.search(r"^generators\s*:\s*(\d+)$", stdout, re.M)
        if stdout.rstrip().splitlines()[-1:] != ["ok"]:
            return Outcome(False, "last line is not 'ok'", 0, 1)
        if match is None or int(match.group(1)) != op.expect:
            return Outcome(False, f"generator count differs from {op.expect}", 0, 1)
        return Outcome(True, "", 1, 1)
    raise ValueError(f"unknown check kind {op.kind!r}")


def _check_critpoints(op: Op, rc, stdout: str) -> Outcome:
    """A report is correct when it is internally consistent and exact enough.

    Falling short of the prediction is not a failure: it lowers ``recall``.
    A report that claims more points than predicted, mislabels saturation,
    carries a residual of 1e-10 or more, or (when complete) is not closed
    under complex conjugation is wrong.
    """
    expected = op.expect

    def fail(reason):
        return Outcome(False, reason, 0, expected)

    if rc is None:
        return fail("raised")
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return fail("stdout is not JSON")
    points = report["points"]
    distinct = report["distinct"]
    if report["expected"] != expected:
        return fail(f"predicted count {report['expected']} instead of {expected}")
    if distinct != len(points) or distinct > expected:
        return fail(f"{distinct} distinct points reported, {len(points)} listed")
    if report["saturated"] != (distinct == expected):
        return fail("saturated flag disagrees with the count")
    if rc != (0 if report["saturated"] else 1):
        return fail(f"exit code {rc}")
    if any(p["residual"] >= MAX_RESIDUAL for p in points):
        return fail("residual at or above 1e-10")
    if report["saturated"] and not _closed_under_conjugation(points):
        return fail("complete point set is not closed under conjugation")
    return Outcome(True, "", distinct, expected)


def _closed_under_conjugation(points) -> bool:
    vecs = [
        np.array(p["w_re"] + [p["lambda_re"]]) + 1j * np.array(p["w_im"] + [p["lambda_im"]])
        for p in points
    ]
    return all(
        any(np.linalg.norm(v.conj() - u) < 1e-6 * max(1.0, np.linalg.norm(v)) for u in vecs)
        for v in vecs
    )
