#!/usr/bin/env python3
"""Count critical points of seeded training problems on hypersurface varieties.

For each architecture the script draws Gaussian data, reduces the quadratic
loss to a weighted nearest-point problem, runs the multi-start Newton search
and compares the number of distinct complex critical points against the
closed-form prediction.  It also runs the plain (unweighted) Frobenius case
on the rank-one quadric, where the classical low-rank approximation count
of 2 applies instead.
"""

import argparse

import numpy as np

from lcn.arch import Architecture
from lcn.cli import _at_least
from lcn.critpoints import WeightedDistanceProblem, seeded_problem, solve_critical_points
from lcn.eddegree import arch_ed_degree
from lcn.idealgen import vanishing_generators


def run_training_case(arch, starts, seed, data_seed):
    _, _, problem = seeded_problem(arch, data_seed, 3)
    expected = arch_ed_degree(arch)
    report = solve_critical_points(problem, starts=starts, seed=seed)
    saturated = report.distinct_count >= expected
    status = "ok" if saturated else "SHORT"
    print(
        f"{arch.describe():<16} expected {expected:3d}  found {report.distinct_count:3d} "
        f"({report.real_count} real)  starts {report.starts_used:5d}  "
        f"max residual {report.max_residual:.1e}  [{status}]"
    )
    return saturated


def run_frobenius_case(starts, seed):
    arch = Architecture((2, 2), (2, 1))
    f = vanishing_generators(arch).generators[0]
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(4)
    problem = WeightedDistanceProblem(np.eye(4), u, f)
    report = solve_critical_points(problem, starts=starts, seed=seed)
    print(
        f"{'identity weight':<16} expected   2  found {report.distinct_count:3d} "
        f"({report.real_count} real)  starts {report.starts_used:5d}  "
        f"max residual {report.max_residual:.1e}  "
        f"[{'ok' if report.distinct_count == 2 else 'UNEXPECTED'}]"
    )
    return report.distinct_count == 2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--starts", type=_at_least(1), default=2000)
    parser.add_argument("--seed", type=_at_least(0), default=42)
    parser.add_argument("--data-seed", type=_at_least(0), default=7)
    args = parser.parse_args()

    ok = True
    for sizes in [(2, 2), (3, 2)]:
        arch = Architecture(sizes, (2, 1))
        ok &= run_training_case(arch, args.starts, args.seed, args.data_seed)
    ok &= run_frobenius_case(args.starts, args.seed)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
