"""Print how far each acceptance criterion sits from its bound at one base seed, or over several.

Runs the default grid of `tests/test_acceptance.py` (5 populations x 2
speeds x 6 repetitions, 4000 s each; a few minutes on two cores) at the
given base seed in a temporary directory, then prints criteria 1-5 as
value, bound and margin, and the orderings that criteria 2, 3 and 5 also
require. Every bound is an upper one: a criterion passes while its margin
is positive (criteria 2, 4 and 5 also at exactly 0), as in the tests. The
exit status is 1 when any criterion or ordering fails, so this can gate a
second base seed. pytest does not collect this file. Run it from the
repository root:

    python tests/acceptance_margins.py --base-seed 2 [--jobs 2]

`--base-seeds` takes a range (1-9), a list (1,4,7) or both (1-3,7) and
runs one sweep per seed, one after another. It prints, per criterion, the
smallest, median and largest value over the seeds and the seeds where it
fails, and per ordering the seeds where it does not hold; the exit status
is 1 when any seed fails. Judge a change that moves trajectories on this
distribution, not on one draw:

    python tests/acceptance_margins.py --base-seeds 1-9 [--jobs 2]
"""
import argparse
import os
import re
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(HERE, "..", "src")]

from swarmclean.harness import ExperimentPlan, cmd_analyze, cmd_sweep  # noqa: E402
from test_acceptance import (  # noqa: E402
    cell_medians_of,
    coherency_population_over_time,
    costabilization_gap,
    cue_orderings,
    extreme_cue_ratio,
    final_cue_fraction,
    largest_anova_p,
    ratio_plateaus,
    ratio_rises,
    ratio_window_change,
)


def margins(sweep_dir) -> tuple[list[tuple[str, float, float, bool]], list[tuple[str, bool]]]:
    """Criteria 1-5 of a finished sweep as (criterion, value, bound, strict), and their orderings as (name, holds).

    A strict criterion passes while value < bound, any other while value <= bound.
    """
    medians = cell_medians_of(sweep_dir)
    analysis = cmd_analyze(sweep_dir)
    rows = [
        ("1: final cue / initial cue, N=30 beta=6", *final_cue_fraction(medians), True),
        ("2: final cue N=50 beta=6 / N=10 beta=3", *extreme_cue_ratio(medians), False),
        ("3: largest window change of the N=30 ratio", *ratio_window_change(medians, 30), True),
        ("3: largest window change of the N=50 ratio", *ratio_window_change(medians, 50), True),
        ("4: abs(t_coh - t_cue) in s, N=50 beta=6", *costabilization_gap(medians), False),
        ("5: largest ANOVA p", *largest_anova_p(analysis), False),
    ]
    ok_pop, ok_speed = cue_orderings(medians)
    plateaus = ratio_plateaus(medians)
    orderings = [
        ("2: final cue falls with population", ok_pop),
        ("2: final cue falls with speed", ok_speed),
        ("3: the N=30 ratio rises", ratio_rises(medians, 30)),
        ("3: the N=50 ratio rises", ratio_rises(medians, 50)),
        ("3: plateau N=50 <= N=30", plateaus[50] <= plateaus[30]),
        ("5: coherency F population > time", coherency_population_over_time(analysis)),
    ]
    return rows, orderings


def passes(value: float, bound: float, strict: bool) -> bool:
    return value < bound if strict else value <= bound


def base_seeds(text: str) -> list[int]:
    """Seeds from comma-separated whole numbers and inclusive ranges, e.g. "1-9" or "1,4,7", in order, once each."""
    seeds = []
    for part in text.split(","):
        match = re.fullmatch(r"\s*(\d+)\s*(?:-\s*(\d+)\s*)?", part)
        if not match or (match[2] and int(match[2]) < int(match[1])):
            raise argparse.ArgumentTypeError(f"expected seeds such as 1-9 or 1,4,7, got {text!r}")
        first = int(match[1])
        seeds += [seed for seed in range(first, int(match[2] or first) + 1) if seed not in seeds]
    return seeds


def sweep_margins(base_seed: int, jobs: int):
    """`margins` of the default grid swept at one base seed in a temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        cmd_sweep(ExperimentPlan(base_seed=base_seed), tmp, jobs=jobs)
        return margins(tmp)


def failures(rows, orderings) -> list[str]:
    return [row[0] for row in rows if not passes(*row[1:])] + [name for name, holds in orderings if not holds]


def report_one(seed: int, rows, orderings) -> bool:
    print(f"| criterion | bound | base seed {seed} | margin | pass |")
    print("|---|---|---|---|---|")
    for name, value, bound, strict in rows:
        print(f"| {name} | {bound:.3g} | {value:.3g} | {bound - value:.3g} | {passes(value, bound, strict)} |")
    for name, holds in orderings:
        print(f"{name}: {holds}")
    failed = failures(rows, orderings)
    if failed:
        print(f"FAILED at base seed {seed}: {'; '.join(failed)}", file=sys.stderr)
    return not failed


def report_many(by_seed: dict) -> bool:
    """One line per criterion over the seeds, from {seed: (rows, orderings)} with rows and orderings in one order."""
    seeds = list(by_seed)
    print(f"| criterion | bound | min | median | max | failing base seeds of {len(seeds)} |")
    print("|---|---|---|---|---|---|")
    rows, orderings = by_seed[seeds[0]]  # names and bounds
    for i, (name, _, bound, strict) in enumerate(rows):
        values = np.array([by_seed[seed][0][i][1] for seed in seeds])
        failing = [seed for seed, value in zip(seeds, values) if not passes(value, bound, strict)]
        stats = f"{values.min():.3g} | {np.median(values):.3g} | {values.max():.3g}"
        print(f"| {name} | {bound:.3g} | {stats} | {', '.join(map(str, failing)) or 'none'} |")
    for i, (name, _) in enumerate(orderings):
        failing = [seed for seed in seeds if not by_seed[seed][1][i][1]]
        print(f"{name}: fails at base seeds {', '.join(map(str, failing))}" if failing else f"{name}: holds at all")
    failed = [seed for seed in seeds if failures(*by_seed[seed])]
    if failed:
        print(f"FAILED at base seeds {', '.join(map(str, failed))} of {len(seeds)}", file=sys.stderr)
    return not failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    seeds = parser.add_mutually_exclusive_group(required=True)
    seeds.add_argument("--base-seed", type=int)
    seeds.add_argument("--base-seeds", type=base_seeds, help="a range such as 1-9, or a list such as 1,4,7")
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args(argv)
    if args.base_seeds is None:
        return 0 if report_one(args.base_seed, *sweep_margins(args.base_seed, args.jobs)) else 1
    by_seed = {}
    for seed in args.base_seeds:
        by_seed[seed] = sweep_margins(seed, args.jobs)
        print(f"base seed {seed}: {'; '.join(failures(*by_seed[seed])) or 'pass'}", file=sys.stderr, flush=True)
    return 0 if report_many(by_seed) else 1


if __name__ == "__main__":
    sys.exit(main())
