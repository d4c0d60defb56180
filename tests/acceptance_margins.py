"""Print how far each acceptance criterion sits from its bound at one base seed.

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
"""
import argparse
import os
import sys
import tempfile

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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base-seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        cmd_sweep(ExperimentPlan(base_seed=args.base_seed), tmp, jobs=args.jobs)
        rows, orderings = margins(tmp)
    print(f"| criterion | bound | base seed {args.base_seed} | margin | pass |")
    print("|---|---|---|---|---|")
    for name, value, bound, strict in rows:
        print(f"| {name} | {bound:.3g} | {value:.3g} | {bound - value:.3g} | {passes(value, bound, strict)} |")
    for name, holds in orderings:
        print(f"{name}: {holds}")
    failed = [row[0] for row in rows if not passes(*row[1:])] + [name for name, holds in orderings if not holds]
    if failed:
        print(f"FAILED at base seed {args.base_seed}: {'; '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
