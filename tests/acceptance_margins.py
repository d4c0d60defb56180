"""Print how far each acceptance criterion sits from its bound at one base seed.

Runs the default grid of `tests/test_acceptance.py` (5 populations x 2
speeds x 6 repetitions, 4000 s each; a few minutes on two cores) at the
given base seed in a temporary directory, then prints criteria 1-5 as
value, bound and margin. Every bound is an upper one: a criterion passes
while its margin is positive (criteria 2, 4 and 5 also at exactly 0).
pytest does not collect this file. Run it from the repository root:

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
    costabilization_gap,
    extreme_cue_ratio,
    final_cue_fraction,
    largest_anova_p,
    ratio_window_change,
)


def margins(sweep_dir) -> list[tuple[str, float, float]]:
    """(criterion, value, bound) for criteria 1-5 of a finished sweep."""
    medians = cell_medians_of(sweep_dir)
    return [
        ("1: final cue / initial cue, N=30 beta=6", *final_cue_fraction(medians)),
        ("2: final cue N=50 beta=6 / N=10 beta=3", *extreme_cue_ratio(medians)),
        ("3: largest window change of the N=30 ratio", *ratio_window_change(medians, 30)),
        ("3: largest window change of the N=50 ratio", *ratio_window_change(medians, 50)),
        ("4: abs(t_coh - t_cue) in s, N=50 beta=6", *costabilization_gap(medians)),
        ("5: largest ANOVA p", *largest_anova_p(cmd_analyze(sweep_dir))),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base-seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        cmd_sweep(ExperimentPlan(base_seed=args.base_seed), tmp, jobs=args.jobs)
        rows = margins(tmp)
    print(f"| criterion | bound | base seed {args.base_seed} | margin |")
    print("|---|---|---|---|")
    for name, value, bound in rows:
        print(f"| {name} | {bound:.3g} | {value:.3g} | {bound - value:.3g} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
