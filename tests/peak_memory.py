"""Print the traced peak memory of one short run, and its bytes per robot pair.

A run of `seconds` simulated seconds with n_robots robots in a square arena
of side_cm is traced with `tracemalloc`, which numpy reports its array data
to. The field holds one float64 per square cm, so its 8 bytes per cell are
taken off the peak before dividing by the N (N - 1) / 2 robot pairs; what is
left is the cost of population. pytest does not collect this file. Run it
from the repository root:

    python tests/peak_memory.py [--robots 1000] [--side-cm 1000] [--seconds 2]
"""
import argparse
import os
import sys
import tracemalloc

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from swarmclean.engine import SimConfig, run_simulation  # noqa: E402


def traced_run_peak(n_robots: int, side_cm: float, seconds: int = 2) -> tuple[int, float]:
    """(traced peak in bytes, bytes per pair net of the field) of one run at the default seed."""
    config = SimConfig(n_robots=n_robots, arena_width_cm=side_cm, arena_height_cm=side_cm, duration_s=seconds)
    tracemalloc.start()
    try:
        run_simulation(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cells = round(side_cm) ** 2
    return peak, (peak - 8 * cells) / (n_robots * (n_robots - 1) // 2)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--robots", type=int, default=1000)
    parser.add_argument("--side-cm", type=float, default=1000.0)
    parser.add_argument("--seconds", type=int, default=2)
    args = parser.parse_args()
    peak, per_pair = traced_run_peak(args.robots, args.side_cm, args.seconds)
    print(
        f"traced peak of a {args.seconds} s run, N = {args.robots} in a {args.side_cm:g} cm arena: "
        f"{peak / 2**20:.1f} MiB, {per_pair:.0f} B per pair net of the field"
    )


if __name__ == "__main__":
    main()
