"""Print the engine's cost per tick at several swarm sizes, in µs of thread CPU time.

Each size in SIZES is one `run_simulation` in the default arena at SEED, timed
with `time.thread_time` and divided by its ticks; a size's cost is the
minimum over --repeats runs. With --against DIR, the `src/` of another
checkout is loaded in the same process under a second package name, and the
two sides alternate run by run (which side goes first alternates by round),
so a change in host speed reaches both sides alike; the last column is this
checkout's cost over the other's. pytest does not collect this file. Run it
from the repository root:

    python tests/tick_cost.py [--seconds 100] [--repeats 5] [--against ../other/src]
"""
import argparse
import importlib.util
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))

import swarmclean.engine  # noqa: E402

SIZES = (0, 10, 30, 50, 200)  # swarm sizes, robots
SEED = 101


def load_other(src_dir, name="swarmclean_other"):
    """The `swarmclean` package under src_dir, imported as `name`; its modules import each other relatively."""
    package_dir = os.path.join(os.path.abspath(src_dir), "swarmclean")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package_dir, "__init__.py"), submodule_search_locations=[package_dir]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.engine")


def tick_cost_us(engine, n_robots, seconds):
    """Thread CPU time of one run of n_robots over `seconds` simulated seconds, in µs per tick."""
    config = engine.SimConfig(n_robots=n_robots, duration_s=seconds, seed=SEED)
    start = time.thread_time()
    engine.run_simulation(config)
    return (time.thread_time() - start) * 1e6 / (seconds * config.ticks_per_second)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=int, default=100, help="simulated seconds per run")
    parser.add_argument("--repeats", type=int, default=5, help="runs per size; the minimum is reported")
    parser.add_argument("--against", metavar="SRC", help="another checkout's src/ directory to interleave with")
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.repeats < 1:
        parser.error("--seconds and --repeats must be at least 1")
    engines = {"this": swarmclean.engine}
    if args.against:
        engines["other"] = load_other(args.against)
    for engine in engines.values():  # untimed: the first run pays numpy's first-call costs
        engine.run_simulation(engine.SimConfig(n_robots=2, duration_s=1))
    best = {(side, n): float("inf") for side in engines for n in SIZES}
    for round_ in range(args.repeats):
        for n in SIZES:
            sides = list(engines) if round_ % 2 == 0 else list(engines)[::-1]
            for side in sides:
                cost = tick_cost_us(engines[side], n, args.seconds)
                best[side, n] = min(best[side, n], cost)
    print(f"µs per tick, minimum of {args.repeats} runs of {args.seconds} s, seed {SEED} (thread CPU time)")
    print("N\tthis" + ("\tother\tthis/other" if args.against else ""))
    for n in SIZES:
        row = f"{n}\t{best['this', n]:.1f}"
        if args.against:
            row += f"\t{best['other', n]:.1f}\t{best['this', n] / best['other', n]:.3f}"
        print(row)


if __name__ == "__main__":
    main()
