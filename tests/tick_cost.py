"""Print the engine's cost per tick at several swarm sizes, in µs of thread CPU time.

Each size in SIZES is one run in the default arena at SEED, timed with
`time.thread_time` and divided by its ticks; a row's cost is the minimum over
--repeats runs. The last row is one `run_batch` shaped like a batch of the
bench's `sweep_cells` workload: its grid N = 10..50 x beta = 3, 6 at one
repetition, ten runs of 300 robots in all at seeds SEED to SEED + 9, so it
shows the once-per-second boundary's batch-wide work as well as the tick's;
its cost is per tick of the whole batch. With --against DIR, the `src/` of another
checkout is loaded in the same process under a second package name, and the
two sides alternate run by run (which side goes first alternates by round),
so a change in host speed reaches both sides alike. Each round's two runs of
a row are one pair; the row then adds the other side's minimum, this side's
minimum over it, and the median and quartiles of the per-pair ratios (this
over other), which resolve a smaller change than the ratio of the minima, and
whether both sides' runs gave the same bytes: every run's metrics columns,
field, poses and cleaning counts, hashed. The script exits 1 when any row
prints NO there, so --against this checkout's own src/ checks that repeated
runs give the same bytes. Where /proc/loadavg can be read, its line is printed
before and after the rounds: load from other work moves the costs, and pair
ratios taken while it changed are not to be trusted. pytest does not collect
this file.
Run it from the repository root:

    python tests/tick_cost.py [--seconds 100] [--repeats 5] [--against ../other/src]
"""
import argparse
import hashlib
import importlib.util
import os
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))

import swarmclean.engine  # noqa: E402

SIZES = (0, 10, 30, 50, 200)  # swarm sizes, robots, each one run at the default beta
BATCH = tuple((n, beta) for n in (10, 20, 30, 40, 50) for beta in (3.0, 6.0))  # (N, beta) of each run of the batch row
SEED = 101
ROWS = {**{str(n): ((n, 6.0),) for n in SIZES}, "300 in 10 runs": BATCH}  # row label: the runs' (N, beta)


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


def tick_cost_us(engine, runs, seconds):
    """One batch of `runs`, (N, beta) pairs, over `seconds` simulated seconds: (µs of thread CPU time per tick,
    sha256 of every run's metrics columns, field, poses and cleaning counts)."""
    configs = [
        engine.SimConfig(n_robots=n, beta=beta, duration_s=seconds, seed=SEED + k) for k, (n, beta) in enumerate(runs)
    ]
    start = time.thread_time()
    worlds = engine.run_batch(configs)
    cost = (time.thread_time() - start) * 1e6 / (seconds * configs[0].ticks_per_second)
    digest = hashlib.sha256()
    for w in worlds:
        for array in (*vars(w.series).values(), w.field, w.xy, w.heading, w.cleanings):
            digest.update(np.ascontiguousarray(array).tobytes())
    return cost, digest.hexdigest()


def print_load(when):
    """Print the host's load averages (1, 5 and 15 min, then running/all tasks), if /proc/loadavg can be read."""
    try:
        with open("/proc/loadavg") as fh:
            print(f"load {when} the rounds: {fh.read().strip()}", flush=True)
    except OSError:
        pass


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
    costs = {(side, label): [] for side in engines for label in ROWS}  # one cost per round: round k is pair k
    digests = {key: set() for key in costs}
    print_load("before")
    for round_ in range(args.repeats):
        for label, runs in ROWS.items():
            sides = list(engines) if round_ % 2 == 0 else list(engines)[::-1]
            for side in sides:
                cost, digest = tick_cost_us(engines[side], runs, args.seconds)
                costs[side, label].append(cost)
                digests[side, label].add(digest)
    print_load("after")
    print(f"µs per tick, minimum of {args.repeats} runs of {args.seconds} s, seed {SEED} (thread CPU time)")
    print("N\tthis" + ("\tother\tthis/other\tpair ratio median (quartiles)\tsame bytes" if args.against else ""))
    differ = False
    for label in ROWS:
        this = costs["this", label]
        row = f"{label}\t{min(this):.1f}"
        if args.against:
            other = costs["other", label]
            q1, median, q3 = np.percentile(np.divide(this, other), [25, 50, 75])
            same = "yes" if len(digests["this", label] | digests["other", label]) == 1 else "NO"
            differ |= same == "NO"
            row += f"\t{min(other):.1f}\t{min(this) / min(other):.3f}\t{median:.3f} ({q1:.3f}-{q3:.3f})\t{same}"
        print(row)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
