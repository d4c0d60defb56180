"""Golden outputs: sha256 digests of whole runs for fixed short configs.

Each case pins the bytes of `metrics.csv`, the final field, the final
poses (x, y, heading) and the per-robot cleaning counts. The digests were
captured from the engine before its two pair passes shared one geometry
buffer (the "clipped" case from the per-robot engine, before the FSM step,
integration and cleaning were batched; the "dense" case from the engine
that still filled the N x N distance matrix every tick, before the
neighbour list), so any change that alters a single output bit fails
here. A change
that alters behaviour on purpose re-captures them with

    PYTHONPATH=src python tests/test_golden.py

and names the behaviour that changed in CHANGES.md. Every case also runs
inside a batch of three runs (`run_batch`), first and last in the batch, and
must give the same digests: once beside runs of other seeds, and once beside
runs of other grid cells (another N and beta), as a sweep packs them. On x86-64 the cases run a second time in a
subprocess with numpy's SIMD dispatch cut to the baseline, so a kernel whose
bits depend on the CPU it runs on fails here too.
"""
import hashlib
import os
import platform
import subprocess
import sys
import tempfile
from dataclasses import replace

import numpy as np
import pytest

from swarmclean.engine import PairGeometry, SimConfig, run_batch, run_simulation

CASES = {
    "N0": dict(n_robots=0, duration_s=20, seed=3),
    "N1": dict(n_robots=1, duration_s=60, seed=5),
    "N10": dict(n_robots=10, duration_s=120, seed=7),
    "N30": dict(n_robots=30, beta=3.0, duration_s=60, seed=11),
    "N50": dict(n_robots=50, duration_s=60, seed=13),
    "N200": dict(n_robots=200, duration_s=40, seed=17),
    # a small body on a wide wheel base in a 100 x 60 arena: cleaning windows
    # clipped at the walls, ground sensors outside the arena, cells cleaned to 0
    "clipped": dict(
        n_robots=20,
        duration_s=120,
        seed=23,
        arena_width_cm=100.0,
        arena_height_cm=60.0,
        body_radius_cm=1.5,
        wheel_base_cm=12.0,
    ),
    # 100 robots in a 120 x 120 arena: separation pushes robots on most ticks,
    # so the neighbour list is rebuilt between whole seconds as well
    "dense": dict(n_robots=100, duration_s=30, seed=29, arena_width_cm=120.0, arena_height_cm=120.0),
}

GOLDEN = {
    "N0": {
        "metrics": "063e96820ce852e1bc9262b1ce0f49de115224dcd39558d6f7d6712ac12974af",
        "field": "2a918d2141790c9842ef6e51f30f375998c1c27fc16b565fe682c082ff657151",
        "poses": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "cleanings": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "N1": {
        "metrics": "f478c122b7c4483626d261e6216c6cea968059601f5be2c6ffd1ab8d06704e2d",
        "field": "2a918d2141790c9842ef6e51f30f375998c1c27fc16b565fe682c082ff657151",
        "poses": "6ba97f060b95d316deec31c282e90a0dfa589707e5e60caf0290e345eb300f81",
        "cleanings": "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    },
    "N10": {
        "metrics": "9dc21891bcb9d35916ace3e8f4f0efdd526dff07ba46b10b0151e5ea7083bbc6",
        "field": "91dcdfc70803950189ddf8f53caa991831b201a2c19d6b61d3c4017359a81e21",
        "poses": "2bf107604f55168385e888d5d0a7ba1d077faa40996fbfc36557bd425006aa46",
        "cleanings": "3a95e91e1c71c25e0dc6b8bac12015ccd6527531bfdabc54ecd8145b4e7bc306",
    },
    "N30": {
        "metrics": "5258cacd2e485895403e98df09f1edfd8175a78ebcb7526816c648a56c7f6bcf",
        "field": "2a0a6b8115cfcf205005b3de46ed064f73724edf0fc0199042d64b3923558f11",
        "poses": "859970219200a085d9215390997685e551ca890de3556c0c74af2b035d00efec",
        "cleanings": "a3249fbd9687c3c15f19dfa8c0a3e038a0ee27d3297418e129f594ac774c3f53",
    },
    "N50": {
        "metrics": "379aa1b42a00cb2d44f959fb15c4fd03dfb62f7d563c1786d8a5de04775b3530",
        "field": "0eee7779cdc83539b8f432e3e06d6516267371c7f46a54361f2a76d0bffc6794",
        "poses": "918da8e31b7f11c8ef07165468e8d7fac72780b2e645199ec5772d5f481ae291",
        "cleanings": "83228bd20d10db1812219916d2c78d472d9b4bfe11a339658c968623bc5add6e",
    },
    "N200": {
        "metrics": "593d74e0297ecc37064d10495b166ad888d376ead82bb15de04d9a4248ee00f6",
        "field": "fa431764a679f549b8895189b8a73ccc32936d5df60a81fc5e9949d082543b52",
        "poses": "c0223e5482a81c20147bdb3cb7c4ada7a65998ddf718a8b944acd8692d1c005c",
        "cleanings": "96857f0b23572d154964e72e2bba7ab318e69202ce48147c09ac962e7e5765c8",
    },
    "clipped": {
        "metrics": "5fd0241f21106b132157bf8077a3bf775bd0c12890390ab5111a835b5a1dfd49",
        "field": "f93413d7882589a74179dfc5ec6a39a061a1de295c9e92025f99e248e40459ee",
        "poses": "1872cf8a2238d4accf99a3d0a6c90f29809bb90735d53c720792eb21d66457d0",
        "cleanings": "6f5c2779b5562f3fd26d53deae0b70e55e39a51d6d37479e97d9874f96b6a752",
    },
    "dense": {
        "metrics": "9a646846589fcd5bc89aeedfc3c5800818ba53902a9930112f8d5a15ead36886",
        "field": "ba56062498a6cfd945f74cadc89d951b1feb39d2af3a2c6659f834a980e7595f",
        "poses": "5f00c8ec14bfdd7795016cc33595ed221a6d92256858ad8962535eda66428395",
        "cleanings": "2f116b7c2e82a84f9bc9c4e18f1ca46a5c8ed30768cab9cf8132c8b853cb1a35",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# the seeds a case shares its batch with
BATCH_NEIGHBOUR_SEEDS = (101, 102)
BATCH_POSITIONS = ("first", "last")
# every way a case runs: alone, then each position beside runs of other seeds and of other grid cells
RUN_KINDS = ((None, False), *((position, other_cells) for position in BATCH_POSITIONS for other_cells in (False, True)))


def batch_companions(config: SimConfig, other_cells: bool = False) -> list[SimConfig]:
    """The two runs beside a case in its batch: other seeds, and with other_cells also another N and beta each."""
    if not other_cells:
        return [replace(config, seed=seed) for seed in BATCH_NEIGHBOUR_SEEDS]
    seed_a, seed_b = BATCH_NEIGHBOUR_SEEDS
    return [
        replace(config, seed=seed_a, n_robots=config.n_robots // 2 + 3, beta=9.0 - config.beta),
        replace(config, seed=seed_b, n_robots=2, beta=4.5),
    ]


def run_digests(case: str, tmp_dir, batch_position: str | None = None, other_cells: bool = False) -> dict[str, str]:
    """The case's digests run alone, or in a batch of three at the given position ("first" or "last")."""
    config = SimConfig(**CASES[case])
    if batch_position is None:
        result = run_simulation(config)
    else:
        others = batch_companions(config, other_cells)
        configs = [config, *others] if batch_position == "first" else [*others, config]
        result = run_batch(configs)[0 if batch_position == "first" else -1]
    path = os.path.join(tmp_dir, f"{case}_metrics.csv")
    result.series.to_csv(path)
    with open(path, "rb") as fh:
        metrics = fh.read()
    poses = np.concatenate((result.xy[0], result.xy[1], result.heading))
    return {
        "metrics": _sha(metrics),
        "field": _sha(result.field.tobytes()),
        "poses": _sha(np.ascontiguousarray(poses, dtype=np.float64).tobytes()),
        "cleanings": _sha(np.ascontiguousarray(result.cleanings, dtype=np.int64).tobytes()),
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digests(case, tmp_path):
    assert run_digests(case, tmp_path) == GOLDEN[case]


@pytest.mark.parametrize("position", BATCH_POSITIONS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digests_inside_a_batch(case, position, tmp_path):
    """A run gives the same bits whatever runs beside it in a batch."""
    assert run_digests(case, tmp_path, position) == GOLDEN[case]


@pytest.mark.parametrize("position", BATCH_POSITIONS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digests_inside_a_batch_of_other_cells(case, position, tmp_path):
    """A run gives the same bits beside runs of other populations and speeds, with the same physics and duration."""
    config = SimConfig(**CASES[case])
    for other in batch_companions(config, other_cells=True):
        assert other.n_robots != config.n_robots and other.beta != config.beta
    assert run_digests(case, tmp_path, position, other_cells=True) == GOLDEN[case]


def test_dense_case_rebuilds_only_at_whole_seconds(tmp_path, monkeypatch):
    """The "dense" case keeps its digests with the neighbour list rebuilt only at construction and whole seconds."""
    rebuilds = []
    rebuild = PairGeometry.rebuild

    def counting(geom, xy):
        rebuilds.append(1)
        rebuild(geom, xy)

    monkeypatch.setattr(PairGeometry, "rebuild", counting)
    assert run_digests("dense", tmp_path) == GOLDEN["dense"]
    # one rebuild when the list is built and one at each whole second before the last
    assert len(rebuilds) == 1 + CASES["dense"]["duration_s"]


# numpy's SIMD dispatch cut to its x86-64 baseline (X86_V2); numpy accepts
# the names of features a host lacks, so this setting is valid on any x86-64
BASELINE_DISPATCH = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"

_BASELINE_CHILD = """
import tempfile
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
import test_golden
active = [t for t in __cpu_dispatch__ if __cpu_features__[t]]
if active:
    raise SystemExit(f"dispatch targets still enabled: {active}")
with tempfile.TemporaryDirectory() as tmp:
    changed = [
        (c, position, other_cells)
        for c in test_golden.CASES
        for position, other_cells in test_golden.RUN_KINDS
        if test_golden.run_digests(c, tmp, position, other_cells) != test_golden.GOLDEN[c]
    ]
if changed:
    raise SystemExit(f"digests differ at baseline dispatch: {changed}")
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"), reason="x86-64 dispatch targets")
def test_golden_digests_at_baseline_dispatch():
    """The golden bytes do not depend on the SIMD kernels numpy picks for this CPU."""
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=BASELINE_DISPATCH)
    env["PYTHONPATH"] = os.pathsep.join((os.path.join(here, "..", "src"), here))
    proc = subprocess.run(
        [sys.executable, "-c", _BASELINE_CHILD], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            print(f"    \"{name}\": {{")
            for key, digest in run_digests(name, tmp).items():
                print(f"        \"{key}\": \"{digest}\",")
            print("    },")
