"""Golden outputs: sha256 digests of whole runs for fixed short configs.

Each case pins the bytes of `metrics.csv`, the final field, the final
poses (x, y, heading) and the per-robot cleaning counts. The digests were
captured from the engine before its two pair passes shared one geometry
buffer, so any change that alters a single output bit fails here. A change
that alters behaviour on purpose re-captures them with

    PYTHONPATH=src python tests/test_golden.py

and names the behaviour that changed in CHANGES.md.
"""
import hashlib
import os
import tempfile

import numpy as np
import pytest

from swarmclean.engine import SimConfig, run_simulation

CASES = {
    "N0": dict(n_robots=0, duration_s=20, seed=3),
    "N1": dict(n_robots=1, duration_s=60, seed=5),
    "N10": dict(n_robots=10, duration_s=120, seed=7),
    "N30": dict(n_robots=30, beta=3.0, duration_s=60, seed=11),
    "N50": dict(n_robots=50, duration_s=60, seed=13),
    "N200": dict(n_robots=200, duration_s=40, seed=17),
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
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(case: str, tmp_dir) -> dict[str, str]:
    result = run_simulation(SimConfig(**CASES[case]))
    path = os.path.join(tmp_dir, f"{case}_metrics.csv")
    result.series.to_csv(path)
    with open(path, "rb") as fh:
        metrics = fh.read()
    poses = np.concatenate((result.final_x, result.final_y, result.final_heading))
    return {
        "metrics": _sha(metrics),
        "field": _sha(result.field.cells.tobytes()),
        "poses": _sha(np.ascontiguousarray(poses, dtype=np.float64).tobytes()),
        "cleanings": _sha(np.ascontiguousarray(result.cleanings, dtype=np.int64).tobytes()),
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digests(case, tmp_path):
    assert run_digests(case, tmp_path) == GOLDEN[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            print(f"    \"{name}\": {{")
            for key, digest in run_digests(name, tmp).items():
                print(f"        \"{key}\": \"{digest}\",")
            print("    },")
