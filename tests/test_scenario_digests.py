"""Byte identity of the shipped scenarios across changes.

Every ``scenarios/*.yaml`` is run through ``run_scenario`` and the
sha256 of its ``report.json``, ``curves.csv`` and ``plot.svg`` is
compared with the digests below.  They were recorded with numpy 2.4.6
and Python 3.11.7 on x86_64 Linux; other numpy builds or platforms may
round differently.  A change that moves these bits on purpose
re-records the digests and says so, with the reason, in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from bergman_carleson.experiments import run_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
DIGESTS = {
    "b2_scalar_power": {
        "report.json": "67b3e364e671eb2c09f8c76c51f973cd7a6db0a7d61d543f692ccf5c9ad39b5c",
        "curves.csv": "cad036f0b655704fbd7ba3ae625f84de5cc8b9558e22d0b317856917d7ba2a00",
        "plot.svg": "7f9b8d60a555d4871df7d2388c2960df04d4fda1bfea69e8c44e68168d89c6d9",
    },
    "dyadic_norm_random": {
        "report.json": "b7c74b9ae037ad9450cc1c096ee1c38fb7894b358323271ade7106b8fd4972e8",
        "curves.csv": "d0c81175f1061052ade7b673f92bb4f9303eb92c32d8f9455b88652a23261a5e",
        "plot.svg": "492d0fe803a517ca79d72c6a19615f0fb2b70206e4a06e2d934a22af1408c216",
    },
    "embed_radial_singular": {
        "report.json": "7832034386b229ab6db17a40209b562f921ab7a2167dea0ed15d5040745ebc4e",
        "curves.csv": "0f857760cfd52934eb4c89b1ee127660b398ef183a43ba95993e4bbc1229129a",
        "plot.svg": "e9641e6d6ff1b123935a51daa506b5e55c51f5f6b52f0cf002cf36ae51686e68",
    },
    "equivalence_deep_atom": {
        "report.json": "ab5f7821ea345a2914cd4e920666d0a12e38c70def3197db5bdbfc7502d456bf",
        "curves.csv": "58a763e42635629813cff746edacaf02eede968328ca4f64c926c0b09dc56eed",
        "plot.svg": "0486c4f712a29601344d5ec2676db1852958ece927c6e9760debf59e2c60c2d4",
    },
    "intensity_atom": {
        "report.json": "826ff4db01af45aec57a1dec9f21abca46816e196b3bccfe8340ca1c4ac9f7c6",
        "curves.csv": "350282d3119e76461cf95c89616c6d5894a1ef61cd8e46aa9e572f4cec04eeae",
        "plot.svg": "b30380cc6c8f8920b0995334e5e2ab2101edb8149bacd27c199d7822245d9564",
    },
    "sweep_dimensions": {
        "report.json": "1d21c300c7113ea83b858b3dc42c8fefb562c30793be8e7df9b17585390cf66e",
        "curves.csv": "c4c9368c1330605310bd7c5571c8fdfcbba58f08df28b263280bc5a147301ffa",
        "plot.svg": "c5c58d9b5f72a45b24a419174c065b532502d629a0c027b03a908c864f2482de",
    },
    "volterra_log": {
        "report.json": "57d5336b415868c5c2b238aba8e655cea30e390e75fdca133b672519d9802915",
        "curves.csv": "c6ee6431aa8da3e515db6f385b764c2522a147e0ce7a55819e69c89745b0dc28",
        "plot.svg": "277d0d3f79a967f0e8004a66f3a1afecbb98b5d94005c0af47fdc0f4724afbe2",
    },
}


def test_every_shipped_scenario_is_pinned():
    assert sorted(p.stem for p in SCENARIO_DIR.glob("*.yaml")) == sorted(DIGESTS)


@pytest.mark.parametrize("stem", sorted(DIGESTS))
def test_artifacts_are_byte_identical(stem, tmp_path):
    run_dir = run_scenario(SCENARIO_DIR / f"{stem}.yaml", out_root=tmp_path)
    got = {
        name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
        for name in DIGESTS[stem]
    }
    assert got == DIGESTS[stem]
