"""Pinned output bytes of the CLI and pinned sampler counts.

The README's reproducibility contract makes every output a pure function of
the command's flags. These hashes were recorded from the reference code; the
experiment and plan hashes are the smoke-size entries of
``bench/golden.json``. Binomial counts come from numpy's
``Generator.binomial`` on Philox, which numpy does not promise to keep
across releases, so a failure here names the installed numpy version.
"""

import hashlib

import numpy as np
import pytest

from amplest.cli import main
from amplest.planner import make_plan
from amplest.sampler import draw_record

NUMPY_NOTE = (
    f"numpy {np.__version__}: counts come from Generator.binomial on Philox; "
    "a numpy release that changes that algorithm changes every output"
)

PRINTED = {
    "plan --max-depth 16 --epsilon 1e-2":
        "4c0767f0909d4177bd0fc7fa9f09c1dd76c17a52e171f2740d4006746e25ea22",
    "plan --max-depth 16 --epsilon 1e-2 --jitter":
        "860de8c792d7b5a4fd8c6795c11d73ec503ed04da52a6208182875144b9dd122",
    "plan --max-depth 16 --epsilon 1e-3 --grid-multiplier 3":
        "ba4956af88e6c138e152cd52ce7edc8e3d2537161a0f8e25264b45aa1b951701",
    "plan --max-depth 16 --epsilon 1e-3 --grid-multiplier 3 --jitter":
        "824af01e5a2ea40e2c8baa9c8b432b0fe3440757f748e30a4e9804232e067a95",
    "estimate --amplitude 0.3 --max-depth 16 --epsilon 1e-2 --seed 7":
        "9665e62d96f872d349c8c321ebd01f1db87b395b88de1932cd0268a4e49aa705",
    "estimate --amplitude 0.3 --max-depth 16 --epsilon 1e-2 --seed 7 --jitter":
        "632638f1a08a015ced218c5491241abc2845b81c6a3ba749b5a84a3bdbc6a66d",
}

WRITTEN = {
    "sweep --max-depth 16 --epsilon 1e-2 --points 40 --seed 42":
        "457d32d97c51408e54b3966bb17c3aa9f4e3c8efa672a7eee1fca5d585ff782e",
    "sweep --max-depth 16 --epsilon 1e-2 --points 40 --seed 42 --jitter":
        "55c4d0bdb0f8dd6ea938c48f6782db850d00e3b8d167726b8ac844b1665be034",
    "precision-curve --max-depth 16 --epsilon 1e-2 --amplitudes 0.3 "
    "--shots 64,256 --runs 20 --seed 11":
        "86e38a65b87c99582a60d67a9e5341e53560bb597f2075727d22d5a035dbc052",
    "precision-curve --max-depth 16 --epsilon 1e-2 --amplitudes 0.3 "
    "--shots 64,256 --runs 20 --seed 11 --jitter":
        "4b95169ab10e5d99bc696ba7b8ff1773667a52d435d0ee731832239b5c882ce9",
    "exceptional-region --max-depth 16 --epsilon 1e-3 --grid-multiplier 3 "
    "--k 16 --points 4 --runs 4 --seed 3":
        "a93c7eea58f98f67867a5781ceb38b9843ea32e0fc5867d5558131b6ff4cf870",
    "exceptional-region --max-depth 16 --epsilon 1e-3 --grid-multiplier 3 "
    "--k 16 --points 4 --runs 4 --seed 3 --jitter":
        "233482019ce213996a550555b62f69af1606c1d1688743dc5ed09126dde9d858",
    "call-ratio --depths 1,4,16,50 --epsilon 1e-3 --delta 0.01 --spread-coeff 2":
        "9410874a684c5be68cd922a92c4a1dab2481653cdac0f81cbb2f97ca38aecf04",
}

# (epsilon, jittered, amplitude, seed) -> hits per scheduled depth at max
# depth 16; n_shot is 12 or 13 at epsilon 1e-2 and 1111 or 1267 at 1e-3, so
# both of numpy's binomial algorithms (inversion and BTPE) are pinned.
HITS = {
    (1e-2, False, 0.3, 5): [4, 11, 1, 9, 2, 2],
    (1e-2, False, 0.9, 123456789): [10, 7, 0, 12, 8, 2],
    (1e-2, True, 0.3, 5): [4, 12, 1, 10, 2, 0, 3, 1, 2],
    (1e-2, True, 0.9, 123456789): [11, 7, 0, 13, 8, 1, 4, 3, 0],
    (1e-3, False, 0.3, 5): [337, 1073, 57, 831, 193, 69],
    (1e-3, True, 0.3, 5): [384, 1225, 64, 948, 220, 2, 261, 176, 34],
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(params=["1", "2"], ids=["threads1", "threads2"])
def threads(request, monkeypatch):
    monkeypatch.setenv("AMPLEST_THREADS", request.param)


@pytest.mark.parametrize("command", sorted(WRITTEN))
def test_written_file_bytes(command, threads, tmp_path):
    out = tmp_path / "out.csv"
    main([*command.split(), "--out", str(out)])
    assert _sha256(out.read_bytes()) == WRITTEN[command], NUMPY_NOTE


@pytest.mark.parametrize("command", sorted(PRINTED))
def test_printed_json_bytes(command, capsys):
    main(command.split())
    assert _sha256(capsys.readouterr().out.encode()) == PRINTED[command], NUMPY_NOTE


@pytest.mark.parametrize("key", sorted(HITS), ids=str)
def test_draw_record_counts(key):
    epsilon, jittered, a, seed = key
    plan = make_plan(epsilon, 0.01, 16, jittered=jittered)
    record = draw_record(a, plan.schedule, plan.n_shot, seed)
    assert [e.hits for e in record.entries] == HITS[key], NUMPY_NOTE
