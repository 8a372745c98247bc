"""The comparison of ``scripts/bitwise.py``, on synthetic outputs: identical
outputs pass; one ulp, the sign of a zero, a dtype, a shape, a digest or a
missing name each fail, naming the array or digest."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bitwise.py"


@pytest.fixture(scope="module")
def bitwise():
    spec = importlib.util.spec_from_file_location("bitwise", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _outputs():
    rng = np.random.default_rng(3)
    arrays = {"det/u": rng.normal(size=(4, 5, 3)), "det/n_steps": np.asarray(7),
              "tsm/forces": np.array([0.0, -0.0, 1.5]), "mc/xis": np.arange(4)}
    digests = {"exchange/tsm/record0": "ab" * 32, "cli/det/forces_top.csv": "cd" * 32}
    return arrays, digests


def _copy(outputs):
    arrays, digests = outputs
    return {k: v.copy() for k, v in arrays.items()}, dict(digests)


def test_identical_outputs_pass(bitwise):
    ref = _outputs()
    assert bitwise.first_difference(ref, _copy(ref)) is None
    assert bitwise.counts(ref) == {"arrays": 4, "exchange records": 1, "artifact hashes": 1}


def _one_ulp(arrays, digests):
    arrays["det/u"][2, 1, 0] = np.nextafter(arrays["det/u"][2, 1, 0], np.inf)


def _signed_zero(arrays, digests):
    arrays["tsm/forces"][1] = 0.0


def _dtype(arrays, digests):
    arrays["mc/xis"] = arrays["mc/xis"].astype(np.int32)


def _shape(arrays, digests):
    arrays["det/u"] = arrays["det/u"][:3]


def _digest(arrays, digests):
    digests["exchange/tsm/record0"] = "ef" * 32


def _missing(arrays, digests):
    del arrays["det/n_steps"]


@pytest.mark.parametrize("change, named", [
    (_one_ulp, "det/u: differs at index (2, 1, 0)"),
    (_signed_zero, "tsm/forces: differs at index (1,): -0x0.0p+0 != 0x0.0p+0"),
    (_dtype, "mc/xis: dtype int64 != int32"),
    (_shape, "det/u: shape (4, 5, 3) != (3, 5, 3)"),
    (_digest, "exchange/tsm/record0: sha256"),
    (_missing, "array det/n_steps: only in the reference"),
])
def test_each_difference_fails_and_is_named(bitwise, change, named):
    ref = _outputs()
    new = _copy(ref)
    change(*new)
    diff = bitwise.first_difference(ref, new)
    assert diff is not None and diff.startswith(named), diff


def test_nan_equals_nan_of_the_same_sign(bitwise):
    ref = _outputs()
    ref[0]["det/u"][0, 0, 0] = np.nan
    new = _copy(ref)
    assert bitwise.first_difference(ref, new) is None
    new[0]["det/u"][0, 0, 0] = -np.nan
    assert bitwise.first_difference(ref, new).startswith("det/u: differs at index (0, 0, 0)")
