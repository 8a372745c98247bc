"""The comparison of ``scripts/bitwise.py``, on synthetic outputs: identical
outputs pass; one ulp, the sign of a zero, a dtype, a shape, a digest or a
missing name each fail, naming the array or digest.  In ``--bound`` mode a
deviation within the bound passes, one above it fails naming its family,
and a changed digest is listed, not bounded."""

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


@pytest.mark.parametrize("name, named", [
    ("det/xi0_stride1/u", "u"),
    ("det/xi0.15_stride7/forces[top]", "forces"),
    ("mc/ensemble/histories[3]/sigma", "sigma"),
    ("tsm/coarse_file_K7/summary/force_std", "force_std"),
])
def test_family_is_the_last_result_field(bitwise, name, named):
    assert bitwise.family(name) == named


def test_relative_difference(bitwise):
    b = np.array([1.0, -4.0, np.nan, 0.0])
    assert bitwise.relative_difference(b.copy(), b) == 0.0  # NaN to NaN is equal
    a = b.copy()
    a[0] += 1e-3
    assert bitwise.relative_difference(a, b) == pytest.approx(1e-3 / 4.0, rel=1e-9)
    a[2] = 1.0
    assert bitwise.relative_difference(a, b) == np.inf  # a NaN that went away
    assert bitwise.relative_difference(np.ones(2), np.zeros(2)) == np.inf
    assert bitwise.relative_difference(np.arange(3), np.arange(3)) == 0.0


def test_bound_passes_within_and_names_the_family_above(bitwise):
    ref = _outputs()
    new = _copy(ref)
    new[0]["det/u"] = ref[0]["det/u"] * (1.0 + 1e-14)
    new[1]["cli/det/forces_top.csv"] = "ef" * 32
    assert bitwise.first_difference(ref, new) is not None  # not bitwise equal
    assert bitwise.structural_difference(ref, new) is None
    worst = bitwise.deviations(ref[0], new[0])
    assert list(worst) == ["u", "n_steps", "forces", "xis"]
    assert 0.0 < worst["u"] <= 2e-14 and worst["n_steps"] == worst["xis"] == 0.0
    assert bitwise.bound_failure(worst, 1e-12) is None
    failure = bitwise.bound_failure(worst, 1e-15)
    assert failure is not None and failure.startswith("family u deviates by"), failure
    assert bitwise.changed_digests(ref[1], new[1]) == ["cli/det/forces_top.csv"]


def test_bound_names_the_run_that_spends_it(bitwise):
    """Each family's line names the run of its largest deviation and gives
    the largest of the other runs, so an amplified run hides no other."""
    ref = _outputs()
    ref[0]["fd_oracle/u"] = ref[0]["det/u"] * 3.0
    new = _copy(ref)
    new[0]["det/u"] = ref[0]["det/u"] * (1.0 + 1e-14)
    new[0]["fd_oracle/u"] = ref[0]["fd_oracle/u"] * (1.0 + 1e-11)
    by_run = bitwise.run_deviations(ref[0], new[0])
    assert list(by_run["u"]) == ["det", "fd_oracle"]
    assert 0.0 < by_run["u"]["det"] <= 2e-14 < 5e-12 < by_run["u"]["fd_oracle"] <= 2e-11
    assert bitwise.deviations(ref[0], new[0])["u"] == by_run["u"]["fd_oracle"]
    line = bitwise.family_line("u", by_run["u"])
    assert line.startswith("u: ") and " in fd_oracle; the other runs " in line, line
    assert line.endswith(f"{by_run['u']['det']:.3g} in det"), line
    assert bitwise.family_line("forces", by_run["forces"]) == "forces: 0"


@pytest.mark.parametrize("change, named", [
    (_dtype, "mc/xis: dtype int64 != int32"),
    (_shape, "det/u: shape (4, 5, 3) != (3, 5, 3)"),
    (_missing, "array det/n_steps: only in the reference"),
])
def test_bound_mode_fails_on_a_structural_difference(bitwise, change, named):
    ref = _outputs()
    new = _copy(ref)
    change(*new)
    diff = bitwise.structural_difference(ref, new)
    assert diff is not None and diff.startswith(named), diff


@pytest.mark.parametrize("name, run", [
    ("det/xi0_stride1/forces[top]", "det/xi0_stride1"),
    ("fd_oracle/u", "fd_oracle"),
    ("exchange/tsm/csr_file_K7/record3", "tsm/csr_file_K7"),
    ("cli/det/forces_top.csv", "cli/det"),
])
def test_run_of_a_name(bitwise, name, run):
    assert bitwise.run_of(name) == run


def test_bitwise_equal_runs_leave_out_any_changed_array_or_digest(bitwise):
    ref = _outputs()
    new = _copy(ref)
    assert bitwise.bitwise_equal_runs(ref, new) == ["det", "tsm", "mc", "cli/det"]
    _one_ulp(*new)
    assert bitwise.bitwise_equal_runs(ref, new) == ["tsm", "mc", "cli/det"]
    _digest(*new)  # an exchange record of run tsm
    assert bitwise.bitwise_equal_runs(ref, new) == ["mc", "cli/det"]


def test_record_digest_is_that_of_the_public_gauss_point_order(bitwise, tmp_path):
    """A record holds Gauss point q of element e at q * nelem + e, the
    engine's order; its digest hashes the values at 8 e + q, the public
    order, so renumbering Gauss points changes no digest."""
    import hashlib

    from tsmfem.tsm import ExchangeRecord, write_exchange

    rng = np.random.default_rng(4)
    eps, d = rng.normal(size=(3, 8, 6)), rng.normal(size=(3, 8))  # [e, q]
    path = tmp_path / "x.tsmx"
    write_exchange([ExchangeRecord(0, 0.5, eps.transpose(1, 0, 2).reshape(24, 6),
                                   d.T.ravel())], path)  # at q * 3 + e
    digests = {}
    bitwise._record_digests("x", path, digests)
    want = hashlib.sha256(f"0 {(0.5).hex()}".encode())
    want.update(eps.tobytes())
    want.update(d.tobytes())
    assert digests == {"x/record0": want.hexdigest()}
