"""Each verify suite reports a planted fault as a mismatch."""

from __future__ import annotations

import numpy as np
import pytest

from quditqkd import cli, protocol, qstates, verify
from quditqkd.field import field_spec


class _StubSpec:
    """The real GF(2^n) spec, with one wrong product or a wrong norm."""

    def __init__(self, n, cell=None, norm=None):
        spec = field_spec(n)
        self.n, self.modulus, self.order = n, spec.modulus, spec.order
        self.inv_table = spec.inv_table
        self.mul_table = spec.mul_table.copy()
        if cell is not None:
            self.mul_table[cell] ^= 1
        self.norm = norm or spec.norm


@pytest.mark.parametrize(
    "stub",
    [
        _StubSpec(3, cell=(3, 5)),
        _StubSpec(4, cell=(7, 7)),
        _StubSpec(8, cell=(255, 254)),
        _StubSpec(3, norm=lambda a: np.ones_like(a)),
    ],
)
def test_field_fault_is_a_mismatch(monkeypatch, stub):
    monkeypatch.setattr(verify, "field_spec", lambda n: stub)
    result = verify.check_field_tables(stub.n)
    assert result.total == stub.order**2 + 2 * stub.order - 1
    assert not result.passed


def _sign_ignored(real):
    return lambda u, v, k1, k2, sigma: real(u, v, k1, k2, np.zeros_like(sigma))


def _fixed_width(real):
    def weights(u, v, k1, k2, sigma):
        p_plus, p_minus = real(u, v, k1, k2, sigma)
        width = np.where(k2 < 0, 2.0, 4.0)
        return p_plus * width / 4.0, p_minus * width / 4.0

    return weights


@pytest.mark.parametrize("fault", [_sign_ignored, _fixed_width])
@pytest.mark.parametrize("n", verify.BORN_DEGREES)
def test_born_fault_is_a_mismatch(monkeypatch, fault, n):
    monkeypatch.setattr(protocol, "born_weights", fault(protocol.born_weights))
    result = verify.check_born_completeness(n)
    order = 1 << n
    pairs = order * (order - 1) // 2
    assert result.total == (order + 2 * pairs) * pairs
    assert not result.passed


def _single_flag_flipped(real):
    """The Born case map with every case's single-term flag flipped."""
    return lambda u, v, k1, k2, sigma: real(u, v, k1, k2, sigma) ^ 1


@pytest.mark.parametrize("n", verify.BORN_DEGREES)
def test_case_map_fault_is_a_mismatch(monkeypatch, n):
    monkeypatch.setattr(protocol, "_born_case", _single_flag_flipped(protocol._born_case))
    assert not verify.check_born_completeness(n).passed


def test_case_map_fault_reaches_measure(monkeypatch):
    """The case map the Born suite checks is the one measure runs."""
    table = protocol.pair_table(field_spec(2))
    k1 = np.arange(2000, dtype=np.int16) % 4
    k2 = np.full(2000, -1, np.int16)
    sigma = np.zeros(2000, np.int8)

    def outcomes():
        return protocol.measure(table, k1, k2, sigma, np.random.default_rng(0))[2]

    honest = outcomes()
    monkeypatch.setattr(protocol, "_born_case", _single_flag_flipped(protocol._born_case))
    assert np.any(outcomes() != honest)


def _kappa_flipped(real):
    """The array frame rule with every output sign bit flipped."""

    def conjugate(*args):
        index, sign = real(*args)
        return index, sign ^ 1

    return conjugate


@pytest.mark.parametrize("n, samples", [(2, None), (3, 50), (4, 50)])
def test_conjugation_fault_is_a_mismatch(monkeypatch, n, samples):
    monkeypatch.setattr(qstates, "conjugate_frame", _kappa_flipped(qstates.conjugate_frame))
    result = verify.check_conjugation(n, samples=samples)
    assert result.total > 0
    assert not result.passed


def test_cli_reports_failure(monkeypatch, capsys):
    monkeypatch.setattr(protocol, "born_weights", _sign_ignored(protocol.born_weights))
    code = cli.main(["verify", "--samples", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines[-1] == "verification FAILED"
    born = [line for line in lines if line.startswith("born completeness")]
    assert len(born) == len(verify.BORN_DEGREES)
    assert all(line.endswith("MISMATCH") for line in born)
    assert "all checks passed" not in lines


@pytest.mark.parametrize("samples", [0, -5])
def test_nonpositive_samples_rejected(samples):
    with pytest.raises(ValueError, match="samples must be >= 1"):
        verify.check_conjugation(3, samples=samples)
