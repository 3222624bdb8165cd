import pytest

from posfactor.config import DEFAULT_TOLERANCES, Tolerances, tolerances


def test_default_pack_values():
    tol = DEFAULT_TOLERANCES
    assert tol.reconstruction == 1e-10
    assert tol.determinant == 1e-8
    assert tol.exact == 1e-12


def test_env_override_scales_the_whole_pack(monkeypatch):
    monkeypatch.setenv("POSFACTOR_TOL", "1e-8")
    tol = tolerances()
    assert tol.reconstruction == pytest.approx(1e-8)
    assert tol.determinant == pytest.approx(1e-6)
    assert tol.exact == pytest.approx(1e-10)


def test_env_override_must_be_positive_number(monkeypatch):
    monkeypatch.setenv("POSFACTOR_TOL", "0")
    with pytest.raises(ValueError):
        tolerances()
    monkeypatch.setenv("POSFACTOR_TOL", "banana")
    with pytest.raises(ValueError):
        tolerances()


def test_scaled_returns_new_pack():
    tol = Tolerances().scaled(1e-9)
    assert tol.reconstruction == pytest.approx(1e-9)
    assert DEFAULT_TOLERANCES.reconstruction == 1e-10
