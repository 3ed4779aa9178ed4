import warnings

import numpy as np
import pytest

from cnslab.fields import SpectralField
from cnslab.model import BarotropicParams, NonBarotropicParams
from cnslab.spectrum import DegenerateWarning


@pytest.fixture
def unit_barotropic():
    """All-ones coefficients: n0 = 2 is a natural number (Jordan block at n = 2)."""
    return BarotropicParams(rho_bar=1.0, u_bar=1.0, mu0=1.0, b=1.0)


@pytest.fixture
def nondegenerate_barotropic():
    """The workhorse coefficient set: n0, n1 both irrational, critical time ~ 6.98."""
    return BarotropicParams(rho_bar=1.0, u_bar=0.9, mu0=1.0, b=1.3)


@pytest.fixture
def uc_failing_barotropic():
    """n1 = 1: two modes share a parabolic eigenvalue, unique continuation fails."""
    return BarotropicParams(rho_bar=1.0, u_bar=1.0, mu0=1.0, b=1.25)


@pytest.fixture
def triple_root_nonbarotropic():
    """Mode 1 carries a triple eigenvalue -1+i of the adjoint generator."""
    return NonBarotropicParams(rho_bar=1.0, u_bar=1.0, theta_bar=0.5, lambda0=1.0, kappa0=2.0, R=1.0, c0=1.0)


@pytest.fixture
def shared_eigenvalue_nonbarotropic():
    """Modes +1 and -1 share the eigenvalue -1 (approximate controllability fails)."""
    return NonBarotropicParams(rho_bar=1.0, u_bar=1.0, theta_bar=1.0, lambda0=1.0, kappa0=2.0, R=1.0, c0=1.0)


@pytest.fixture
def generic_nonbarotropic():
    """A three-field set without eigenvalue coincidences (``u_bar = 0.9``; the shared-eigenvalue set has 1)."""
    return NonBarotropicParams(rho_bar=1.0, u_bar=0.9, theta_bar=1.0, lambda0=1.0, kappa0=2.0, R=1.0, c0=1.0)


def field_from_modes(dim: int, N: int, modes: dict[int, np.ndarray]) -> SpectralField:
    """The field with coefficient vector ``modes[n]`` at each listed mode ``n`` (``|n| <= N``) and zero elsewhere."""
    coeffs = np.zeros((2 * N + 1, dim), dtype=complex)
    for n, c in modes.items():
        assert abs(n) <= N, f"mode {n} outside cutoff N={N}"
        coeffs[n + N] = c
    return SpectralField(dim=dim, N=N, coeffs=coeffs)


def single_mode_field(n: int, vector: np.ndarray, N: int) -> SpectralField:
    """The field with coefficient vector ``vector`` at mode ``n`` alone."""
    vector = np.asarray(vector, dtype=complex)
    return field_from_modes(vector.size, N, {n: vector})


def random_barotropic(rng: np.random.Generator) -> BarotropicParams:
    return BarotropicParams(
        rho_bar=float(rng.uniform(0.5, 2.0)),
        u_bar=float(rng.uniform(0.3, 1.5)),
        mu0=float(rng.uniform(0.5, 2.0)),
        b=float(rng.uniform(0.5, 2.0)),
    )


def random_nonbarotropic(rng: np.random.Generator) -> NonBarotropicParams:
    return NonBarotropicParams(
        rho_bar=float(rng.uniform(0.5, 2.0)),
        u_bar=float(rng.uniform(0.3, 1.5)),
        theta_bar=float(rng.uniform(0.5, 2.0)),
        lambda0=float(rng.uniform(0.5, 2.0)),
        kappa0=float(rng.uniform(0.5, 2.0)),
        R=float(rng.uniform(0.5, 2.0)),
        c0=float(rng.uniform(0.5, 2.0)),
    )


@pytest.fixture(autouse=True)
def _silence_degenerate_warnings():
    """Degenerate fixtures legitimately trip the coincidence warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateWarning)
        yield
