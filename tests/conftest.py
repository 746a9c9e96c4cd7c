import numpy as np
import pytest

from bogodamp.params import GasParameters, make_params
from bogodamp.potential import (FlatCutoffPotential, GaussianPotential,
                                TabulatedPotential)

DATA = None  # set lazily below so pytest rootdir moves do not matter


@pytest.fixture
def gauss_model():
    return GaussianPotential(v=0.1, nu=1.0)


@pytest.fixture
def gauss_params(gauss_model):
    return make_params(nu=1.0, beta=10.0, vhat0=gauss_model.vhat0)


@pytest.fixture
def flat_model():
    return FlatCutoffPotential(v0=1.0, Lambda=float("inf"))


@pytest.fixture
def flat_params(flat_model):
    return make_params(nu=1.0, beta=10.0, vhat0=flat_model.v0)


class CountingVhat:
    """Delegates to a model and counts its profile calls, floats and arrays
    apart, and the elements of its array calls.  A vhat_dvhat call, which
    gives vhat and dvhat from one evaluation, counts as one call."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = {"float": 0, "array": 0}
        self.elements = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def _count(self, k):
        if np.ndim(k):
            self.calls["array"] += 1
            self.elements += np.size(k)
        else:
            self.calls["float"] += 1

    def vhat(self, k):
        self._count(k)
        return self.inner.vhat(k)

    def vhat_dvhat(self, k):
        self._count(k)
        return self.inner.vhat_dvhat(k)


def gaussian_setup(beta_nu, nu=1.0, two_v_over_nu=0.2):
    """Standard convex Gaussian model plus matching parameter bundle."""
    model = GaussianPotential(v=0.5 * two_v_over_nu * nu, nu=nu)
    params = make_params(nu=nu, beta=beta_nu / nu, vhat0=model.vhat0)
    return params, model


def maxon_roton_table(nu=1.0, k_max=12.0, n=481):
    """Tabulated profile whose dispersion has a local max then a dip.

    A deep negative Gaussian carved into a slowly decaying background
    around k ~ 2 sqrt(nu) pushes omega down after an initial rise, giving
    the up, down, up branch pattern while k^2/4 + nu_k stays positive.
    """
    k = np.linspace(0.0, k_max, n)
    base = np.exp(-0.02 * k ** 2)
    dip = 1.5 * np.exp(-((k - 2.0) / 0.8) ** 2)
    vals = nu * (base - dip)
    return TabulatedPotential(k, vals)


def concave_table(nu=1.0, k_max=8.0, n=321):
    """Tabulated Gaussian of width sqrt(nu), concave dispersion near zero."""
    k = np.linspace(0.0, k_max, n)
    vals = nu * np.exp(-k ** 2 / (2.0 * nu))
    return TabulatedPotential(k, vals)
