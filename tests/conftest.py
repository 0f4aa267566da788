import pytest

from tricurves import DistributionSpec, EnsembleSpec, estimate_ids


def fig1a_spec(seed=501):
    """All entries Uni[0,1] (stochastically symmetric; real spectrum)."""
    return EnsembleSpec(
        DistributionSpec.log_uniform(0, 1),
        DistributionSpec.log_uniform(0, 1),
        DistributionSpec.uniform(0, 1),
        seed=seed,
    )


def fig1b_spec(seed=2024):
    """Sub-diagonal and diagonal Uni[0,1], super-diagonal Uni[1/2, 3/2]."""
    return EnsembleSpec(
        DistributionSpec.log_uniform(0, 1),
        DistributionSpec.log_uniform(0.5, 1.5),
        DistributionSpec.uniform(0, 1),
        seed=seed,
    )


def free_spec(seed=11):
    """Constant couplings c = 1, zero diagonal (closed-form reference)."""
    return EnsembleSpec.constants(0.0, 0.0, 0.0, seed=seed)


def generic_spec(seed=7):
    """Mildly asymmetric ensemble used for random-bundle checks."""
    return EnsembleSpec(
        DistributionSpec.log_uniform(0, 1),
        DistributionSpec.log_uniform(0.5, 1.5),
        DistributionSpec.uniform(0, 1),
        seed=seed,
    )


def dense_perturbed(bundle):
    """Oracle: H + V, the symmetric reference plus the two corner entries
    a_n (top right) and b_n (bottom left), materialized (small n only)."""
    hv = bundle.dense_reference()
    hv[0, bundle.n - 1] += bundle.a_n
    hv[bundle.n - 1, 0] += bundle.b_n
    return hv


@pytest.fixture(scope="session")
def free_ids():
    return estimate_ids(free_spec(), 5000, 4)


@pytest.fixture(scope="session")
def fig1b_ids():
    return estimate_ids(fig1b_spec(), 4000, 4)

