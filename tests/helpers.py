"""Shared constructions for the test suite."""

import numpy as np

from almosthilbert import suites
from almosthilbert.operators import BOperator, from_h_matrix
from almosthilbert.spaces import coefficients, fourier_sbasis, reconstruct


def make_basis(N=4, p=2, resolution=None):
    if resolution is None:
        resolution = max(64, 8 * N)
    return fourier_sbasis(N, p, resolution)


def identity_operator(weights):
    return BOperator(np.eye(len(weights), dtype=np.complex128), weights)


def apply_op(A, u, basis):
    """One operator acting on a grid function through the truncation:
    synthesize M c(u).  The reference the defining-identity tests hold the
    operator algebra to."""
    return reconstruct(A.matrix @ coefficients(u, basis), basis)


def rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rand_operator(weights, rng, scale=1.0):
    n = len(weights)
    return BOperator(scale * rand_complex(rng, n, n), weights)


def rand_selfadjoint(weights, rng, scale=1.0):
    """Random naturally self-adjoint operator: transport of a Hermitian matrix."""
    n = len(weights)
    a = scale * rand_complex(rng, n, n)
    return from_h_matrix(a + a.conj().T, weights)


def random_poly(basis, rng, scale=1.0):
    c = scale * rand_complex(rng, len(basis))
    return reconstruct(c, basis)


def run_check(monkeypatch, name, params, seed=0):
    """Check ``name`` alone, run the way ``run_suite`` runs it in a suite."""
    monkeypatch.setattr(suites, "_REGISTRY", {name: suites._REGISTRY[name]})
    (result,) = suites.run_suite("all", seed=seed, params=params).checks
    return result
