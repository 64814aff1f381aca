"""Shared constructions for the test suite."""

import numpy as np

from almosthilbert import suites
from almosthilbert.embedding import EmbeddingSpace, dyadic_weights
from almosthilbert.operators import BOperator, from_h_matrix
from almosthilbert.spaces import coefficients, reconstruct


def make_space(N=4, p=2, resolution=None):
    if resolution is None:
        resolution = max(64, 8 * N)
    return EmbeddingSpace(dyadic_weights(N), p, resolution)


def identity_operator(space):
    return BOperator(np.eye(space.dim, dtype=np.complex128), space)


def apply_op(A, u):
    """One operator acting on a grid function through the truncation:
    synthesize M c(u).  The reference the defining-identity tests hold the
    operator algebra to."""
    return reconstruct(A.matrix @ coefficients(u, A.space.basis), A.space.basis)


def rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rand_operator(space, rng, scale=1.0):
    return BOperator(scale * rand_complex(rng, space.dim, space.dim), space)


def rand_selfadjoint(space, rng, scale=1.0):
    """Random naturally self-adjoint operator: transport of a Hermitian matrix."""
    a = scale * rand_complex(rng, space.dim, space.dim)
    return from_h_matrix(a + a.conj().T, space)


def random_poly(space, rng, scale=1.0):
    c = scale * rand_complex(rng, space.dim)
    return reconstruct(c, space.basis)


def run_check(monkeypatch, name, params, seed=0):
    """Check ``name`` alone, run the way ``run_suite`` runs it in a suite."""
    monkeypatch.setattr(suites, "_REGISTRY", {name: suites._REGISTRY[name]})
    (result,) = suites.run_suite("all", seed=seed, params=params).checks
    return result
