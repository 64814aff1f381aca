"""Finite-truncation models of a separable Banach space sitting inside a
Hilbert space, with weighted-metric adjoints, Schatten-type norm checks,
a square-summing dual-functional space, and singular convolution operators.

The package is organized bottom-up:

- numerics: dense linear-algebra kernels with explicit validation
- spaces: grid functions, Lp norms, the duality map, trigonometric bases
- embedding: the weighted inner product induced by a basis and its duals
- operators: adjoints, polar/spectral decompositions, Courant-Fischer
- schatten: singular values and trace-ideal norm inequalities
- ks2: the square-summing functional space built on a cube enumeration
- integrals: Hilbert-transform and Riesz-potential discretizations
- suites / cli: named check registry and the command-line runner
"""

__version__ = "0.1.0"

# perfbench/test_perfbench.py checks that its tracer patches this binding too
from .spaces import coefficients  # noqa: F401
from .suites import SUITE_NAMES, SuiteParams, list_checks, run_suite  # noqa: F401
