"""Trace-ideal quantities for truncated operators.

Singular values are computed in the weighted metric, where the truncation
is an honest Hilbert space, and every norm comes with a second,
independently computed path so the defining identities are checked rather
than assumed.  Eigenvalue inequalities (Weyl, Horn, Lalesco, Lidskii) use
the coordinate-matrix point spectrum, which is similarity invariant and
therefore metric independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .operators import BOperator, adjoint, h_matrix
from .report import VerificationReport, check_result

POWER_EXPONENTS = (1.0, 2.0, 4.0)


def power_map(p: float):
    """The monotone map t -> t^p on [0, inf), labeled for reports."""

    def phi(t):
        return t**p

    phi.label = f"t^{p:g}"
    return phi


def _phi_label(phi) -> str:
    return getattr(phi, "label", getattr(phi, "__name__", "phi"))


@dataclass(frozen=True)
class SingularSpectrum:
    """Singular values (descending) and eigenvalues (by multiplicity)."""

    mu: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=np.float64)
        lam = np.asarray(self.lam, dtype=np.complex128)
        if mu.ndim != 1 or lam.shape != mu.shape:
            raise ValueError("mu and lam must be 1-D sequences of equal length")
        if mu.size and (np.min(mu) < 0.0 or np.any(np.diff(mu) > 0.0)):
            raise ValueError("singular values must be nonnegative and descending")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "lam", lam)


def singular_value_gap(A: BOperator) -> tuple[np.ndarray, float, float]:
    """Weighted-metric singular values by two paths, and how far apart they are.

    Returns (s, gap, scale): s is the SVD of the metric transport of A,
    descending; gap is the largest difference to the square roots of the
    weighted-metric eigenvalues of A*A; scale is max(1, s_1), the size the
    gap is judged against.
    """
    mh = h_matrix(A)
    _, s, _ = numerics.svd(mh)
    prod_h = h_matrix(adjoint(A) @ A)
    eig = numerics.hermitian_eigen((prod_h + prod_h.conj().T) / 2.0)
    mu_eig = np.sqrt(np.clip(eig.values, 0.0, None))
    scale = max(1.0, float(s[0]) if s.size else 0.0)
    gap = float(np.max(np.abs(s - mu_eig))) if s.size else 0.0
    return s, gap, scale


def singular_values(A: BOperator, tol: float = 1e-10) -> np.ndarray:
    """Singular values in the weighted metric, descending.

    The two paths of ``singular_value_gap`` must agree: a disagreement
    beyond ``tol`` (relative) raises ArithmeticError.
    """
    s, gap, scale = singular_value_gap(A)
    if gap > tol * scale:
        raise ArithmeticError(f"singular-value paths disagree by {gap:.3e}")
    return s


def singular_spectrum(A: BOperator) -> SingularSpectrum:
    """Bundle mu (weighted metric) with the coordinate point spectrum."""
    return SingularSpectrum(singular_values(A), numerics.general_eigenvalues(A.matrix))


def _validate_order(p: float) -> float:
    p = float(p)
    if not np.isfinite(p) or p < 1.0:
        raise ValueError(f"Schatten order must be a finite real >= 1, got {p}")
    return p


def schatten_norm_paths(A: BOperator, p: float) -> tuple[float, float]:
    """The two defining formulas for the Schatten p-norm.

    First entry: the bracket formula (sum of Rayleigh brackets
    <A*A phi_n, phi_n*>^{p/2} over the biorthonormal eigenbasis of A*A)
    ^{1/p}.  Second entry: (sum mu_n^p)^{1/p} over the weighted-metric
    singular values.  The two share no factorization.
    """
    p = _validate_order(p)
    prod = adjoint(A) @ A
    mh = h_matrix(prod)
    eig = numerics.hermitian_eigen((mh + mh.conj().T) / 2.0)
    w = A.space.weights
    sw = np.sqrt(w)
    brackets = []
    for n in range(A.space.dim):
        c = eig.vectors[:, n] / sw
        mc = prod.matrix @ c
        num = np.sum(w * mc * np.conj(c))
        den = np.sum(w * c * np.conj(c))
        brackets.append(max((num / den).real, 0.0))
    bracket_norm = float(np.sum(np.asarray(brackets) ** (p / 2.0)) ** (1.0 / p))
    mu = singular_values(A)
    mu_norm = float(np.sum(mu**p) ** (1.0 / p))
    return bracket_norm, mu_norm


def schatten_norm(A: BOperator, p: float, tol: float = 1e-9) -> float:
    """Schatten p-norm, with the two defining paths required to agree
    to ``tol`` relative; disagreement raises ArithmeticError."""
    bracket_norm, mu_norm = schatten_norm_paths(A, p)
    if abs(bracket_norm - mu_norm) > tol * max(1.0, mu_norm):
        raise ArithmeticError(
            f"Schatten paths disagree: bracket={bracket_norm!r} mu-sum={mu_norm!r}"
        )
    return mu_norm


def _phi_sum(phi, values: np.ndarray) -> float:
    return float(np.sum([phi(float(v)) for v in values]))


def weyl_check(A: BOperator, phi=None) -> VerificationReport:
    """Sum of phi(|eigenvalue|) against sum of phi(singular value).

    With no map given, runs the shipped power family t^p, p in {1, 2, 4}.
    """
    maps = [power_map(q) for q in POWER_EXPONENTS] if phi is None else [phi]
    spec = singular_spectrum(A)
    rep = VerificationReport(suite="weyl")
    for f in maps:
        lhs = _phi_sum(f, np.abs(spec.lam))
        rhs = _phi_sum(f, spec.mu)
        rep.add(check_result(f"weyl-{_phi_label(f)}", max(0.0, lhs - rhs),
                             1e-9 * (rhs + 1.0), samples=spec.mu.size,
                             lhs=lhs, rhs=rhs))
    return rep


def horn_check(A1: BOperator, A2: BOperator, phi=None) -> VerificationReport:
    """Sum of phi(|eigenvalue of the product|) against sum of
    phi(paired singular-value products), both sorted descending."""
    A1._require_same_space(A2)
    maps = [power_map(q) for q in POWER_EXPONENTS] if phi is None else [phi]
    lam = numerics.general_eigenvalues((A1 @ A2).matrix)
    mu_pair = singular_values(A1) * singular_values(A2)
    rep = VerificationReport(suite="horn")
    for f in maps:
        lhs = _phi_sum(f, np.abs(lam))
        rhs = _phi_sum(f, mu_pair)
        rep.add(check_result(f"horn-{_phi_label(f)}", max(0.0, lhs - rhs),
                             1e-9 * (rhs + 1.0), samples=mu_pair.size,
                             lhs=lhs, rhs=rhs))
    return rep


def lalesco_check(A: BOperator) -> VerificationReport:
    """Sum of |eigenvalues| bounded by the sum of singular values."""
    spec = singular_spectrum(A)
    lhs = float(np.sum(np.abs(spec.lam)))
    rhs = float(np.sum(spec.mu))
    rep = VerificationReport(suite="lalesco")
    rep.add(check_result("lalesco-abs-eigen-sum", max(0.0, lhs - rhs),
                         1e-9 * (rhs + 1.0), samples=spec.mu.size,
                         lhs=lhs, rhs=rhs))
    return rep


def lidskii_check(A: BOperator) -> VerificationReport:
    """Eigenvalue sum equals the coordinate trace (similarity invariant)."""
    lam = numerics.general_eigenvalues(A.matrix)
    tr = complex(np.trace(A.matrix))
    gap = abs(complex(np.sum(lam)) - tr)
    rep = VerificationReport(suite="lidskii")
    rep.add(check_result("lidskii-trace", gap, 1e-9 * (abs(tr) + 1.0),
                         samples=lam.size, trace=abs(tr)))
    return rep


def approximation_numbers(A: BOperator, metric: str = "H", p_for_B: float = 2.0,
                          restarts: int = 4, seed: int = 0) -> np.ndarray:
    """Distances to the rank-n operators, n = 0 .. N.

    metric "H": exact, the (n+1)-th weighted-metric singular value (best
    rank-n approximation in a Hilbert metric), ending in an exact zero.
    metric "B-estimate": for each n the rank-n truncated singular
    decomposition is taken as candidate and its defect is measured with
    the coefficient p-norm estimator; each entry estimates an upper bound
    on the true distance, it is not certified tight.
    """
    n = A.space.dim
    mu = singular_values(A)
    if metric == "H":
        return np.concatenate([mu, [0.0]])
    if metric != "B-estimate":
        raise ValueError(f"unknown metric {metric!r}: expected 'H' or 'B-estimate'")
    mh = h_matrix(A)
    uh, s, v = numerics.svd(mh)
    sw = np.sqrt(A.space.weights)
    out = np.empty(n + 1)
    for k in range(n + 1):
        defect_h = (uh[:, k:] * s[k:]) @ v[:, k:].conj().T
        defect = defect_h * (sw[None, :] / sw[:, None])
        out[k] = numerics.opnorm_p_estimate(defect, p_for_B, restarts=restarts, seed=seed)
    return out


def pietsch_cp(A: BOperator, p: float, metric: str = "H", p_for_B: float = 2.0,
               restarts: int = 4, seed: int = 0) -> float:
    """Sum of the p-th powers of the approximation numbers from rank 1 on."""
    p = _validate_order(p)
    s = approximation_numbers(A, metric=metric, p_for_B=p_for_B,
                              restarts=restarts, seed=seed)
    return float(np.sum(s[1:] ** p))


def nuclear_norm_upper(A: BOperator, p_dual: float, restarts: int = 4,
                       seed: int = 0) -> float:
    """Upper bound on the nuclear norm from one explicit representation.

    The weighted-metric singular decomposition writes A as a sum of
    rank-one terms mu_n f_n(.) psi_n; the bound is the sum of
    mu_n * |f_n| * |psi_n| with psi_n measured in the coefficient p-norm
    conjugate to ``p_dual`` and f_n in the dual estimate (probed together
    with the analytic extremal vector, so the estimate attains the exact
    finite-dimensional dual norm).  The infimum over all representations
    can only be smaller: this is a certified upper bound, never tight by
    construction.
    """
    q = float(p_dual)
    if not 1.0 < q < np.inf:
        raise ValueError(f"dual exponent must lie in (1, inf), got {q}")
    p = q / (q - 1.0)
    mh = h_matrix(A)
    uh, s, v = numerics.svd(mh)
    sw = np.sqrt(A.space.weights)
    rng = np.random.default_rng(seed)
    total = 0.0
    for n in range(s.size):
        if s[n] == 0.0:
            continue
        c = uh[:, n] / sw                 # coefficients of psi_n
        g = sw * v[:, n]                  # functional f_n acts as <g, .>
        total += float(s[n]) * numerics.vector_pnorm(c, p) * _dual_norm_estimate(
            g, q, p, rng, restarts)
    return total


def _dual_norm_estimate(g: np.ndarray, q: float, p: float, rng, probes: int) -> float:
    """Probed dual norm of the functional <g, .> on the coefficient p-norm
    model.  The analytic extremal vector is always among the candidates,
    so the maximum equals the exact dual q-norm up to rounding."""
    a = np.abs(g)
    if not np.any(a > 0.0):
        return 0.0
    sgn = np.where(a > 0.0, g / np.where(a > 0.0, a, 1.0), 0.0)
    cands = [sgn * a ** (q - 1.0)]
    for _ in range(probes):
        cands.append(rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size))
    best = 0.0
    for x in cands:
        nx = numerics.vector_pnorm(x, p)
        if nx > 0.0:
            best = max(best, float(abs(np.vdot(g, x))) / nx)
    return best
