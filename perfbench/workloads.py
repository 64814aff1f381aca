"""What the benchmark runs and what its trace reports.

A workload is a list of CLI argument vectors that one fresh interpreter
runs in order.  The benchmark appends ``--seed``, ``--format json`` and
``--out`` to each.  Why each workload exists is written down in README.md
next to this file.
"""

WORKLOADS = {
    # `almosthilbert --suite all` at the defaults (dim 8, grid 256, cubes 64,
    # trials 100): the command the README leads with; ks2 and the dense
    # kernels share the time.
    "nominal": (("--suite", "all"),),
    # The desk-scale maximum: ks2 at M=8192, K=1024 does nearly all the work.
    "desk-max": (("--suite", "all", "--dim", "16", "--grid", "8192",
                  "--cubes", "1024", "--trials", "10"),),
    # Dense operator algebra only, no ks2 call: the bypass case for a ks2
    # optimization.
    "operators": (("--suite", "adjoint"), ("--suite", "schatten")),
}

LAYERS = ("numerics", "spaces", "embedding", "operators", "schatten", "ks2",
          "integrals", "report", "suites", "cli")

# Public functions whose calls and self time are reported one by one.
NAMED_FUNCTIONS = (
    "ks2.functional_Fk", "ks2.functional_values", "ks2.ks2_inner",
    "spaces.coefficients", "spaces.reconstruct", "spaces.fourier_sbasis",
    "spaces.lp_norm", "embedding.h_inner",
    "numerics.hermitian_eigen", "numerics.svd", "numerics.general_eigenvalues",
    "numerics.opnorm_p_estimate", "numerics.vector_pnorm", "numerics.matrix_exp",
    "numerics.as_matrix",
    "operators.minmax_eigenvalue", "operators.lax_check", "operators.adjoint",
    "operators.b_opnorm_estimate",
    "schatten.singular_values", "schatten.schatten_norm_paths",
    "integrals.riesz_potential", "integrals.hilbert_multiplier", "integrals.hilbert_pv",
)

# Counts that must repeat exactly between two traced runs of one seed.
EXACT_COUNTS = ("ks2.cells_touched", "spaces.coefficients.cells_touched",
                "spaces.fourier_sbasis.calls", "ks2.functional_Fk.calls")


def suite_of(argv) -> str:
    """The suite an argument vector of a workload runs."""
    return argv[list(argv).index("--suite") + 1]


def cli_argv(argv, seed: int, out) -> list[str]:
    """The full argument vector of one invocation: seeded, canonical JSON to ``out``."""
    return [*argv, "--seed", str(seed), "--format", "json", "--out", str(out)]
