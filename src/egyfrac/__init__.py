"""egyfrac: counting and constructing exact unit-fraction representations.

Given n and a positive rational x, the package counts subsets A of {1..n}
with sum(1/a for a in A) equal to (or at most) x, bounds the count through
a max-entropy profile, simulates the matching product-Bernoulli model, and
constructs explicit representations through modular cancellation plus an
exact reservoir finish.
"""

import os
from importlib import import_module

# One BLAS thread unless the user set otherwise, before numpy loads: a threaded
# dot product sums in another order, so seeded records would depend on the host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"

# Each public name and the module that defines it. The modules load on first
# use of one of their names (PEP 562), so `import egyfrac` loads none of them.
_EXPORTS = {
    "exactmath": (
        "FactorSieve", "harmonic", "is_powersmooth", "lcm_range", "max_prime_power_factor",
        "powersmooth_count", "prime_powers_in", "reciprocal_sum", "smooth_density_linear",
        "verify_representation",
    ),
    "counting": (
        "CountQuery", "CountResult", "count_brute", "count_dp", "count_mitm",
        "enumerate_representations",
    ),
    "entropy": (
        "ContinuousConstants", "EntropyProfile", "binary_entropy", "continuous_lambda",
        "cx_constant", "discrete_profile", "entropy_upper_bound",
    ),
    "modelsim": (
        "ModelSample", "MomentSummary", "ProbEstimate", "estimate_prob_at_most",
        "model_moments", "sample_model",
    ),
    "modular": (
        "ModInstance", "ModSubsetSolution", "ShrinkResult", "dirichlet_shrink", "make_instance",
        "min_subset_inverse_sum", "mod_inverse", "residue_coverage",
    ),
    "absorption": (
        "AbsorptionConfig", "AbsorptionTrace", "build_config", "cancel_prime_powers",
        "construct_representation", "reservoir_decompose", "sample_base_set",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
