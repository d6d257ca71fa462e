"""Provably-bounded minimization of key Horn CNF representations.

A key Horn function is a pure Horn function in which every body implies all
other variables.  This package normalizes raw body families, minimizes
their CNF representations under six size measures with proved guarantees,
verifies every emitted formula, and ships exact brute-force oracles and
instance generators for validation.
"""

__version__ = "0.1.0"

from .core import (
    ClauseGroup,
    HornCNF,
    KeyHornInstance,
    Measure,
    MEASURES,
    UniverseMismatchError,
    VarSet,
    VerificationError,
    VerifyResult,
    canonical_sorted,
    measure_size,
    verify_against_family,
    verify_representation,
)
from .reduce import (
    NormalizationRecord,
    TrivialInstance,
    lift,
    normalize,
    sperner_minimal,
)
from .graph import (
    BodyGraph,
    InArborescence,
    LambdaFormula,
    NoBodyInSourceError,
    body_graph_c,
    body_graph_l,
    lambda_formula,
    min_in_arborescence,
    mwscs_2approx,
    price_c,
)
from .approx import (
    MinimizationResult,
    guarantee_factor,
    hamiltonian_formula,
    lower_bound,
    lower_bound_partition_c,
    minimize,
    minimize_all,
    procedure1,
    procedure2,
)
from .exact import (
    OptResult,
    SearchLimitError,
    opt_exact_all,
    price_l_exact,
)
from .gen import (
    GenerationError,
    ProjectiveInstance,
    SatReductionInstance,
    gen_hydra,
    gen_projective,
    gen_random,
    gen_sat_reduction,
)

__all__ = [
    "BodyGraph",
    "ClauseGroup",
    "GenerationError",
    "HornCNF",
    "InArborescence",
    "KeyHornInstance",
    "LambdaFormula",
    "MEASURES",
    "Measure",
    "MinimizationResult",
    "NoBodyInSourceError",
    "NormalizationRecord",
    "OptResult",
    "ProjectiveInstance",
    "SatReductionInstance",
    "SearchLimitError",
    "TrivialInstance",
    "UniverseMismatchError",
    "VarSet",
    "VerificationError",
    "VerifyResult",
    "body_graph_c",
    "body_graph_l",
    "canonical_sorted",
    "gen_hydra",
    "gen_projective",
    "gen_random",
    "gen_sat_reduction",
    "guarantee_factor",
    "hamiltonian_formula",
    "lambda_formula",
    "lift",
    "lower_bound",
    "lower_bound_partition_c",
    "measure_size",
    "min_in_arborescence",
    "minimize",
    "minimize_all",
    "mwscs_2approx",
    "normalize",
    "opt_exact_all",
    "price_c",
    "price_l_exact",
    "procedure1",
    "procedure2",
    "sperner_minimal",
    "verify_against_family",
    "verify_representation",
]
