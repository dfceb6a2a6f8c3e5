"""Z-complementary code sets from Boolean functions, verified exactly.

The package constructs complete complementary codes and optimal
Z-complementary code sets of length p * 2**m (p prime) from second-order
Boolean functions, and decides every correlation property in exact
cyclotomic-integer arithmetic on exponent arrays.  :mod:`zccs.reference`
keeps the paper's per-sequence definitions, re-exported here, as the
reference those array paths are tested against.
"""

from .algebra import CycInt, cyclotomic_poly, is_prime
from .boolfn import (
    FunctionGraph,
    GeneralizedBooleanFunction,
    PathCertificate,
    check_path_after_deletion,
    graph_of,
    min_blocks_exponent,
    parse_gbf,
)
from .construct import (
    CodeLabel,
    CodeSet,
    CodeSetParams,
    build_ccc,
    build_zccs,
    build_zccs_by_concatenation,
)
from .reference import (
    Code,
    CorrelationProfile,
    PbfSpec,
    RootSequence,
    accf,
    code_accf,
    codeword_function,
    pbf_sequence,
    profile,
    root_sum,
    sequence_of,
)
from .verify import (
    VerificationReport,
    ZccsCheck,
    check_ccc,
    check_optimal,
    check_zccs,
    max_zcz,
    verify_code_set,
)
from . import errors

__all__ = [
    "CycInt",
    "cyclotomic_poly",
    "is_prime",
    "FunctionGraph",
    "GeneralizedBooleanFunction",
    "PathCertificate",
    "PbfSpec",
    "RootSequence",
    "check_path_after_deletion",
    "codeword_function",
    "graph_of",
    "min_blocks_exponent",
    "parse_gbf",
    "pbf_sequence",
    "sequence_of",
    "Code",
    "CodeLabel",
    "CodeSet",
    "CodeSetParams",
    "build_ccc",
    "build_zccs",
    "build_zccs_by_concatenation",
    "CorrelationProfile",
    "accf",
    "code_accf",
    "profile",
    "root_sum",
    "VerificationReport",
    "ZccsCheck",
    "check_ccc",
    "check_optimal",
    "check_zccs",
    "max_zcz",
    "verify_code_set",
    "errors",
]

__version__ = "0.1.0"
