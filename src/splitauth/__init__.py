"""Splitting designs, splitting authentication codes, and exact
security analysis.

The pipeline: build a design (cyclic development of base blocks over
Z_v, or any explicit block list), verify it exactly, turn it into
an authentication code whose encoding rules are the blocks, then check
its security claims (deception probabilities against their exact
floors, rule-count optimality, and perfect secrecy) with rational
arithmetic throughout.
"""

from .acode import (
    REJECT,
    EncodingMatrix,
    SplittingACode,
    code_from_design,
    decode,
    encode,
    render_matrix,
    rule_defects,
    valid_messages,
)
from .construct import (
    BaseBlockFamily,
    Block,
    CongruenceCase,
    OrbitInfo,
    Part,
    SplittingDesign,
    congruence_condition,
    develop_cyclic,
    family_u2,
    orbit_of,
    translate_block,
)
from .params import (
    AdmissibilityReport,
    DerivedCounts,
    DesignParams,
    admissible,
    binomial,
    check_divisibility,
    check_fisher,
    check_identities,
    derived_counts,
    lambda_level,
)
from .security import (
    PosteriorTable,
    SecurityReport,
    analyze,
    deception_bound,
    deception_probability,
    optimality_check,
    perfect_secrecy_check,
    rule_count_floor,
    security_level,
)
from .verify import (
    VerificationResult,
    check_structure,
    count_covering_blocks,
    covered_subsets,
    downgrade_check,
    verify_design,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport",
    "BaseBlockFamily",
    "Block",
    "CongruenceCase",
    "DerivedCounts",
    "DesignParams",
    "EncodingMatrix",
    "OrbitInfo",
    "Part",
    "PosteriorTable",
    "REJECT",
    "SecurityReport",
    "SplittingACode",
    "SplittingDesign",
    "VerificationResult",
    "admissible",
    "analyze",
    "binomial",
    "check_divisibility",
    "check_fisher",
    "check_identities",
    "check_structure",
    "code_from_design",
    "congruence_condition",
    "count_covering_blocks",
    "covered_subsets",
    "decode",
    "deception_bound",
    "deception_probability",
    "derived_counts",
    "develop_cyclic",
    "downgrade_check",
    "encode",
    "family_u2",
    "lambda_level",
    "optimality_check",
    "orbit_of",
    "perfect_secrecy_check",
    "render_matrix",
    "rule_count_floor",
    "rule_defects",
    "security_level",
    "translate_block",
    "valid_messages",
    "verify_design",
]
