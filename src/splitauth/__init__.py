"""Splitting designs, splitting authentication codes, and exact
security analysis.

The pipeline: build a design (cyclic development of base blocks over
Z_v, or any explicit block list), verify it exactly, turn it into
an authentication code whose encoding rules are the blocks, then check
its security claims (deception probabilities against their exact
floors, rule-count optimality, and perfect secrecy) with rational
arithmetic throughout.

Names are loaded from their submodules on first use (PEP 562), so
``import splitauth`` costs nothing until a name is asked for.
"""

__version__ = "0.1.0"

_EXPORTS = {
    name: module
    for module, names in {
        "acode": "SplittingACode code_from_design rule_defects",
        "construct": "BaseBlockFamily Block Part SplittingDesign develop_cyclic "
        "family_u2 orbit_of translate_block",
        "security": "PosteriorTable SecurityReport analyze deception_bound "
        "deception_probability perfect_secrecy_check rule_count_floor",
        "verify": "DesignParams VerificationResult verify_design",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = __import__(f"{__name__}.{_EXPORTS[name]}", fromlist=[name])
    globals()[name] = value = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
