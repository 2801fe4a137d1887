"""Exact recovery of geometric conjugacy data for GL_n(F_q) characters.

The package computes, entirely in exact arithmetic, the parameter that
indexes an irreducible character of a finite general linear group by a
geometric conjugacy class of torus characters, using nothing but the
character's values on regular semisimple torus elements.  The layers:

cyclotomic  exact arithmetic in Z[zeta_N] on the power basis: sums and
            integer multiples (no product of two values, no division,
            no linear solving, no matrices)
abelian     finite abelian groups in exponent coordinates: elements are
            plain exponent tuples, characters are AbChar
tori        maximal torus types, their rational points T^F as a group,
            the density gate, and the eigenvalue invariant, which decides
            regularity, conjugacy of regular elements and geom_class_id
sheets      character value tables (built-in GL_1/GL_2 generators, JSON IO)
recovery    expansion search of at most two terms (|W| <= 2 wherever the
            gate passes within the enumeration budget), class assembly,
            unipotence, and the Gram audit, whose determinant is an
            integer formula in |T^F| and the non-regular points; every
            answer is checked on the whole regular locus, and the gate
            with the uncertainty bound makes it unique
cli         deterministic command line front end

Each layer is imported on first use of one of its names here (PEP 562),
so a program that only gates and builds sheets never compiles
glchar.recovery or imports json.

The independent cross-checks (norm/pullback class decider on the points
at Frobenius level m, the Weyl-orbit walker, the Bareiss Gram
determinant over Z[zeta_L], the rational subset solver, the packed
product of two values, the GL_2 decomposition pattern, the dict form of
a sheet file) live in the tests as oracles.
"""

# the public names, by the layer that defines them
_EXPORTS = {
    "abelian": ("AbChar", "FinAbGroup"),
    "cyclotomic": ("CycNum", "root"),
    "recovery": (
        "Expansion", "GramReport", "NoExpansionError", "QConditionViolated",
        "RecoveryInconsistencyError", "RecoveryReport",
        "gram_independence", "is_unipotent", "recover_E", "sparse_decompose"),
    "sheets": (
        "CharacterSheet", "IrrLabel", "SheetFormatError", "SheetRow",
        "SheetValidationError", "build_gl1_sheet", "build_gl2_sheet",
        "load_sheet", "save_sheet", "sheet_from_dict", "validate_sheet"),
    "tori": (
        "GeomClassId", "GroupSpec", "QConditionReport", "TorusType",
        "check_q_condition", "enumerate_tori", "geom_class_id", "is_regular",
        "regular_elements"),
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ rather than importlib, which -X importtime does not see
    module = __import__(f"{__name__}.{_HOME[name]}", fromlist=[name])
    return globals().setdefault(name, getattr(module, name))


def __dir__():
    return sorted({*globals(), *__all__})
