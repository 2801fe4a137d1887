"""Exact recovery of geometric conjugacy data for GL_n(F_q) characters.

The package computes, entirely in exact arithmetic, the parameter that
indexes an irreducible character of a finite general linear group by a
geometric conjugacy class of torus characters, using nothing but the
character's values on regular semisimple torus elements.  The layers:

cyclotomic  exact arithmetic in Z[zeta_N] on the power basis (no
            division, no linear solving, no matrices)
abelian     finite abelian groups in exponent coordinates: elements are
            plain exponent tuples, characters are AbChar
tori        maximal torus types, their rational points T^F as a group,
            the density gate, and the eigenvalue invariant, which decides
            regularity, conjugacy of regular elements and geom_class_id
sheets      character value tables (built-in GL_1/GL_2 generators, JSON IO)
recovery    expansion search of at most two terms (|W| <= 2 wherever the
            gate passes within the enumeration budget), class assembly,
            unipotence, and the Gram audit, which expands its own <= 4x4
            determinant; every answer is checked on the whole regular
            locus, and the gate with the uncertainty bound makes it unique
cli         deterministic command line front end

The independent cross-checks (norm/pullback class decider on the points
at Frobenius level m, the Weyl-orbit walker, the Bareiss Gram
determinant, the rational subset solver, the packed convolution, the
GL_2 decomposition pattern, the dict form of a sheet file) live in the
tests as oracles.
"""

from .abelian import AbChar, FinAbGroup
from .cyclotomic import CycNum, root
from .recovery import (
    Expansion,
    GramReport,
    NoExpansionError,
    QConditionViolated,
    RecoveryInconsistencyError,
    RecoveryReport,
    gram_independence,
    is_unipotent,
    recover_E,
    sparse_decompose,
)
from .sheets import (
    CharacterSheet,
    IrrLabel,
    SheetFormatError,
    SheetRow,
    SheetValidationError,
    build_gl1_sheet,
    build_gl2_sheet,
    load_sheet,
    save_sheet,
    sheet_from_dict,
    validate_sheet,
)
from .tori import (
    GeomClassId,
    GroupSpec,
    QConditionReport,
    TorusType,
    check_q_condition,
    enumerate_tori,
    geom_class_id,
    is_regular,
    regular_elements,
)

__version__ = "0.1.0"

__all__ = [
    "AbChar", "FinAbGroup",
    "CycNum", "root",
    "Expansion", "GramReport", "NoExpansionError", "QConditionViolated",
    "RecoveryInconsistencyError", "RecoveryReport",
    "gram_independence", "is_unipotent", "recover_E", "sparse_decompose",
    "CharacterSheet", "IrrLabel", "SheetFormatError", "SheetRow",
    "SheetValidationError", "build_gl1_sheet", "build_gl2_sheet",
    "load_sheet", "save_sheet", "sheet_from_dict", "validate_sheet",
    "GeomClassId", "GroupSpec", "QConditionReport", "TorusType",
    "check_q_condition", "enumerate_tori", "geom_class_id", "is_regular",
    "regular_elements",
    "__version__",
]
