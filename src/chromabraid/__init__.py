"""Braid groups conditioned by a simple graph.

Word-level tools (parsing, normal forms, equality oracles), presentation
synthesizers for the classical and graph-conditioned groups, abelianized
invariants of the pure part, and the explicit twisted-product model of the
cycle-conditioned group with its dihedral quotient.

The hot kernels (normal-form sliding, crossing simulation) are pure
Python, in chromabraid._garside_py; chromabraid.KERNEL is always "pure".
"""

from ._kernel import KERNEL
from .chromatic import (
    ChromaticElement,
    EdgeVector,
    edge_action,
    edge_lk,
    equal_in_BGamma,
    i_star,
    phi,
    section,
    unit_vector,
    zero_vector,
)
from .errors import (
    AutBoundError,
    ChromabraidError,
    GraphInputError,
    IndexRangeError,
    MissingEntryError,
    NotAutomorphismError,
    NotPureError,
    OutOfScopeError,
    ParseError,
    StrandMismatchError,
)
from .extension import (
    compute_cocycle,
    inv,
    mul,
    to_element,
    verify_final_proposition,
)
from .garside import (
    NormalForm,
    equal_in_Bn,
    equal_via_representation,
    normal_form,
)
from .graphs import (
    DihedralElement,
    SimpleGraph,
    automorphisms,
    complete,
    cycle,
    dihedral_generators,
    from_edge_list,
    is_3_circuit,
    is_automorphism,
    is_complete,
    is_triangle_free,
    path,
)
from .presentations import (
    Presentation,
    artin_presentation,
    cyclic_braid_presentation,
    dihedral_presentation,
    equivalent_presentations,
    extension_presentation,
    format_presentation,
    markoff_presentation,
    pure_chromatic_presentation,
)
from .report import CheckLine, Report
from .words import (
    BraidWord,
    CrossingMatrix,
    Permutation,
    a_word,
    concat,
    crossing_matrix,
    e_word,
    format_word,
    free_reduce,
    inverse,
    is_pure,
    parse_word,
    perm_of,
    power,
    psi_a_word,
    psi_b_word,
    s_word,
)

__version__ = "0.1.0"
