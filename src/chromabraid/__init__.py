"""Braid groups conditioned by a simple graph.

Word-level tools (parsing, normal forms, equality oracles), presentation
synthesizers for the classical and graph-conditioned groups, abelianized
invariants of the pure part, and the explicit twisted-product model of the
cycle-conditioned group with its dihedral quotient.

The hot kernels (normal-form sliding, crossing simulation) are pure
Python, in chromabraid._garside_py; chromabraid.KERNEL is always "pure".

The unbounded caches are keyed by a strand count n, by n and a letter, or by
an element of the dihedral group D_n (compute_cocycle, cycle,
dihedral_lift_counts and private tables in graphs, extension and lkrep), so
they hold a fixed amount per n and the range of strand counts a process uses
bounds them; _kernel._alphabet keeps 64 strand counts.  The largest per n
are compute_cocycle and the product table mul and inv read, keyed by n: 4n^2
entries of n coordinates each, refused above extension.MAX_CYCLE_ORDER.
The three caches keyed by a graph (graphs._automorphisms,
graphs.is_triangle_free and chromatic._edge_index) keep the
graphs._GRAPH_CACHE_SIZE most recently used graphs.
"""

from ._kernel import KERNEL
from .chromatic import (
    ChromaticElement,
    EdgeVector,
    edge_lk,
    equal_in_BGamma,
    i_star,
    normal_form_in_BGamma,
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
    NotAutomorphismError,
    NotPureError,
    OutOfScopeError,
    ParseError,
    ResourceLimitError,
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
    inverse,
    parse_word,
    perm_of,
    power,
    psi_a_word,
    psi_b_word,
    s_word,
)

__version__ = "0.1.0"
