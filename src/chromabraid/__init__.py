"""Braid groups conditioned by a simple graph.

Word-level tools (parsing, normal forms, equality oracles), presentation
synthesizers for the classical and graph-conditioned groups, abelianized
invariants of the pure part, and the explicit twisted-product model of the
cycle-conditioned group with its dihedral quotient.

The hot kernels are pure Python: normal-form sliding in
chromabraid._garside_py, and the strand walk that counts crossings in
chromabraid._kernel; chromabraid.KERNEL is always "pure".

Every cache in the package, with its key and its bound: seven module-level
caches, then the two values each graph computes once and keeps:

- _kernel._alphabet: key n; bound 64 (LRU).
- chromatic.dihedral_lift_counts: key an element of D_n; bound 2n entries per n.
- extension.compute_cocycle: key n; bound one table per n up to MAX_CYCLE_ORDER.
- extension._product_table: key n; bound one table per n up to MAX_CYCLE_ORDER.
- graphs.cycle: key n; bound one graph per n.
- graphs._dihedral: key n; bound one tuple of 2n permutations and one dict of 2n elements per n.
- lkrep._column_rules: key (n, letter); bound 2n - 2 entries per n.
- graphs.SimpleGraph.edge_index: key the graph; bound freed with the graph.
- graphs.SimpleGraph.triangle_free: key the graph; bound freed with the graph.

The caches bounded per n hold a fixed amount for each strand count, so the
range of strand counts a process uses bounds them (_kernel.MAX_STRANDS caps
n).  The largest per n are compute_cocycle and the product table mul and inv
read: 4n^2 entries of n coordinates each, refused above
extension.MAX_CYCLE_ORDER.  The per-graph entries are attributes of the graph
(functools.cached_property), so they live exactly as long as it does.

Every resource limit in the package is one constant compared with its input,
before anything sized by that input is built, except MAX_AUTOMORPHISMS, which
is compared with the output as the search builds it:

- _kernel.MAX_STRANDS: refuses a word or graph on more strands; raises ResourceLimitError.
- _kernel.MAX_FORM_CELLS: refuses a normal form of more letters times strands; raises ResourceLimitError.
- extension.MAX_CYCLE_ORDER: refuses the cocycle of a larger cycle; raises ResourceLimitError.
- verify.MAX_N: refuses full_paper_report on a larger max_n; raises ResourceLimitError.
- graphs.MAX_AUT_VERTICES: refuses automorphisms on more vertices; raises AutBoundError.
- graphs.MAX_AUTOMORPHISMS: refuses a search that finds more automorphisms, checked as it goes; raises AutBoundError.
- lkrep._PACKED_LIMIT_BITS: refuses packed LK matrices of more bits; raises ResourceLimitError.
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
    psi_a_word,
    psi_b_word,
    s_word,
)

__version__ = "0.1.0"
