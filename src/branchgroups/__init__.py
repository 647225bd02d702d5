"""Calculus of rooted-tree automorphisms and self-similar groups.

Exact state-machine arithmetic for tree automorphisms, constructors for
spinal/GGS families, word-problem and order decision procedures, the
coset conjugacy algorithm for the first Grigorchuk group, finite level
quotients (layered p-group sequences, or stabilizer chains), Schreier
graphs with substitutional expansion, Hecke-Laplace spectra with
closed-form verification, and endomorphic presentation expansion.
"""

from .automorphisms import (
    Portrait,
    TreeAutomorphism,
    build_recursive,
    compose,
    identity_state,
    intern_word,
    invert,
    perm_from_cycles,
    portrait,
    rooted_state,
)
from .conjugacy import CosetSet, q_set
from .decision import (
    OrderResult,
    ball,
    canonical_portrait_depth,
    equal,
    eta_weights,
    is_trivial,
    order,
    torsion_growth,
)
from .errors import ResourceBoundExceeded, ShapeMismatch, ValidationError
from .groups import (
    BTable,
    DefiningTriple,
    GGSVector,
    GroupDefinition,
    Word,
    builtin,
    explicit_group,
    from_ggs,
    from_triple,
    grigorchuk_2group,
    is_ggs_torsion,
)
from .quotients import (
    LevelQuotient,
    SubgroupHandle,
    derived_series_orders,
    format_order,
    full_aut_order,
    hausdorff_ratio,
    hausdorff_ratio_exact,
    level_quotient,
    lower_central_ranks,
    nilpotency_class,
    rigid_level_stabilizer,
    rigid_stabilizer,
    suborbit_profile,
)
from .schreier import (
    SchreierGraph,
    schreier_graph,
    substitution_rules,
    substitutional_expand,
)
from .shapes import TreeShape, format_vertex, parse_vertex
from .spectra import (
    SpectralReport,
    delta_matrix,
    gg_closed_form,
    spectral_report,
    spectrum_eigenvalues,
)
from .presentations import (
    EndomorphicPresentation,
    Substitution,
    presentation,
    verify,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
