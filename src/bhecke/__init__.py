"""Reducibility of induced discrete series for affine Hecke algebras of type B.

The package decides, for an induction datum (n, m, kappa, mu) with q2 = q1^m,
whether the parabolically induced discrete-series representation is reducible,
by computing the R-group (an elementary abelian 2-group) together with the
supporting combinatorics: residual points, the splitting map, c-function pole
orders, symbols and truncated induction, and brute-force Weyl-group checks.
"""

from .partitions import (
    AStrip,
    Bipartition,
    BoxCoord,
    MTableau,
    Partition,
    content,
    enumerate_partitions,
    m_tableau,
    strip,
)
from .splitting import (
    Block,
    Orientation,
    SplitResult,
    central_character,
    datum_error,
    is_residual_point,
    residual_counts,
    residual_partitions,
    split,
)
from .cfun import (
    pole_order_A_part,
    pole_order_block,
    pole_order_pair,
    pole_order_short_blockwise,
    pole_order_short_direct,
)
from .rgroup import (
    InductionDatum,
    RGroupResult,
    RestrictedRootSystem,
    SignedPermutation,
    WeylSubset,
    brute_force_R,
    brute_force_W_xi_xi,
    can_glue,
    convert_C_labels,
    d_value,
    glue_strip_geometric,
    induction_data,
    r_group,
    restricted_root_system,
)
from .symbols import (
    CharacterSet,
    MINUS_ZERO,
    PLUS_ZERO,
    Symbol,
    SymbolVariant,
    a_m,
    cardinality_check,
    component_group_order_m1,
    interval_count_check,
    intervals,
    pieri_induct,
    similar,
    similarity_class,
    springer_correspondents,
    symbol,
    truncated_induct,
    variants_for_m,
)

__version__ = "0.1.0"

__all__ = [
    "AStrip", "Bipartition", "Block", "BoxCoord", "CharacterSet",
    "InductionDatum", "MTableau", "MINUS_ZERO", "Orientation", "PLUS_ZERO",
    "Partition", "RGroupResult",
    "RestrictedRootSystem", "SignedPermutation", "SplitResult", "Symbol",
    "SymbolVariant", "WeylSubset", "a_m", "brute_force_R",
    "brute_force_W_xi_xi", "can_glue", "cardinality_check",
    "central_character", "component_group_order_m1", "content",
    "convert_C_labels", "d_value", "datum_error", "enumerate_partitions",
    "glue_strip_geometric", "induction_data", "interval_count_check", "intervals",
    "is_residual_point", "m_tableau", "pieri_induct", "pole_order_A_part",
    "pole_order_block", "pole_order_pair", "pole_order_short_blockwise",
    "pole_order_short_direct", "r_group", "residual_counts",
    "residual_partitions", "restricted_root_system", "similar",
    "similarity_class", "split", "springer_correspondents", "strip",
    "symbol", "truncated_induct", "variants_for_m",
]
