"""addcomb: exact-arithmetic workbench for the additive combinatorics of
squares and higher powers."""

from .checked import INT64_MAX, INT64_MIN
from .curves import (
    CurveSpec,
    PointList,
    genus,
    pair_square_edges,
    point_search,
    probe_quadruple_family,
    square_sum_clique_search,
)
from .errors import BudgetExceededError, IntegerOverflowError, UnsupportedCurveError
from .gaps import (
    Gap,
    Stratification,
    enumerate_gap,
    fix_fiber,
    gcd_normalize,
    is_proper,
    mobius,
    mobius_identity_check,
    residue_count,
    ring_solution_count,
    shrink,
    split_for_double_properness,
    stratify,
)
from .incidence import PointSet2D, bound_report, count_solutions, tau
from .intset import (
    IntSet,
    count_difference_triples,
    difference_set,
    energy,
    higher_energy,
    mixed_energy,
    pluennecke_check,
    popular_differences,
    popular_energy_sum,
    quadruple_intersection,
    rep_function,
    signed_sumset,
    structure_ratios,
    sumset,
)
from .powers import (
    ScanRecord,
    count_in_ap,
    energy_experiment,
    is_kth_power,
    kth_powers_in,
    multiplicative_inclusion_check,
    qk_oracle,
    replay_scan_record,
    scan_gap,
)
from .records import RecordStore
from .sumproduct import (
    BipartiteGraph,
    Matching,
    cubic_energy,
    extremal_search,
    holder_chain_check,
    kst_bound,
    kst_free,
    max_complete_bipartite,
    sp_graph,
    sums_products,
)

__version__ = "0.1.0"
