"""addcomb: exact-arithmetic workbench for the additive combinatorics of
squares and higher powers."""

from .checked import INT64_MAX, INT64_MIN
from .curves import (
    CurveSpec,
    PointList,
    genus,
    pair_square_edges,
    point_search,
    square_sum_clique_search,
)
from .errors import BudgetExceededError, IntegerOverflowError, UnsupportedCurveError
from .gaps import (
    Gap,
    Stratification,
    enumerate_gap,
    gcd_normalize,
    mobius,
    mobius_identity_check,
    stratify,
)
from .incidence import PointSet2D, bound_report, count_solutions, tau
from .intset import (
    IntSet,
    energy,
    higher_energy,
    mixed_energy,
    pluennecke_check,
    popular_energy_sum,
    rep_function,
    signed_sumset,
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
    sp_graph,
    sums_products,
)

__version__ = "0.1.0"
