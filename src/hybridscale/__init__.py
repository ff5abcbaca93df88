"""Capacity-scaling analyzer and simulator for hybrid wireless ad hoc networks."""

from .scaling import (
    INF,
    NEG_INF,
    AlphaInterval,
    FiniteNMapping,
    InvalidPointError,
    LimitationFlags,
    RegimeReport,
    ScalingPoint,
    SchemeExponents,
    achievable_exponent,
    achievable_exponent_grid,
    best_scheme_grid,
    classify_regime_2d,
    classify_regime_3d,
    limitation_flags,
    map_finite_n,
    min_backhaul_exponent,
    min_backhaul_exponent_grid,
    regime_label_grid,
    scheme_exponents,
    upper_bound_exponent,
    upper_bound_exponent_grid,
)

__version__ = "0.1.0"

from .channel import ChannelRealization, ZeroDistanceError
from .cutset import CutBound, bound_l1, bound_l2, cut_bounds, min_cut
from .protocols import (
    EmptyRoutingCellError,
    SimConfig,
    SimResult,
    StageRates,
    best_of_schemes,
    estimate_hc_single_level,
    fit_scaling_exponent,
    simulate_imh,
    simulate_ish,
    simulate_mh,
)
from .topology import (
    InfeasibleGeometryError,
    Topology,
    TopologyConfig,
    cell_counts,
    concentration_ok,
    generate_topology,
    max_nodes_unit_square,
    min_pairwise_distance,
)
