"""GIT stability loci for simple groups acting on irreducible representations.

The package computes maximal non-stable states, maximal unstable states and
strictly polystable states of such actions with exact rational arithmetic,
and classifies individual points against the maximal torus.
"""

from .errors import (
    ConversionError,
    GitLociError,
    InvalidRankError,
    NonDominantError,
    ParseError,
    RankMismatchError,
    ResourceGuardError,
)
from .exactgeom import (
    arrangement_cells,
    arrangement_rays,
    lp_feasible,
    zero_in_relative_interior,
)
from .gitsolver import (
    GITProblem,
    GITSolution,
    State,
    TorusClassification,
    classify_torus,
    hm_mu,
    new_problem,
    problem_from_weights,
    solve_all,
    solve_non_stable,
    solve_strictly_polystable,
    solve_unstable,
    state_of,
)
from .repsupport import (
    RepresentationSupport,
    parse_highest_weight,
    support_from_weights,
    weight_support,
)
from .rootdata import (
    DynkinType,
    OneParameterSubgroup,
    SimpleGroup,
    Weight,
    WeylElement,
    convert_coordinates,
    dominant_representative,
    fundamental_chamber_generators,
    make_group,
    one_param_subgroup,
    pairing,
    weight,
    weyl_elements,
    weyl_group_order,
    weyl_orbit,
)

__version__ = "0.1.0"

__all__ = [
    "ConversionError",
    "DynkinType",
    "GITProblem",
    "GITSolution",
    "GitLociError",
    "InvalidRankError",
    "NonDominantError",
    "OneParameterSubgroup",
    "ParseError",
    "RankMismatchError",
    "RepresentationSupport",
    "ResourceGuardError",
    "SimpleGroup",
    "State",
    "TorusClassification",
    "Weight",
    "WeylElement",
    "arrangement_cells",
    "arrangement_rays",
    "classify_torus",
    "convert_coordinates",
    "dominant_representative",
    "fundamental_chamber_generators",
    "hm_mu",
    "lp_feasible",
    "make_group",
    "new_problem",
    "one_param_subgroup",
    "pairing",
    "parse_highest_weight",
    "problem_from_weights",
    "solve_all",
    "solve_non_stable",
    "solve_strictly_polystable",
    "solve_unstable",
    "state_of",
    "support_from_weights",
    "weight",
    "weight_support",
    "weyl_elements",
    "weyl_group_order",
    "weyl_orbit",
    "zero_in_relative_interior",
]
