"""polyshift: homological shift ideals, socles and Betti tables of monomial
ideals, with exchange-property classifiers and a conjecture-fuzzing lab."""

from .errors import (
    DegreeMismatchError,
    DimensionMismatchError,
    FamilySpecError,
    LinearityError,
    NotStronglyStableError,
    ParseError,
    PolyshiftError,
    PreconditionError,
    ResourceCapError,
    RouteDisagreementError,
    SupportError,
    UnsupportedFamilyError,
    ZeroIdealError,
)
from .monomials import (
    Monomial,
    MonomialIdeal,
    VariableOrder,
    distance,
    ideal_power,
    ideal_product,
    minimal_generators,
    monomial_multiples,
    restrict_to_support,
    support_filter,
)
from .quotients import (
    AdmissibleOrderFailure,
    OrderSearch,
    QuotientCertificate,
    certify_lex,
    certify_order,
    find_admissible_order,
    first_shift_by_distance,
    homological_shift,
    shift_multiset,
    shifts_by_distance,
    total_betti_from_certificate,
)
from .families import (
    BorelSpec,
    ExchangeResult,
    ExplicitSpec,
    FamilySpec,
    GenBudget,
    LPSpec,
    PLPSpec,
    PowerSpec,
    ProductSpec,
    TransversalSpec,
    VeroneseSpec,
    borel_generators,
    check_exchange,
    is_matroidal,
    is_polymatroidal,
    is_strongly_stable,
    prime_ideal,
    random_polymatroidal,
    realize,
    veronese_shift,
)
from .oracle import (
    BettiTable,
    SimplicialComplexFrame,
    betti_table,
    ek_betti,
    lcm_lattice,
    reduced_homology_ranks,
    upper_koszul,
)
from .socle import (
    IntersectionGraph,
    SocleReport,
    family_socle,
    intersection_graph,
    max_pd,
    socle_colon,
    socle_exchange,
    socle_report,
    spanning_tree_socle,
    spanning_trees,
)
from .fuzzlab import CampaignConfig, CampaignSummary, check_instance, run_campaign
from .textio import (
    IdealSource,
    format_ideal,
    format_spec,
    parse_ideal,
    parse_monomial,
    parse_variable_order,
    spec_from_doc,
    spec_to_doc,
)

__version__ = "0.1.0"
