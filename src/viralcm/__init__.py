"""Influence diffusion on enhanced configuration-model networks.

Three cross-validating tracks for the size of a viral campaign: direct
simulation on realized graphs, plug-in estimation from pioneer degree
data, and closed-form analysis of the population law; plus a staged
decision procedure for evaluating an ongoing campaign.
"""

from .analytic import (
    AnalyticResult,
    GenFnBundle,
    RootBracketingError,
    analyze,
    bernoulli_threshold,
    build_genfns,
    find_root,
    mean_offspring,
)
from .diffusion import (
    DiffusionOutcome,
    all_reach,
    classify_good_pioneers,
    influenced_set,
    reverse_reach,
)
from .estimators import (
    ConditionTest,
    EstimationReport,
    effectiveness_test,
    evaluate_campaign,
    fragmentation_test,
    load_sample_csv,
    write_sample_csv,
)
from .graph import EnhancedGraph, build, write_edgelist
from .populations import (
    BernoulliTransmission,
    CouponCollector,
    DegreeSample,
    EmpiricalDegree,
    JointDegreeLaw,
    JointMoments,
    NodePercolation,
    PoissonDegree,
    PowerLawDegree,
)
from .special import (
    DiscretePmf,
    poisson_pmf,
    polylog,
    stirling2_row,
    zeta,
    zipf_pmf,
)

__version__ = "0.1.0"
