"""Preference-driven social networks: growth, spreading, patterns, fitting.

The pipeline in one breath: sample an age-structured population, score all
node pairs by connection preferences (feature level and feature
difference), keep the best-scoring encountered pairs as edges, run a
susceptible-infected process over the result, and compare the network's
structural patterns against targets. An optimizer closes the loop by
fitting preference weights to a target degree distribution.

All randomness derives from a single master seed through named streams,
so every result in the package is exactly reproducible.
"""

__version__ = "0.1.0"

from .scenario import (
    AgeShape,
    CounterStream,
    load_scenario,
    PH_FITTED,
    Preference,
    preset,
    RngPolicy,
    Rule,
    RULE_PREFERENCES,
    save_scenario,
    Scenario,
    ScenarioError,
    ScenarioParseError,
    ScenarioValidationError,
)
from .features import (
    group_counts,
    hill_number,
    hill_profile,
    make_population,
    Population,
    sample_ages,
)
from .netgen import (
    ba_target,
    edge_strength,
    generate_network,
    load_edge_list,
    NetworkSnapshot,
    pair_draws,
    PairDraws,
    save_network,
)
from .netmetrics import (
    analyze,
    clustering_values,
    degree_distribution,
    js_divergence,
    NetworkPatterns,
    PatternDistribution,
    shortest_path_matrix,
    SummaryStats,
)
from .epidemic import (
    EpidemicTrace,
    infection_by_distance,
    multi_source_distances,
    par_by_group,
    par_matrix,
    risk_report,
    run_si,
    select_seeds,
)
from .optimizer import (
    evaluate,
    EvalRecord,
    optimize,
    OptimizeResult,
    replicate_draws,
    ReplicateDraws,
)

__all__ = [
    "__version__",
    "AgeShape",
    "analyze",
    "ba_target",
    "clustering_values",
    "CounterStream",
    "degree_distribution",
    "edge_strength",
    "EpidemicTrace",
    "EvalRecord",
    "evaluate",
    "generate_network",
    "group_counts",
    "hill_number",
    "hill_profile",
    "infection_by_distance",
    "js_divergence",
    "load_edge_list",
    "load_scenario",
    "make_population",
    "multi_source_distances",
    "NetworkPatterns",
    "NetworkSnapshot",
    "optimize",
    "OptimizeResult",
    "pair_draws",
    "PairDraws",
    "par_by_group",
    "par_matrix",
    "PatternDistribution",
    "PH_FITTED",
    "Population",
    "Preference",
    "preset",
    "replicate_draws",
    "ReplicateDraws",
    "risk_report",
    "RngPolicy",
    "Rule",
    "RULE_PREFERENCES",
    "run_si",
    "sample_ages",
    "save_network",
    "save_scenario",
    "Scenario",
    "ScenarioError",
    "ScenarioParseError",
    "ScenarioValidationError",
    "select_seeds",
    "shortest_path_matrix",
    "SummaryStats",
]
