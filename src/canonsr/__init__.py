"""canonsr: template-free symbolic regression over canonical-form expressions.

Evolves sets of grammar-derived basis functions against tabular data and
returns a tradeoff front of models over (prediction error, complexity).
"""

__version__ = "0.1.0"

from .config import DEFAULT_OPERATOR_WEIGHTS, OPERATOR_NAMES, RunConfig
from .dataset import (DataError, Dataset, DoePlan, doe_full_factorial,
                      doe_latin_hypercube, load_csv, oracle_dataset,
                      oracle_targets, scale_target_log10, synthetic_oracle,
                      write_points_csv)
from .expr import (Model, interpret_weight, model_from_dict, model_to_dict,
                   to_canonical_text, tree_from_dict, tree_to_dict)
from .fit import forward_regression_press, nmse
from .grammar import (Grammar, GrammarError, crossover_sites,
                      default_grammar_text, load_default_grammar,
                      parse_grammar, random_tree, validate)
from .evolve import (ParetoArchive, crowding_distance, fit_model, fit_models,
                     nondominated_sort, nsga2_generation)
from .pipeline import (TradeoffSet, export, filter_test_tradeoff,
                       load_model_json, run_evolution, run_pipeline,
                       simplify_after_generation)

__all__ = [
    "__version__",
    "DEFAULT_OPERATOR_WEIGHTS", "OPERATOR_NAMES", "RunConfig",
    "DataError", "Dataset", "DoePlan", "doe_full_factorial",
    "doe_latin_hypercube", "load_csv", "oracle_dataset", "oracle_targets",
    "scale_target_log10", "synthetic_oracle", "write_points_csv",
    "Model", "interpret_weight", "model_from_dict", "model_to_dict",
    "to_canonical_text", "tree_from_dict", "tree_to_dict",
    "forward_regression_press", "nmse",
    "Grammar", "GrammarError", "crossover_sites", "default_grammar_text",
    "load_default_grammar", "parse_grammar",
    "random_tree", "validate",
    "ParetoArchive", "crowding_distance", "fit_model", "fit_models",
    "nondominated_sort", "nsga2_generation",
    "TradeoffSet", "export", "filter_test_tradeoff", "load_model_json",
    "run_evolution", "run_pipeline", "simplify_after_generation",
]
