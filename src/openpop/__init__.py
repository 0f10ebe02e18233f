"""openpop: population queries over arbitrarily biased samples.

Samples are first-class: declare a global population, register 1-/2-attribute
marginal histograms of ground-truth counts, ingest biased samples, and query
the population at a chosen visibility level. CLOSED uses the sample as-is,
SEMI-OPEN reweights it (inverse inclusion probability or iterative
proportional fitting), and OPEN additionally synthesizes missing tuples with
a marginal-constrained sliced-Wasserstein generator.
"""

from .catalog import (
    AttributeDef,
    AuxRelation,
    Catalog,
    Marginal,
    Mechanism,
    NumericBinning,
    PopulationDef,
    Relation,
    SampleRelation,
    build_marginal,
)
from .dialect import Select, Visibility, parse, parse_one, render
from .engine import Engine
from .errors import OpenPopError
from .executor import (
    ExecOptions,
    QueryAnswer,
    execute,
    execute_closed,
    execute_open,
    execute_semi_open,
    plan,
)
from .ipf import IpfConfig, IpfReport, discrepancy, ipf_fit
from .mswg import (
    TrainConfig,
    TrainedGenerator,
    augment_marginals,
    coverage_penalty,
    generate,
    loss_and_grad,
    train,
)
from .predicate import Comparison, InList, Predicate
from .transport import sample_projections, wasserstein_1d, wasserstein_1d_grad

__version__ = "0.1.0"

__all__ = [
    "AttributeDef", "AuxRelation", "Catalog", "Marginal", "Mechanism",
    "NumericBinning", "PopulationDef", "Relation", "SampleRelation",
    "build_marginal",
    "Select", "Visibility", "parse", "parse_one", "render",
    "Engine", "OpenPopError",
    "ExecOptions", "QueryAnswer", "execute", "execute_closed",
    "execute_open", "execute_semi_open", "plan",
    "IpfConfig", "IpfReport", "discrepancy", "ipf_fit",
    "TrainConfig", "TrainedGenerator", "augment_marginals", "coverage_penalty",
    "generate", "loss_and_grad", "train",
    "Comparison", "InList", "Predicate",
    "sample_projections", "wasserstein_1d", "wasserstein_1d_grad",
    "__version__",
]
