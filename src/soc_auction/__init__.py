"""Self-organized-criticality auction: the highest-remaining-bid selling
rule, its critical-price theory, and avalanche statistics."""

from .analytics import (AvalancheSet, B_DEFAULT, DistributionChecks, TailFit,
                        TheorySummary, empirical_critical_price,
                        empirical_distribution_checks, fit_power_tail,
                        ks_critical_value, ks_statistic, segment_avalanches,
                        survival_function, theory_summary)
from .distributions import (E_INV, Exponential, LogNormal, Pareto, PriceModel,
                            SeedSpec, Truncated, Uniform, critical_price,
                            parse_model, quantile, sample, uniform_stream)
from .engine import (AuctionEngine, Bid, Rule, RunResult, SaleRecord,
                     oracle_run, run_sequence)
from .errors import InfiniteMomentError, InsufficientDataError, ModelSpecError
from .montecarlo import (EstimateWithCI, NormalityDiagnostics, ReplicaResult,
                         estimate_af, estimate_b, estimate_pc, run_replicas,
                         ti_normality)

__version__ = "0.1.0"

__all__ = [
    "AuctionEngine", "AvalancheSet", "B_DEFAULT", "Bid", "DistributionChecks",
    "E_INV", "EstimateWithCI", "Exponential", "InfiniteMomentError",
    "InsufficientDataError", "LogNormal", "ModelSpecError",
    "NormalityDiagnostics", "Pareto", "PriceModel", "ReplicaResult", "Rule",
    "RunResult", "SaleRecord", "SeedSpec", "TailFit", "TheorySummary",
    "Truncated", "Uniform", "critical_price", "empirical_critical_price",
    "empirical_distribution_checks", "estimate_af", "estimate_b",
    "estimate_pc", "fit_power_tail", "ks_critical_value", "ks_statistic",
    "oracle_run", "parse_model", "quantile", "run_replicas", "run_sequence",
    "sample", "segment_avalanches", "survival_function", "theory_summary",
    "ti_normality", "uniform_stream",
]
