"""Numerical toolkit for intermittent communication: partial divergence,
achievable rates, insertion-channel capacities, genie-aided converse bounds,
capacity per unit cost, and a Monte-Carlo channel simulator."""

__version__ = "0.1.0"

from .blahut import CapacityResult, blahut_capacity, union_capacity
from .bounds import (CostCapacityBound, CostModel, c1_limit, c1_upper, c2_upper,
                     cpuc_lower, cpuc_upper, ppm_burst_length, z_pmf, z_quantile)
from .errors import ConvergenceError, SizeGuardError
from .insertion import (InsertionCapacity, insertion_capacity,
                        insertion_capacity_upper, insertion_counts,
                        insertion_loss, WeightClass, weight_class_channel)
from .partialdiv import (PartialDivergence, convexity_lower_bound,
                         mismatch_exponent, partial_divergence,
                         partial_divergence_deriv, tilting_constant)
from .prob import (Dmc, Pmf, binary_entropy, cond_typical_rows, entropy,
                   is_cond_typical, is_typical, kl_divergence, mutual_information,
                   output_dist, typical_rows)
from .rates import (NoiselessRateResult, OverheadResult, PatternRateResult,
                    exhaustive_decoding_rate, intermittency_overhead,
                    noiseless_binary_rate, pattern_decoding_rate)
from .sim import (DecodeResult, SimConfig, SimResult, TrialOutcome, apply_dmc,
                  best_distinguishing_symbol, decode_exhaustive,
                  decode_pattern, decode_zero_rate, monte_carlo_error,
                  negbinom_pmf, sample_receive_lengths, transmit_intermittent,
                  wilson_interval, zero_rate_codebook)

__all__ = [name for name in dir() if not name.startswith("_")]
