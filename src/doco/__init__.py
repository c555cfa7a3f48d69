"""Distributed online convex optimization with compressed communication.

A library plus simulation harness for star-topology online learning where
learners and server exchange contractively compressed messages with error
feedback on both sides, including the blocked variant that amortizes an
L-round residual compression over each decision block, and an anytime
online-to-batch driver for stochastic problems.
"""

from .algorithms import Dftcl, Dftfcl, O2b
from .compressors import (
    CompressedMessage,
    Identity,
    RandK,
    RandomGossip,
    ScaledSign,
    compress,
    contraction_stat,
    derive_seed,
    entity_stream,
    fcc,
    nominal_delta,
    parse_compressor,
)
from .domains import (
    Ball,
    Box,
    ConfigError,
    best_in_hindsight,
    ftrl_linear_step,
    ftrl_strongly_convex_step,
    project,
)
from .environments import (
    make_convex_lower_bound_env,
    make_lad_problem,
    make_linear_adversary,
    make_sc_lower_bound_env,
    make_sc_quadratic_adversary,
)
from .harness import MeanTrace, RegretTrace, RunConfig, fit_rate, monte_carlo, run, verify_lemma

__version__ = "0.1.0"
