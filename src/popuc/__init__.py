"""Paraorthogonal polynomials on the unit circle: construction, zeros,
trajectory tracking, and motion predicates for parameter-dependent measures."""

from .closed_forms import bs_mass_opuc, lebesgue_mass_popuc, w0_bs, w0_lebesgue
from .dynamics import (
    BalanceEntry,
    SweepConfig,
    Trajectory,
    ZeroPolicy,
    balance_check,
    fd_velocity,
    solve_at,
    sweep,
    tracked_velocity,
)
from .expressions import Expr, differentiate, evaluate, parse
from .measures import ACWeight, MassPoint, Measure, MomentSequence, moments
from .opuc import MonicPoly, OpucFamily, gram_opuc, inner_product, reversed_poly
from .paraorthogonal import (
    PopucInstance,
    ZeroSet,
    build_popuc,
    fix_zero_param,
    zeros_on_circle,
)
from .predicates import MotionContext, VerdictReport, motion_context, verdict, verdicts_along

__version__ = "0.1.0"
