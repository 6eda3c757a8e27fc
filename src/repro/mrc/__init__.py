"""Miss-ratio-curve estimation and design-space exploration.

``repro.mrc`` answers "what would the hit rate be?" questions without
timing simulation: tag-only ghost caches (:mod:`repro.mrc.ghost`) are
driven over a materialized trace in one pass (:mod:`repro.mrc.engine`),
and the Pareto-pruned search driver (:mod:`repro.mrc.dse`) spends real
timing simulations only on the estimated frontier. See ``docs/dse.md``.
"""

from repro.mrc.engine import CurvePoint, MRCResult, MRCSpec, mrc_pass, sample_addresses
from repro.mrc.ghost import AdaptiveGhost, GhostBiModal, GhostCache, GhostPass
from repro.mrc.dse import (
    DesignPoint,
    default_space,
    mrc_curves_for_mix,
    pareto_frontier,
    run_design_space,
)

__all__ = [
    "AdaptiveGhost",
    "CurvePoint",
    "DesignPoint",
    "GhostBiModal",
    "GhostCache",
    "GhostPass",
    "MRCResult",
    "MRCSpec",
    "default_space",
    "mrc_curves_for_mix",
    "mrc_pass",
    "pareto_frontier",
    "run_design_space",
    "sample_addresses",
]
