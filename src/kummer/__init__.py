"""Exact, mean-field and semiclassical spectra of bosonic n:m conversion systems."""

from .model import ModelSpec
from .algebra import (
    boson_power_commutator,
    casimir_completion,
    casimir_poly,
    commutator_poly,
    completion_residual,
    ladder_product,
)
from .meanfield import (
    BifurcationEvent,
    FixedPoint,
    TrajectoryRecord,
    classical_casimir,
    classical_commutator,
    classify_bifurcations,
    find_fixed_points,
    integrate_trajectory,
    kummer_mesh,
    pole_slopes,
    potentials,
    radius,
)
from .quantum import (
    DosHistogram,
    SpectrumResult,
    SweepTable,
    dos_histogram,
    eigen_spectrum,
    level_counts,
    sweep_epsilon,
)
from .semiclassics import (
    DosCurve,
    SemiclassicalSpectrum,
    dos_semiclassical,
    orbit_period,
    phase_correction,
    semiclassical_spectrum,
)

__version__ = "0.1.0"
