"""Numerical laboratory for Carleson measures on convex model domains.

Subpackages by layer: domains (defining functions, projections, sampling),
geometry (minimal frames and polydisks), kobayashi (invariant distance
brackets and ball membership), bergman (moments, kernels, Berezin
transforms), measures (atomic/density measures and their polydisk masses),
carleson (the three criteria, covers), sequences (uniformly discrete
sequences and their weighted measures), cli (batch driver).
"""

__version__ = "0.1.0"

from .domains import (
    DomainSpec,
    complex_ellipsoid,
    load_spec,
    save_spec,
    unit_ball,
    unit_disk,
)
from .errors import (
    CapabilityError,
    CarlesonLabError,
    ConfigError,
    InputError,
    NumericError,
    ResourceError,
    TruncationError,
)
from .geometry import MinimalFrame, Polydisk, minimal_frame
from .kobayashi import ball_sandwich, bracket_tanh_distance
from .polynomials import HoloPolynomial, random_polynomial
from .measures import AtomicMeasure, DensityMeasure, atomic_measure, lebesgue_measure
from .bergman import KernelModel, berezin, kernel_model, moments, reproduce_check
from .carleson import CarlesonConfig, CarlesonReport, carleson_test, kobayashi_cover
from .sequences import SequenceSet, greedy_decompose, greedy_packing, sequence_measure

__all__ = [
    "__version__",
    "DomainSpec",
    "unit_disk",
    "unit_ball",
    "complex_ellipsoid",
    "load_spec",
    "save_spec",
    "MinimalFrame",
    "Polydisk",
    "minimal_frame",
    "ball_sandwich",
    "bracket_tanh_distance",
    "HoloPolynomial",
    "random_polynomial",
    "AtomicMeasure",
    "DensityMeasure",
    "atomic_measure",
    "lebesgue_measure",
    "KernelModel",
    "kernel_model",
    "moments",
    "berezin",
    "reproduce_check",
    "CarlesonConfig",
    "CarlesonReport",
    "carleson_test",
    "kobayashi_cover",
    "SequenceSet",
    "greedy_decompose",
    "greedy_packing",
    "sequence_measure",
    "CarlesonLabError",
    "InputError",
    "ConfigError",
    "NumericError",
    "TruncationError",
    "CapabilityError",
    "ResourceError",
]
