"""Transforms of free counterparts of classical infinitely divisible laws.

The package evaluates Voiculescu transforms V(it) on the positive
imaginary axis for laws given by a finite Levy triple, together with the
random-integral images of those laws: the shrink-refined classes, the
power-time-change classes, the iterated selfdecomposable classes and the
fully scale-invariant class.  Everything is pure Python on top of the
standard library; quadrature oracles cross-check every closed form.
"""

from .errors import (
    ConvergenceError,
    DomainError,
    FreeTransformError,
    InvalidInput,
    MaxSubdivisionError,
    NonFiniteError,
    StepError,
)
from .kernels import (
    KernelFamily,
    PickRepresentation,
    const_c,
    const_c_quad,
    const_d,
    const_d_quad,
    custom_density,
    custom_step,
    kernel_g,
    kernel_g_quad,
    kernel_quad_grid,
    lclass,
    pick_eval,
    pick_representation,
    sself,
    ubeta,
)
from .measures import (
    FiniteMeasure,
    LevyTriple,
    finite_measure_to_triple,
    scale_triple,
    triple_to_finite_measure,
)
from .operators import (
    TransformEvaluator,
    derivative_t,
    filtration_limit_check,
    lower_selfdec_class,
    lower_shrink_class,
)
from .quadrature import (
    IntegrationResult,
    integrate_finite,
    integrate_semi_infinite,
    laplace_transform,
)
from .specfun import (
    euler_gamma,
    gamma_fn,
    lerch_phi,
    polylog,
)
from .transforms import (
    LInfSpec,
    add_transforms,
    cauchy_pick_integral,
    exp_map_convolution_check,
    linf_integrand,
    logphi,
    random_integral_transform,
    scale_transform,
    transform_lclass,
    transform_linf,
    transform_sself,
    transform_ubeta,
    voiculescu_id,
    voiculescu_via_laplace,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DomainError",
    "FiniteMeasure",
    "FreeTransformError",
    "IntegrationResult",
    "InvalidInput",
    "KernelFamily",
    "LInfSpec",
    "LevyTriple",
    "MaxSubdivisionError",
    "NonFiniteError",
    "PickRepresentation",
    "StepError",
    "TransformEvaluator",
    "add_transforms",
    "cauchy_pick_integral",
    "const_c",
    "const_c_quad",
    "const_d",
    "const_d_quad",
    "custom_density",
    "custom_step",
    "derivative_t",
    "euler_gamma",
    "exp_map_convolution_check",
    "filtration_limit_check",
    "finite_measure_to_triple",
    "gamma_fn",
    "integrate_finite",
    "integrate_semi_infinite",
    "kernel_g",
    "kernel_g_quad",
    "kernel_quad_grid",
    "laplace_transform",
    "lclass",
    "lerch_phi",
    "linf_integrand",
    "logphi",
    "lower_selfdec_class",
    "lower_shrink_class",
    "pick_eval",
    "pick_representation",
    "polylog",
    "random_integral_transform",
    "scale_transform",
    "scale_triple",
    "sself",
    "transform_lclass",
    "transform_linf",
    "transform_sself",
    "transform_ubeta",
    "triple_to_finite_measure",
    "ubeta",
    "voiculescu_id",
    "voiculescu_via_laplace",
]
