"""Sampled moving horizon estimation for nonlinear continuous-time systems,
with grid-verified detectability certificates and numerical error-bound
audits."""

from . import errors
from .sysmodel import (PiecewiseSignal, SystemModel, as_box, batch_reactor, box_clip,
                       box_contains, get_model, load_model, model_from_dict)
from .integrate import Trajectory, integrate, output_along, rk4_step, rk4_step_with_jacobians
from .certify import (DetectabilityCertificate, FixedQR, GridSpec, SdpOptions,
                      VerificationReport, contraction_rate, geneig_max, lmi_matrix,
                      load_certificate, min_horizon, save_certificate, synthesize_certificate,
                      verify_certificate)
from .mhe import (Equidistant, EstimationRun, EventTriggered, Explicit, MheConfig,
                  MheSolution, SamplingSet, discount_weights, make_sampler, run_mhe,
                  solve_mhe, truth_candidate_cost)
from .analysis import (BoundReport, SupBoundConstants, audit_run, prop3_bound,
                       sup_bound_constants, theorem1_bound)

__version__ = "0.1.0"

__all__ = [
    "errors", "PiecewiseSignal", "SystemModel", "as_box", "batch_reactor",
    "box_clip", "box_contains",
    "get_model", "load_model", "model_from_dict", "Trajectory",
    "integrate", "output_along", "rk4_step", "rk4_step_with_jacobians",
    "DetectabilityCertificate", "FixedQR", "GridSpec", "SdpOptions",
    "VerificationReport", "contraction_rate", "geneig_max", "lmi_matrix",
    "load_certificate", "min_horizon", "save_certificate",
    "synthesize_certificate", "verify_certificate", "Equidistant", "EstimationRun",
    "EventTriggered", "Explicit", "MheConfig", "MheSolution", "SamplingSet",
    "discount_weights", "make_sampler", "run_mhe",
    "solve_mhe", "truth_candidate_cost", "BoundReport",
    "SupBoundConstants", "audit_run", "prop3_bound", "sup_bound_constants",
    "theorem1_bound", "__version__",
]
