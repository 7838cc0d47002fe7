"""Transfer-operator numerics for nonautonomously perturbed expanding maps."""

__version__ = "0.1.0"

from .densities import (EPS0, GridDensity, GridMismatchError,
                        l1_distance, l1_norm, osc_integral,
                        quasi_holder_seminorm)
from .maps import (MapFamily, MapInstance, circle_family, doubling_family,
                   family_by_name, instantiate, lsv_family, pm_family,
                   breakpoint_family, tent_family)
from .transfer import (AveragingLaw, NonConvergenceError, UlamOperator,
                       apply_sequence, averaged_operator, build_ulam,
                       fixed_density, lasota_yorke_fit, perturbation_probe)
from .cones import (ConeParams, HilbertDistanceReport, cone_image_check,
                    contraction_and_diameter, sample_cone_density,
                    theta_holder, theta_plus)
from .sequences import (EvolutionTrace, ParameterSequence, adversarial_demo,
                        doubling_gap_schedule, evolve_density, gen_sequence,
                        post_transient_worst, stability_experiment)
from .birkhoff import (CovarianceTable, Observable, band_pass_check,
                       birkhoff_averages, covariance_decay, lln_summability,
                       lp_distance, observable, orbit_points,
                       quasi_birkhoff_band)
from .network import (AdjacencySchedule, NetworkSystem, gen_schedule,
                      simulate_ensemble, step_network)
