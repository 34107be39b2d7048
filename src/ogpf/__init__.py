"""Two-stage solver toolkit for multi-area optimal gas-power flow."""

from .convexsolve import Solution, solve_consensus, solve_convex
from .errors import (AllInfeasible, CapExceeded, CertificationBug,
                     ConfigError, MissingBounds, ModelError, OgpfError,
                     OutOfRange, ParseError, SolverFailure, ValidationError)
from .mipbuild import (QuadBlock, StandardModel, VarIndex, area_views,
                       build_model, check_point, config_model, dump_model,
                       fit_all_curves, hull_model, relax, substitute_columns)
from .netmodel import (Bus, GasNode, GasSource, Generator, NetworkInstance,
                       Pipeline, PowerLine, classify_edges, load_instance,
                       save_instance, scale_demands)
from .oracle import OracleResult, enumerate_solve
from .pwa import (LinearRows, PwaConfig, PwaCurve, PwaSegment, emit_config,
                  emit_hull, emit_mld, fit_pwa, max_region_error)
from .recovery import (Certificate, PressureLp, RecoveryResult,
                       assemble_and_certify, build_pressure_lp,
                       recover_binaries, solve_pressure_lp,
                       weymouth_deviation)
from .twostage import TwoStageResult, solve_two_stage

__version__ = "0.1.0"


def instance_path(name: str):
    """Filesystem path of a bundled example instance (e.g. ``small2area``)."""
    from importlib.resources import files

    path = files("ogpf") / "instances" / f"{name}.json"
    return str(path)
