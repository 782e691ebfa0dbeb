"""Exact arithmetic differential operators of level m in characteristic p.

The ring D^(m) on affine r-space with its divided-power basis, the
p^m-curvature, Frobenius liftings mod p^2 and the induced splitting
maps, and the local correspondence between quasi-nilpotent D^(m)-modules
and Higgs modules.  Everything is exact (mod p or mod p^2); the `suites`
module re-verifies the underlying identities end to end.
"""

from .context import Context
from .poly import Poly
from .scalars import (angle, angle_mi_mod, binom_mod_p2, box,
                      box_le, brace, brace_mi_mod, degree_box,
                      dp_power_factor, lucas_closed_form)
from .dpalg import DPElem, gamma_dp, pair_op, taylor
from .diffops import (DiffOp, frob_descend, frob_raise, kaneda_matrix,
                      quotient_matrix, theta, theta_power, zo_decompose)
from .frobenius import (FrobData, LiftingZ, NotALifting, NotStrong, bullet,
                        bullet_matrix, glue_derivation, glue_endo,
                        lifting_from_json, phi, phi_basis, phi_center_inv,
                        phi_inv_basis, phi_tilde, phi_tilde_basis,
                        random_strong_lifting, standard_lifting)
from .simpson import (DModule, HiggsModule, InvariantSpace, MalformedInput,
                      NotQuasiNilpotent, central_apply, corpus, curvature_of,
                      invariant_rank, pullback, random_higgs, recovered_higgs,
                      round_trip, solve_invariants, worked_example)
from .expr import ExprError, parse, render_matrix, render_op, render_poly

__version__ = "0.1.0"

_SUITE_NAMES = ("SUITES", "SuiteCase", "SuiteReport", "run_suite")


def __getattr__(name):
    """The names of `suites`, imported on first use (PEP 562): only
    `dopm verify` runs suites, so `import dopm` leaves them unloaded."""
    if name in _SUITE_NAMES:
        from . import suites
        return getattr(suites, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Context", "Poly", "DPElem", "DiffOp",
    "angle", "angle_mi_mod", "binom_mod_p2", "box", "box_le",
    "brace", "brace_mi_mod", "degree_box", "dp_power_factor",
    "lucas_closed_form",
    "gamma_dp", "pair_op", "taylor",
    "frob_descend", "frob_raise", "kaneda_matrix", "quotient_matrix",
    "theta", "theta_power", "zo_decompose",
    "FrobData", "LiftingZ", "NotALifting", "NotStrong", "bullet",
    "bullet_matrix", "glue_derivation", "glue_endo", "lifting_from_json",
    "phi", "phi_basis", "phi_center_inv", "phi_inv_basis", "phi_tilde",
    "phi_tilde_basis", "random_strong_lifting", "standard_lifting",
    "DModule", "HiggsModule", "InvariantSpace", "MalformedInput",
    "NotQuasiNilpotent",
    "central_apply", "corpus", "curvature_of",
    "invariant_rank", "pullback", "random_higgs", "recovered_higgs",
    "round_trip", "solve_invariants", "worked_example",
    "ExprError", "parse", "render_matrix", "render_op", "render_poly",
    "SUITES", "SuiteCase", "SuiteReport", "run_suite",
]
