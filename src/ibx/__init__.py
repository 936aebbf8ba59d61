"""Iterated-bijection workbench.

Everything here treats a computation as a bijection to be iterated:
reversible circuits and their lifts from boolean circuits, compilers that
flatten pointwise questions and clocked iteration into a single bijection,
implicit path-graph walks, reversible block cellular automata with a 1D
replay of the 2D dynamics, piecewise linear bijections as a compilation
target, and a normal-coordinate solver that answers orbit questions about
integer interval exchanges in far fewer steps than iterating.

The package imports lazily (PEP 562): ``import ibx`` loads no submodule,
and each public name below loads its home module on first access, so a
command pays only for the layers it uses.
"""

import importlib

__version__ = "0.1.0"

# Each public name's home module.
_EXPORTS = {
    "kernel": (
        "Bijection", "BijectionCheck", "Bitstring",
        "WidthMismatchError", "builtin_bijections", "cat_map",
        "check_bijection_exhaustive", "identity", "increment", "iterate",
        "iterate_bijection", "iterate_map", "pack_fields", "unpack_fields",
    ),
    "circuits": (
        "ClassicalCircuit", "ClassicalGate", "LiftResult", "ReversibleCircuit",
        "ReversibleGate", "bennett_lift", "eval_classical", "eval_reversible",
        "exact_lift", "gate", "invert_circuit", "iterate_circuit", "negation_map",
        "parity", "reversible_to_classical",
    ),
    "reductions": (
        "OracleCircuit", "OracleGate", "Schedule", "compile_iteration_to_invertible",
        "compile_oracle_circuit", "eval_oracle_circuit", "inversion_by_iteration",
        "run_schedule",
    ),
    "graphs": (
        "CubicGraph", "ImplicitFamily", "LeafInstance", "LollipopState",
        "leaf_schedule", "leaf_to_bijection", "lollipop_family", "lollipop_instance",
        "second_hamiltonian", "solve_leaf_walk",
    ),
    "ca": (
        "DimReduxAutomaton", "MargolusGrid", "MargolusRule", "bbm_rule",
        "dim_redux_compile", "dim_redux_run", "dim_redux_verify", "margolus_step",
        "margolus_step_back", "margolus_step_helical", "margolus_step_back_helical",
        "simulate_bbm", "simulate_helical", "strobe_wrap", "toy_counter_strobe",
    ),
    "plb": (
        "Piece", "PiecewiseLinearBijection", "apply_plb",
        "apply_plb_inverse", "bit_permute", "circuit_to_plb", "compose_lift",
        "interval_exchange", "iterate_plb", "riffle", "validate_plb",
    ),
    "iet": (
        "IetSurface", "arc_of", "build_surface", "iet_orbit_solve", "three_gap_check",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
