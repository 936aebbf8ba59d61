"""Iterated-bijection workbench.

Everything here treats a computation as a bijection to be iterated:
reversible circuits and their lifts from boolean circuits, compilers that
flatten pointwise questions and clocked iteration into a single bijection,
implicit path-graph walks, reversible block cellular automata with a 1D
replay of the 2D dynamics, piecewise linear bijections as a compilation
target, and a normal-coordinate solver that answers orbit questions about
integer interval exchanges in far fewer steps than iterating.
"""

from .kernel import (
    Bijection,
    BijectionCheck,
    Bitstring,
    IterationProblem,
    WidthMismatchError,
    builtin_bijections,
    cat_map,
    check_bijection_exhaustive,
    identity,
    increment,
    iterate,
    iterate_bijection,
    iterate_map,
    pack_fields,
    unpack_fields,
)
from .circuits import (
    ClassicalCircuit,
    ClassicalGate,
    LiftResult,
    ReversibleCircuit,
    ReversibleGate,
    bennett_lift,
    eval_classical,
    eval_reversible,
    exact_lift,
    gate,
    invert_circuit,
    iterate_circuit,
    negation_map,
    parity,
    reversible_to_classical,
)
from .reductions import (
    OracleCircuit,
    OracleGate,
    Schedule,
    compile_iteration_to_invertible,
    compile_oracle_circuit,
    eval_oracle_circuit,
    inversion_by_iteration,
    run_schedule,
)
from .graphs import (
    CubicGraph,
    ImplicitFamily,
    LeafInstance,
    LollipopState,
    leaf_to_bijection,
    lollipop_family,
    lollipop_instance,
    second_hamiltonian,
    solve_leaf_walk,
)
from .ca import (
    DimReduxAutomaton,
    MargolusGrid,
    MargolusRule,
    bbm_rule,
    dim_redux_compile,
    dim_redux_verify,
    margolus_step,
    margolus_step_back,
    margolus_step_helical,
    margolus_step_back_helical,
    simulate_bbm,
    simulate_helical,
    strobe_wrap,
    toy_counter_strobe,
)
from .plb import (
    IntervalExchange,
    Piece,
    PiecewiseLinearBijection,
    apply_plb,
    apply_plb_inverse,
    bit_permute,
    circuit_to_plb,
    compose_lift,
    interval_exchange,
    iterate_plb,
    riffle,
    validate_plb,
)
from .iet import (
    IetSurface,
    arc_of,
    build_surface,
    iet_orbit_solve,
    three_gap_check,
    trace_step,
)

__version__ = "0.1.0"
