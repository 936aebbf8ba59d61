"""Description-scaling contracts: exact counts of what each reduction
calls, across widths and counts whose state spaces run from 4 to 2**4096
states.  A count that grew with the state space fails here at once, and
counts are exact, so host speed cannot move them.  Each bound was fixed
from a probe of the code it judges, with its margin stated beside it.
"""

from dataclasses import replace

import pytest

from ibx.kernel import Bitstring, add_const, iterate_bijection, pack_fields, rotate_left
from ibx.reductions import (
    OracleCircuit,
    OracleGate,
    compile_iteration_to_invertible,
    compile_oracle_circuit,
    eval_oracle_circuit,
    inversion_by_iteration,
    run_schedule,
)

from conftest import logged_run

N = 10**20


def _counted(f):
    """f with its forward, backward and leap each appending their name to
    the returned list when called."""
    calls = []

    def counting(fn, name):
        def call(*args):
            calls.append(name)
            return fn(*args)

        return fn and call

    return replace(f, forward=counting(f.forward, "forward"), backward=counting(f.backward, "backward"),
                   leap=counting(f.leap, "leap")), calls


# Probe: a run of the whole schedule called f once (its leap), and runs of
# total - 5, total + 5 back, and random counts either way called it at most
# 6 times (the whole cycles, the stash, and the sweep's inverse lookups and
# firing tick); the bound allows 2 more.
CLOCK_RUN_CALLS = 8


@pytest.mark.parametrize("k", [2, 8, 64, 4096])
@pytest.mark.parametrize("make", [lambda k: add_const(k, 37), rotate_left], ids=["add", "rotl"])
def test_clock_calls_f_a_fixed_number_of_times_at_any_width(make, k, rng):
    f, calls = _counted(make(k))
    x = Bitstring(rng.getrandbits(k), k)
    s = compile_iteration_to_invertible(f, N, x)
    assert run_schedule(s) == iterate_bijection(make(k), N, x)
    assert calls == ["leap"]
    total = s.total_iterations
    for steps in (total - 5, -(total + 5), rng.randrange(total), -rng.randrange(total)):
        calls.clear()
        iterate_bijection(s.g, steps, s.start)
        assert len(calls) <= CLOCK_RUN_CALLS, (k, steps, calls)


@pytest.mark.parametrize("k", [8, 64, 4096])
def test_sweep_calls_f_once_at_any_width(k, rng):
    # probe: exactly 1 call (the adding tick's f(x)); no margin
    f, calls = _counted(add_const(k, 37))
    x = Bitstring(rng.getrandbits(k), k)
    assert run_schedule(inversion_by_iteration(f, x)).value == (x.value + 37) % (1 << k)
    assert calls == ["forward"]


@pytest.mark.parametrize("gates", [1, 2, 3, 5])
def test_oracle_clock_is_three_moves_a_gate_at_a_huge_count(gates):
    # probe: 4, 7, 10 and 16 moves for 1, 2, 3 and 5 chained gates, each
    # reading the count 10**20: per gate its copy tick, active run and idle
    # run, and one move for the spare slot; no margin
    w, cbits = 8, N.bit_length()
    count, s_wires, fresh, chain = tuple(range(cbits)), tuple(range(cbits, cbits + w)), cbits + w, []
    for _ in range(gates):
        t = tuple(range(fresh, fresh + w))
        chain.append(OracleGate(count, s_wires, t))
        s_wires, fresh = t, fresh + w
    oc = OracleCircuit(cbits + w, tuple(chain), s_wires)
    f = add_const(w, 37)
    x = Bitstring(pack_fields([(N, cbits), (5, w)]), cbits + w)
    s = compile_oracle_circuit(oc, f, x)
    final, moves = logged_run(s.g, s.total_iterations, s.start)
    assert s.extract(final) == eval_oracle_circuit(oc, f, x)
    assert len(moves) == 3 * gates + 1
