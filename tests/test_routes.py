"""The paper's equivalence as one property: every route the package has to
c^n(x), for a reversible circuit c, gives the same answer."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from ibx.circuits import (
    exact_lift,
    invert_circuit,
    iterate_circuit,
    permutation_of,
    reversible_to_classical,
)
from ibx.cli import _one_oracle_gate
from ibx.kernel import Bijection, Bitstring, from_permutation
from ibx.plb import circuit_to_plb, iterate_plb
from ibx.reductions import compile_iteration_to_invertible, run_schedule

from conftest import random_reversible_circuit


def return_time(c, x):
    y, steps = c.eval_int(x), 1
    while y != x:
        y, steps = c.eval_int(y), steps + 1
    return steps


@settings(max_examples=40, deadline=None)
@given(k=st.integers(2, 6), seed=st.integers(0, 2**32), x=st.integers(0, 63))
def test_five_routes_to_a_circuit_power_agree(k, seed, x):
    c = random_reversible_circuit(random.Random(seed), k, 10)
    x = Bitstring(x % (1 << k), k)
    length = return_time(c, x.value)
    t, stages = circuit_to_plb(c)
    lift = exact_lift(reversible_to_classical(c), reversible_to_classical(invert_circuit(c)))
    forward_only = Bijection(k, from_permutation(permutation_of(c), k).forward, None, "forward-only")
    for m in (0, 1, length, length + 1, 10**20 + 7):
        for n in (m, -m):
            want = iterate_circuit(c, n, x)
            assert iterate_plb(t, n * stages, x.value) == want.value, n
            assert lift.extract(iterate_circuit(lift.circuit, n, lift.embed(x))) == want, n
            if n < 0:  # the clocked routes count forward only
                continue
            for f in (c.as_bijection(), forward_only):
                assert run_schedule(compile_iteration_to_invertible(f, n, x)) == want, (f.label, n)
                schedule, direct = _one_oracle_gate(f, n, x)
                assert run_schedule(schedule) == direct == want, (f.label, n)
