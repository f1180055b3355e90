"""Each instance's equational theory, decided in the free model.

An operation term over free variables evaluates at fuel 0, where free
variables are inert symbols, to its element of the free algebra
T({x, y, ...}).  Two such terms are equal in the instance's theory
exactly when those values are equal, so each row below is decided
exactly, with no sampling: ``union`` is a semilattice, fair ``choice``
a midpoint algebra (Escardó and Simpson, 2001), ``state`` satisfies the
read/write equations of Plotkin and Power (2002) within a location and
across two, and ``print`` does not commute.

These rows cannot see which index ``read``'s generic effect returns at
which store.  ``join`` pairs the arguments with the returned indices in
first-occurrence order, not by their value, so swapping the two labels
never reaches ``op_apply``; the ``returns`` and effect checks of
``tests/test_monads.py::TestGenericEffects`` are what see them.
"""

import pytest

import effectdiagrams as ed

STATE1 = ed.state_kind(["l"])
STATE2 = ed.state_kind(["l0", "l1"])
OUTPUT = ed.output_kind("ab")

# (kind, lhs, rhs, whether lhs = rhs holds in the theory)
THEORY = [
    pytest.param(ed.POWERSET, "union(union(x, y), z)",
                 "union(x, union(y, z))", True, id="union-associative"),
    pytest.param(ed.POWERSET, "union(x, y)", "union(y, x)", True,
                 id="union-commutative"),
    pytest.param(ed.POWERSET, "union(x, x)", "x", True,
                 id="union-idempotent"),
    pytest.param(ed.DIST, "choice(x, y)", "choice(y, x)", True,
                 id="choice-commutative"),
    pytest.param(ed.DIST, "choice(x, x)", "x", True,
                 id="choice-idempotent"),
    pytest.param(ed.DIST, "choice(choice(w, x), choice(y, z))",
                 "choice(choice(w, y), choice(x, z))", True,
                 id="choice-medial"),
    pytest.param(ed.DIST, "choice(choice(x, y), z)",
                 "choice(x, choice(y, z))", False,
                 id="choice-not-associative"),
    pytest.param(STATE1, "read[l](read[l](w, x), read[l](y, z))",
                 "read[l](w, z)", True, id="state-read-read"),
    pytest.param(STATE1, "write[l,0](read[l](x, y))", "write[l,0](x)", True,
                 id="state-write-0-then-read"),
    pytest.param(STATE1, "write[l,1](read[l](x, y))", "write[l,1](y)", True,
                 id="state-write-1-then-read"),
    pytest.param(STATE1, "read[l](write[l,0](x), write[l,1](x))", "x", True,
                 id="state-write-back-what-was-read"),
    pytest.param(STATE1, "write[l,0](write[l,1](x))", "write[l,1](x)", True,
                 id="state-write-write"),
    pytest.param(STATE2, "read[l0](read[l1](w, x), read[l1](y, z))",
                 "read[l1](read[l0](w, y), read[l0](x, z))", True,
                 id="state-reads-commute"),
    pytest.param(STATE2, "write[l0,1](write[l1,0](x))",
                 "write[l1,0](write[l0,1](x))", True,
                 id="state-writes-commute"),
    pytest.param(STATE2, "write[l0,1](read[l1](x, y))",
                 "read[l1](write[l0,1](x), write[l0,1](y))", True,
                 id="state-read-across-write"),
    pytest.param(OUTPUT, "print[a](print[b](x))", "print[b](print[a](x))",
                 False, id="print-does-not-commute"),
]


def free_value(kind, src):
    """The element of the free algebra that ``src`` denotes."""
    return ed.evaluate(ed.parse(src, kind=kind), kind, 0)


@pytest.mark.parametrize("kind, lhs, rhs, holds", THEORY)
def test_equation(kind, lhs, rhs, holds):
    assert (free_value(kind, lhs) == free_value(kind, rhs)) == holds
