"""The states of value 0 and of value 1 in the least solution of a
probabilistic polynomial system, decided exactly and without iteration.

The system is x = P(x): per state s, P_s is a sum of terms num/den *
x_m1 * ... * x_mk with positive coefficients, given in the evaluator's
row form (den, {m: num}), the monomial m a sorted tuple of state ids
(``evaluator._poly``).  It is the mu extent of a branching model, or a
mu binder's body in its variable.  Following Etessami & Yannakakis
(Recursive Markov chains, stochastic grammars, and monotone systems of
nonlinear equations, JACM 2009, section 8):

* value 0: the states that are not productive (``_graph.productive``).
  Every term of such a state has a variable of value 0, so a Kleene
  chain keeps it at 0 exactly;
* value 1, over the strongly connected components of the dependency
  graph (s depends on the variables of its terms), those it reaches
  first: a component has value 1 when each of its states is productive
  and has P_s(1) = 1, each state it depends on outside it has value 1,
  and the spectral radius of the Jacobian P'(1) on it is at most 1.
  That test is exact on rationals: I - P'(1) is then an M-matrix, which
  ``_linear.m_matrix`` decides from the signs of its pivots.

That elimination can fill in to a dense matrix of large integers: on a
random full-mass branching model with one large component it took
0.4 s at 200 states and 71 s at 600 (Python 3.11, one core of a shared
2-vCPU host), where the Kleene chain took 0.3 s at 600.  So it runs only
on components of at most ``_ELIMINATED`` states.  Before it, and on a
larger component instead of it, the radius is bounded by the largest
row sum of P'(1) (the mean number of offspring): a component where no
row sum exceeds 1 passes.  A larger component that fails that bound is
left undecided, with every state that depends on it.

Every other state lies strictly between 0 and 1, unless it is left
undecided.  The value-1 states
depend only on value-1 states and have P_s(1) = 1, so their indicator
is a pre-fixpoint below the least solution: a Kleene chain started there
stays monotone and has the same limit.  The evaluator imports this
module on first use.
"""

from __future__ import annotations

from ._graph import productive, sccs
from ._linear import m_matrix

_ELIMINATED = 100  # the most states of a component `m_matrix` is run on


def one_states(rows: list) -> list[bool]:
    """Per state, whether its value in the least solution of the system
    in `rows` is 1 (see the module docstring)."""
    live = productive([nums for _, nums in rows])
    succ = [{j for m in nums for j in m} for _, nums in rows]
    one = [False] * len(rows)
    for comp in sccs(succ):  # each after every component it reaches
        inside = set(comp)
        if all(live[s] and all(one[t] or t in inside for t in succ[s]) for s in comp) \
                and _subcritical(rows, comp, inside):
            for s in comp:
                one[s] = True
    return one


def _subcritical(rows: list, comp: list, inside: set) -> bool:
    """Whether P_s(1) = 1 on `comp` and the spectral radius of P'(1) on
    it is at most 1: whether each row of I - P'(1), times the row's den,
    sums to at least 0, or else that matrix is an M-matrix (only tested
    up to `_ELIMINATED` states).  A term num/den * x_m adds num/den to
    the derivative by x_t once per occurrence of t in m."""
    system = {}
    for s in comp:
        den, nums = rows[s]
        if sum(nums.values()) != den:
            return False
        row = {s: den}
        for m, v in nums.items():
            for t in m:
                if t in inside:
                    row[t] = row.get(t, 0) - v
        system[s] = row
    if all(sum(row.values()) >= 0 for row in system.values()):
        return True
    return len(comp) <= _ELIMINATED and m_matrix(system)
