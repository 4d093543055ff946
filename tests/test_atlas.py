"""Every graph on 1 to 7 vertices against brute force, the bounds and the
constructions.

``tests/data/atlas7.g6`` holds the 1 252 graphs of the graph atlas on 1 to
7 vertices, every such graph up to isomorphism, one graph6 line each;
``tools/write_atlas.py`` writes it from networkx. The test reads only the
file, so networkx is not needed to run it.
"""

import functools
import hashlib
from pathlib import Path

from helpers import adjacency, brute_set_number, read_graph6
from multidom import DominationSpec, bounds_for_spec, exact_function_number, exact_set_number
from multidom import tune_c, verify_function, verify_set
from multidom.construct import _construct
from test_bounds import _threshold_size

ATLAS = Path(__file__).resolve().parent / "data" / "atlas7.g6"
ATLAS_SHA256 = "ad68465d32eb7679a1ed8b0aa7a7f1da366da9b1ef8566b04664c504e8876255"
GRAPHS_PER_SIZE = [1, 2, 4, 11, 34, 156, 1044]  # OEIS A000088 for n = 1..7

SET_SPECS = (DominationSpec.classical(), DominationSpec.k_dominating(2),
             DominationSpec.k_tuple(2), DominationSpec.k_tuple(3), DominationSpec.total_k(1),
             DominationSpec.total_k(2), DominationSpec.parametric(1, 3))
FUNCTION_SPECS = (DominationSpec.brace_k(2),)


def _rs_specs(n: int) -> tuple[DominationSpec, DominationSpec]:
    """rs and total_rs with caps 1 and 2 and demands 1 to 3 by vertex id;
    some of them are infeasible on graphs of low degree."""
    caps = [1 + v % 2 for v in range(n)]
    demands = [1 + v % 3 for v in range(n)]
    return DominationSpec.rs(caps, demands), DominationSpec.total_rs(caps, demands)


@functools.cache
def _tuned_c(k: int, delta: int) -> float | None:
    try:
        return tune_c(k, delta)
    except ValueError:  # no feasible c > 1 at this degree
        return None


def _caps_suffice(g, spec) -> bool:
    """Whether the all-caps function meets every demand, summed over plain
    adjacency lists: a witness exists iff it does."""
    caps, demands = (v.tolist() for v in spec.vectors(g.n))
    closed = not spec.uses_open_neighborhoods
    return all(sum(caps[u] for u in row) + closed * caps[v] >= demands[v]
               for v, row in enumerate(adjacency(g)))


def test_the_atlas_on_every_variant():
    """On each graph and spec: feasibility agrees with brute-force existence;
    the set search equals brute force; every applicable bound, at c in
    {None, 0.5, 1.5, 3} and the tuned c, is at least the exact value; and
    the construction verifies and weighs at least it."""
    text = ATLAS.read_bytes()
    assert hashlib.sha256(text).hexdigest() == ATLAS_SHA256
    graphs = [read_graph6(line) for line in text.splitlines()]
    assert [sum(g.n == n for g in graphs) for n in range(1, 8)] == GRAPHS_PER_SIZE
    cases, compared, violations = 0, 0, []
    for index, g in enumerate(graphs):
        for spec in SET_SPECS + FUNCTION_SPECS + _rs_specs(g.n):
            if spec.is_set_variant:
                brute = brute_set_number(g, *spec.requirements())
                exists = brute is not None
            else:
                exists = _caps_suffice(g, spec)
            assert spec.feasibility(g)[0] == exists, (index, spec.label())
            if not exists:
                continue
            cases += 1
            if spec.is_set_variant:
                gamma = exact_set_number(g, spec).value
                assert gamma == brute, (index, spec.label())
            else:
                gamma = exact_function_number(g, spec).value
            tuned = _tuned_c(_threshold_size(spec, g.n), g.min_degree)
            for c in [None, 0.5, 1.5, 3.0] + [tuned] * (tuned is not None):
                for rep in bounds_for_spec(spec, g.min_degree, g.n, c=c):
                    if rep.applicable and rep.absolute is not None:
                        compared += 1
                        if gamma > rep.absolute + 1e-9:
                            violations.append((index, spec.label(), c, rep.name))
            result = _construct(g, spec, index, 1, False)
            verify = verify_set if spec.is_set_variant else verify_function
            assert verify(g, spec, result.witness).valid, (index, spec.label())
            assert result.weight >= gamma, (index, spec.label())
    assert violations == []
    assert cases == 9776 and compared > 0
