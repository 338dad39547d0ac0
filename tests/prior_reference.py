"""The path prior's costs by exhaustive search.

``PathPrior`` computes them with Dijkstra over the directed line graph;
the tests check it against this on graphs small enough to enumerate.
"""

import math


def brute_force_costs(ctx, tip):
    """Exhaustive minimum costs to the tip over every directed edge
    sequence without repeated directed edges (trails).  The cost of a
    sequence is the sum of each edge's confidence-weighted length plus the
    turn penalty at every interior node."""
    states = sorted(ctx.len_noconf)
    out_states = {}
    for (u, v) in states:
        out_states.setdefault(u, []).append((u, v))
    full = {}
    for start in states:
        minimum = math.inf
        stack = [(start, frozenset({start}), 0.0)]
        while stack:
            state, used, cost = stack.pop()
            if state[1] == tip:
                minimum = min(minimum, cost + ctx.len_noconf[state])
                continue
            for nxt in out_states.get(state[1], ()):
                if nxt in used:
                    continue
                step = (ctx.len_noconf[state]
                        + ctx.turn_pen_none(state[0], state[1], nxt[1]))
                stack.append((nxt, used | {nxt}, cost + step))
        if math.isfinite(minimum):
            full[start] = minimum
    return full
