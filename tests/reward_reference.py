"""The search's per-edge reward, written out from the geometry formulas.

``SearchContext.reward`` computes it from cached per-edge tables; the tests
check those against this.
"""

from skelgrow.geometry import bend_penalty, edge_score, grow_penalty


def turn_penalty(e_s, e_p, label_s, label_p, cfg) -> float:
    """Penalty for bending between same-label adjacent edges."""
    if label_s is not label_p:
        return 0.0
    return bend_penalty(e_s, e_p, cfg)


def reward(e, length, conf, label, pred_vec, pred_label, cfg) -> float:
    """Edge score minus turn and growth penalties.

    ``pred_vec``/``pred_label`` are None for the first edge of a path.
    """
    total = edge_score(length, conf, cfg.alpha_conf)
    if pred_vec is not None:
        total -= turn_penalty(e, pred_vec, label, pred_label, cfg)
    total -= grow_penalty(e, label, cfg)
    return total
