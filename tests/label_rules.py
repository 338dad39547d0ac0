"""The three label rules checked over a whole skeleton.

Written apart from :func:`skelgrow.skeleton.label_rule_violation`, which
judges one attach at a time, so that tests can check each attach decision
against an independent whole-skeleton verdict.
"""

from skelgrow.labels import Label


def label_violations(skel) -> list[str]:
    """Every label-rule violation in the LabeledSkeleton ``skel``; empty
    when it keeps all three rules."""
    out = []
    for (parent, child), label in skel.edge_labels.items():
        pred = skel.parent_of(parent)
        if pred is not None:
            grand, plab = pred
            if plab.order > label.order:
                out.append(
                    f"label-progression: {(grand, parent)} {plab} -> "
                    f"({parent},{child}) {label}")
    # Parents in the order their first child edge was attached.
    for node in dict.fromkeys(parent for parent, _ in skel.edges()):
        pred = skel.parent_of(node)
        if pred is None:
            continue
        plab = pred[1]
        succ = skel.children_of(node)
        same = [c for c, lab in succ if lab is plab]
        if len(same) >= 2:
            out.append(f"label-linearity: node {node} label {plab}")
        if plab is Label.TRUNK:
            labs = [lab for _, lab in succ]
            non_trunk = [lab for lab in labs if lab is not Label.TRUNK]
            if non_trunk and any(lab is Label.TRUNK for lab in labs):
                out.append(f"trunk-support-split: node {node} mixed")
            if sum(lab is Label.SUPPORT for lab in labs) > 2:
                out.append(f"trunk-support-split: node {node} >2 supports")
    return out
