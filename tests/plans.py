"""The planner's public passes composed by hand.

``plan_view_tree`` builds the free-top tree exactly when the query has
free variables and the order keeps them on top, and it always adds the
existence projections a cyclic core needs. A test that wants the general
tree for a free-top order, or a plan without the projections, runs the
same passes here in the same order.
"""

from __future__ import annotations

from fivm.viewtree import (
    add_indicator_projections,
    build_view_tree,
    choose_materialization,
    compact_and_dedupe,
    fold_static_siblings,
    plan_delta_paths,
    plan_listing,
)


def plan_general_tree(query, order, updatable, projections=True):
    """The general tree of ``query`` over ``order``, planned as
    ``plan_view_tree`` plans it, with the existence projections only when
    ``projections``."""
    tree = build_view_tree(query, order)
    if projections:
        add_indicator_projections(tree)
    updatable = tuple(updatable)
    fold_static_siblings(tree, updatable)
    choose_materialization(tree, updatable)
    compact_and_dedupe(tree)
    plan_delta_paths(tree)
    plan_listing(tree)
    return tree
