"""Test helpers for comparing the pipeline with the degree-1 oracle: the
canonical form of a built cluster tree, and isomorphism of fibre dual graphs
by networkx."""

from fractions import Fraction

import networkx as nx

from clusterfibre.errors import InternalInconsistency


def tree_signature(node):
    """The canonical form of ``degree1.oracle_signature`` (size, radius,
    singletons, children...), computed from a built ClusterNode of degree 1."""
    if node.degree != 1:
        raise InternalInconsistency("degree-1 oracle given a cluster of higher degree")
    kids = sorted(tree_signature(c) for c in node.children)
    singles = len([l for l in node.leaves if l.degree == 1])
    if singles != len(node.leaves):
        raise InternalInconsistency("degree-1 oracle instance grew a big orbit")
    return (node.size, Fraction(node.radius), singles, tuple(kids))


def _labelled(g):
    """The FibreGraph g as a networkx multigraph with a label per node."""
    out = nx.MultiGraph()
    for i, label in enumerate(g.labels):
        out.add_node(i, label=label)
    out.add_edges_from(g.edges)
    return out


def isomorphic(g1, g2) -> bool:
    """Are the FibreGraphs g1 and g2 isomorphic as multigraphs, node labels
    (multiplicity, genus) and edge multiplicities kept?  By VF2++, which
    matches a chain of a thousand equal labels in a fraction of a second,
    where VF2 took seconds."""
    return nx.vf2pp_is_isomorphic(_labelled(g1), _labelled(g2), node_label="label")
