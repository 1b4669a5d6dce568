"""Isomorphism of fibre dual graphs for tests, by networkx."""

import networkx as nx


def _labelled(g):
    """The FibreGraph g as a networkx multigraph with a label per node."""
    out = nx.MultiGraph()
    for i, label in enumerate(g.labels):
        out.add_node(i, label=label)
    out.add_edges_from(g.edges)
    return out


def isomorphic(g1, g2) -> bool:
    """Are the FibreGraphs g1 and g2 isomorphic as multigraphs, node labels
    (multiplicity, genus) and edge multiplicities kept?"""
    return nx.is_isomorphic(_labelled(g1), _labelled(g2),
                            node_match=lambda a, b: a["label"] == b["label"])
