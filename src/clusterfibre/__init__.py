"""Cluster pictures and regular SNC special fibres of hyperelliptic curves
over p-adic fields with odd residue characteristic, by exact inductive-
valuation refinement."""

from .errors import InputError, InternalInconsistency
from .field import BaseField, KElem, KPoly
from .rationals import OO
from .valuation import MacLaneVal, AugStep
from .newton import (newton_polygon, graded_H, reduce_poly, residue_tower,
                     is_key, lift_key)
from .clusters import (build_cluster_tree, normalize_input, assign_centres,
                       cluster_chain, p0_flag, ClusterTree, ClusterNode)
from .invariants import all_records, compute_record, nu, genus_double_cover
from .fibre import (farey_chain, open_chain_bound, assemble, export,
                    fibre_graph, graphs_isomorphic, SpecialFibre)
from .cli import parse_poly, main

__version__ = "0.1.0"

__all__ = [
    "InputError", "InternalInconsistency",
    "BaseField", "KElem", "KPoly", "OO",
    "MacLaneVal", "AugStep",
    "newton_polygon", "graded_H", "reduce_poly", "residue_tower",
    "is_key", "lift_key",
    "build_cluster_tree", "normalize_input", "assign_centres",
    "cluster_chain", "p0_flag", "ClusterTree", "ClusterNode",
    "all_records", "compute_record", "nu", "genus_double_cover",
    "farey_chain", "open_chain_bound", "assemble", "export",
    "fibre_graph", "graphs_isomorphic", "SpecialFibre",
    "parse_poly", "main",
]
