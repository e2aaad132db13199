"""Tree-pair elements of Thompson's group F, their unoriented links, exact
Kauffman brackets, and annular-strand-diagram conjugacy testing."""

from .bracket import StateLimitError, equivalent_up_to_units, kauffman_bracket
from .conway import ConwayCode, continued_fraction, two_bridge_diagram
from .families import (
    attach_a,
    conjugate,
    element_a,
    g_element,
    h_element,
    h_sequence,
    tree_T,
)
from .laurent import A, DELTA, ONE, ZERO, LaurentPolynomial
from .links import (
    LinkDiagram,
    SimplificationReport,
    component_count,
    direct_link,
    disjoint_union,
    medial_link,
    mirror_diagram,
    simplify,
)
from .pairs import (
    TreePair,
    Word,
    WordSyntaxError,
    equals,
    expand,
    from_word,
    identity,
    invert,
    is_positive,
    make_generator,
    multiply,
    random_element,
    reduce_pair,
    to_word,
)
from .strand import AnnularStrandDiagram, are_conjugate, canonical_code, reduce_annular
from .strand import component_count as annular_component_count
from .tait import TaitGraph, tait_graph
from .trees import BinaryTree, LEAF, right_comb, tree_from_bits

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
