"""Trust-aware adversary modeling and path selection for Tor-like networks.

The pipeline: an ontology of network-element types governs a "world" of
type instances (relays, ASes, IXPs, organizations, jurisdictions, virtual
links).  User beliefs -- structural edits plus trust statements -- are
applied to the world and translated into a Bayesian belief network of
binary compromise indicators, which is sampled to estimate the probability
that an adversary observes particular relays and links.  Those estimates
drive trust-aware guard/exit selection and greedy server placement.
"""

__version__ = "0.1.0"

from .ontology import Ontology, default_ontology, extend_ontology, validate_ontology
from .world import World, TypeInstance, RelationshipInstance, validate_world
from .beliefs import TrustScale, BeliefDocument, parse_belief_document, build_the_man
from .predicates import parse_predicate, eval_predicate
from .editor import EditedWorld, apply_structural, children_matching
from .bbn import (CompiledBbn, compile_bbn, compromise_probability, sample,
                  estimate_marginals, estimate_event, enumerate_exact)

# Grouped by module, in the order of the imports above.
__all__ = [
    "Ontology", "default_ontology", "extend_ontology", "validate_ontology",
    "World", "TypeInstance", "RelationshipInstance", "validate_world",
    "TrustScale", "BeliefDocument", "parse_belief_document", "build_the_man",
    "parse_predicate", "eval_predicate",
    "EditedWorld", "apply_structural", "children_matching",
    "CompiledBbn", "compile_bbn", "compromise_probability", "sample",
    "estimate_marginals", "estimate_event", "enumerate_exact",
]
