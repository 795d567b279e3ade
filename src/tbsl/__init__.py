"""Exact surgery-slope calculus for fibered two-bridge links.

Classifies two-bridge links from continued-fraction data and computes, for
the fibered hyperbolic ones, the exact set of Dehn-surgery multislopes
giving L-spaces and the exact set guaranteed coorientable taut foliations.
"""

from .exactq import (
    INFINITY,
    CircleInterval,
    EvenExpansion,
    Slope,
    as_rat,
    cf_eval,
    even_expand,
    parse_interval,
)
from .foliation import (
    LinkAnalysis,
    Verdict,
    analyse,
    foliation_region,
    lemma_regions,
    ln_taut_witness_strips,
    verdict,
)
from .lspace import lspace_region, rect_propagate, rr_propagate, verify_ln_chain
from .monodromy import MonodromyWord, SignCensus, sign_census, twist_word
from .regions import (
    BUILTIN_WEIGHT_FAMILIES,
    Framing,
    Region2,
    SlopeFamily,
    family_image,
)
from .surgery import (
    HomologyReport,
    SurgeryDiagram,
    drilled_longitude,
    framing_convert,
    is_qhs,
    presentation_matrix,
    rolfsen_fill,
)
from .twobridge import (
    LinkClass,
    LinkFamily,
    SchubertRelation,
    TwoBridgeLink,
    classify,
    detect_Ln,
    fibered_expansion,
    linking_number,
    ln_link,
    parse_link,
    schubert_oriented_equal,
    schubert_unoriented_equal,
)

__version__ = "0.1.0"
