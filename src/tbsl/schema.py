"""Published JSON schema for CLI reports.

Every ``--json`` output of the command line validates against
:data:`REPORT_SCHEMA`.  Rational data is rendered as exact fraction
strings ("8/5", "-1/3", "2", "inf"); counts and integer invariants are
JSON integers, so every report round-trips losslessly.  An interval is the
text of a ``CircleInterval``, two endpoints in brackets such as ``[0,1)`` or
``(inf,inf)``, the form ``parse_interval`` reads.  Regions are sets of
finite multislopes, so a region's ``restrict_to_finite`` field is always
``true``; the schema accepts no other value.

Every object in a report is closed: it allows no field beyond those listed.
Names the library defines are read from the types that define them (the
verdicts, framings and Schubert relations from their enums, the census keys
from ``SignCensus._fields``, the digits of a fraction from ``exactq.DIGITS``);
the command list is literal, and a test checks it against the parser.
"""

from .exactq import DIGITS
from .foliation import Verdict
from .monodromy import SignCensus
from .regions import Framing
from .twobridge import SchubertRelation


def _closed(required, properties: dict, type_="object") -> dict:
    """An object with the fields ``properties`` and no others, of which ``required`` must be present."""
    return {"type": type_, "required": list(required), "properties": properties,
            "additionalProperties": False}


def _enum(enum) -> dict:
    return {"enum": [member.value for member in enum]}


def _pair(item: dict) -> dict:
    return {"type": "array", "items": item, "minItems": 2, "maxItems": 2}


_INT, _BOOL, _STR = {"type": "integer"}, {"type": "boolean"}, {"type": "string"}
_INTS = {"type": "array", "items": _INT}
_FRACTION = {"type": "string", "pattern": f"^(-?{DIGITS}(/{DIGITS})?|inf)$"}
_INTERVAL = {"type": "string", "pattern": r"^[\[(][^,]+,[^,]+[\])]$"}
_FRAMING = _enum(Framing)

_REGION = _closed(["framing", "restrict_to_finite", "rects"], {
    "framing": _FRAMING,
    "restrict_to_finite": {"const": True},
    "rects": {"type": "array", "items": _pair(_INTERVAL)},
})

#: The L-space and foliation regions of one framing.
_REGION_PAIR = _closed(["lspace", "foliation"], {"lspace": _REGION, "foliation": _REGION})

_CLASSIFICATION = _closed(["link", "p", "q", "family", "tag", "mirrored"], {
    "link": _STR,
    "p": _INT,
    "q": _INT,
    "family": _STR,
    "tag": _STR,
    "n": {"type": ["integer", "null"]},
    "mirrored": _BOOL,
    "fibered_expansion": {**_INTS, "type": ["array", "null"]},
    "linking_number": {"type": ["integer", "null"]},
    "monodromy": {"type": ["string", "null"]},
    "sign_census": _closed(SignCensus._fields, dict.fromkeys(SignCensus._fields, _INT),
                           type_=["object", "null"]),
})

_VERDICT_ENTRY = _closed(["slope", "verdict"], {
    "slope": _pair(_FRACTION),
    "verdict": _enum(Verdict),
    "witness_region": {"type": ["string", "null"]},
})

_CHECK_ENTRY = _closed(["name", "ok"], {"name": _STR, "ok": _BOOL})

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "tbsl report",
    **_closed(["command", "ok", "timing_ms"], {
        "command": {"enum": ["classify", "expand", "equal", "region", "verdict", "sweep",
                             "homology", "framing", "verify-ln", "verify-covers"]},
        "ok": _BOOL,
        "error": _STR,
        "input": {"type": "object"},
        "timing_ms": _INT,
        "classification": _CLASSIFICATION,
        "expansion": _closed(["value", "coefficients", "all_plus_minus_two"], {
            "value": _FRACTION,
            "coefficients": _INTS,
            "all_plus_minus_two": _BOOL,
        }),
        "equal": _closed(["oriented", "unoriented"], {
            "oriented": _enum(SchubertRelation),
            "unoriented": _BOOL,
        }),
        "regions": _closed(["canonical", "seifert"], {"canonical": _REGION_PAIR, "seifert": _REGION_PAIR}),
        "svg_path": _STR,
        "verdicts": {"type": "array", "items": _VERDICT_ENTRY},
        "homology": _closed(["presentation", "determinant", "order", "qhs"], {
            "presentation": {"type": "array", "items": _INTS},
            "determinant": _INT,
            "order": {"oneOf": [_INT, {"const": "infinite"}]},
            "qhs": _BOOL,
        }),
        "framing": _closed(["from", "to", "slopes"], {
            "from": _FRAMING,
            "to": _FRAMING,
            "slopes": {"type": "array", "items": _FRACTION},
        }),
        "checks": {"type": "array", "items": _CHECK_ENTRY},
    }),
}
