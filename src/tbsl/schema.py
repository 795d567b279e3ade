"""Published JSON schema for CLI reports.

Every ``--json`` output of the command line validates against
:data:`REPORT_SCHEMA`.  Rational data is rendered as exact fraction
strings ("8/5", "-1/3", "2", "inf"); counts and integer invariants are
JSON integers, so every report round-trips losslessly.  An interval is the
text of a ``CircleInterval``, two endpoints in brackets such as ``[0,1)`` or
``(inf,inf)``, the form ``parse_interval`` reads.  Regions are sets of
finite multislopes, so a region's ``restrict_to_finite`` field is always
``true``; the schema accepts no other value.
"""

_FRACTION = {"type": "string", "pattern": r"^(-?\d+(/\d+)?|inf)$"}
_INTERVAL = {"type": "string", "pattern": r"^[\[(][^,]+,[^,]+[\])]$"}

_REGION = {
    "type": "object",
    "required": ["framing", "restrict_to_finite", "rects"],
    "properties": {
        "framing": {"enum": ["seifert", "canonical"]},
        "restrict_to_finite": {"const": True},
        "rects": {
            "type": "array",
            "items": {
                "type": "array",
                "items": _INTERVAL,
                "minItems": 2,
                "maxItems": 2,
            },
        },
    },
    "additionalProperties": False,
}

#: The L-space and foliation regions of one framing.
_REGION_PAIR = {
    "type": "object",
    "required": ["lspace", "foliation"],
    "properties": {"lspace": _REGION, "foliation": _REGION},
    "additionalProperties": False,
}

_CLASSIFICATION = {
    "type": "object",
    "required": ["link", "p", "q", "family", "tag", "mirrored"],
    "properties": {
        "link": {"type": "string"},
        "p": {"type": "integer"},
        "q": {"type": "integer"},
        "family": {"type": "string"},
        "tag": {"type": "string"},
        "n": {"type": ["integer", "null"]},
        "mirrored": {"type": "boolean"},
        "fibered_expansion": {
            "type": ["array", "null"],
            "items": {"type": "integer"},
        },
        "linking_number": {"type": ["integer", "null"]},
        "monodromy": {"type": ["string", "null"]},
        "sign_census": {
            "type": ["object", "null"],
            "required": ["pos_rivers", "neg_rivers", "pos_bridges", "neg_bridges"],
            "properties": {
                "pos_rivers": {"type": "integer"},
                "neg_rivers": {"type": "integer"},
                "pos_bridges": {"type": "integer"},
                "neg_bridges": {"type": "integer"},
            },
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}

_VERDICT_ENTRY = {
    "type": "object",
    "required": ["slope", "verdict"],
    "properties": {
        "slope": {"type": "array", "items": _FRACTION, "minItems": 2, "maxItems": 2},
        "verdict": {
            "enum": [
                "NotQHS_TautByBetti",
                "LSpace",
                "NLSWithTautFoliation",
                "InfinityFilling",
            ]
        },
        "witness_region": {"type": ["string", "null"]},
    },
    "additionalProperties": False,
}

_CHECK_ENTRY = {
    "type": "object",
    "required": ["name", "ok"],
    "properties": {"name": {"type": "string"}, "ok": {"type": "boolean"}},
    "additionalProperties": False,
}

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "tbsl report",
    "type": "object",
    "required": ["command", "ok", "timing_ms"],
    "properties": {
        "command": {
            "enum": [
                "classify",
                "expand",
                "equal",
                "region",
                "verdict",
                "sweep",
                "homology",
                "framing",
                "verify-ln",
                "verify-covers",
            ]
        },
        "ok": {"type": "boolean"},
        "error": {"type": "string"},
        "input": {"type": "object"},
        "timing_ms": {"type": "integer"},
        "classification": _CLASSIFICATION,
        "expansion": {
            "type": "object",
            "required": ["value", "coefficients", "all_plus_minus_two"],
            "properties": {
                "value": _FRACTION,
                "coefficients": {"type": "array", "items": {"type": "integer"}},
                "all_plus_minus_two": {"type": "boolean"},
            },
            "additionalProperties": False,
        },
        "equal": {
            "type": "object",
            "required": ["oriented", "unoriented"],
            "properties": {
                "oriented": {
                    "enum": [
                        "isotopic",
                        "isotopic-after-component-reversal",
                        "distinct",
                    ]
                },
                "unoriented": {"type": "boolean"},
            },
            "additionalProperties": False,
        },
        "regions": {
            "type": "object",
            "required": ["canonical", "seifert"],
            "properties": {"canonical": _REGION_PAIR, "seifert": _REGION_PAIR},
            "additionalProperties": False,
        },
        "svg_path": {"type": "string"},
        "verdicts": {"type": "array", "items": _VERDICT_ENTRY},
        "homology": {
            "type": "object",
            "required": ["presentation", "determinant", "order", "qhs"],
            "properties": {
                "presentation": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "integer"}},
                },
                "determinant": {"type": "integer"},
                "order": {
                    "oneOf": [{"type": "integer"}, {"const": "infinite"}]
                },
                "qhs": {"type": "boolean"},
            },
            "additionalProperties": False,
        },
        "framing": {
            "type": "object",
            "required": ["from", "to", "slopes"],
            "properties": {
                "from": {"enum": ["seifert", "canonical"]},
                "to": {"enum": ["seifert", "canonical"]},
                "slopes": {"type": "array", "items": _FRACTION},
            },
            "additionalProperties": False,
        },
        "checks": {"type": "array", "items": _CHECK_ENTRY},
    },
    "additionalProperties": False,
}
