"""The JSON output contract for the command-line surface.

Every ``--json`` invocation prints a single output document:

    {"command": <subcommand>, "format_version": 1, "result": <payload>}

where the payload is one of the shapes in ``$defs`` below.  Rational
numbers are JSON integers when integral and strings like ``"3/2"``
otherwise; rational functions of q are coefficient arrays in ascending
degree under ``num``/``den``.  Floating-point values must be finite: the
CLI refuses to emit NaN or infinity.
"""

RATIONAL = {
    "oneOf": [
        {"type": "integer"},
        {"type": "string", "pattern": "^-?[0-9]+/[0-9]+$"},
    ]
}

OUTPUT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": "https://qheis.invalid/output.schema.json",
    "title": "qheis output document",
    "type": "object",
    "required": ["command", "format_version", "result"],
    "additionalProperties": False,
    "properties": {
        "command": {"type": "string"},
        "format_version": {"const": 1},
        "result": {
            "anyOf": [
                {"$ref": "#/$defs/element_result"},
                {"$ref": "#/$defs/bool_result"},
                {"$ref": "#/$defs/decomposition"},
                {"$ref": "#/$defs/laurent_result"},
                {"$ref": "#/$defs/ket_result"},
                {"$ref": "#/$defs/vector_result"},
                {"$ref": "#/$defs/reports_result"},
                {"$ref": "#/$defs/confluence_result"},
                {"$ref": "#/$defs/spectrum_facts"},
                {"$ref": "#/$defs/norm_result"},
                {"$ref": "#/$defs/estimates_result"},
                {"$ref": "#/$defs/coherent_result"},
                {"$ref": "#/$defs/surrogate_result"},
            ]
        },
    },
    "$defs": {
        "rational": RATIONAL,
        "coeff": {
            "type": "object",
            "required": ["num", "den"],
            "additionalProperties": False,
            "properties": {
                "num": {"type": "array", "items": RATIONAL},
                "den": {"type": "array", "items": RATIONAL},
            },
        },
        "element_term": {
            "type": "object",
            "required": ["b", "k", "a", "coeff"],
            "additionalProperties": False,
            "properties": {
                "b": {"type": "integer", "minimum": 0},
                "k": {"type": "integer", "minimum": 0},
                "a": {"type": "integer", "minimum": 0},
                "coeff": {"$ref": "#/$defs/coeff"},
            },
        },
        "element": {
            "type": "object",
            "required": ["terms"],
            "additionalProperties": False,
            "properties": {
                "terms": {"type": "array", "items": {"$ref": "#/$defs/element_term"}}
            },
        },
        "free_element": {
            "type": "object",
            "required": ["words"],
            "additionalProperties": False,
            "properties": {
                "words": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["word", "coeff"],
                        "additionalProperties": False,
                        "properties": {
                            "word": {"type": "string", "pattern": "^(I|[ABC]+)$"},
                            "coeff": {"$ref": "#/$defs/coeff"},
                        },
                    },
                }
            },
        },
        "element_result": {
            "type": "object",
            "required": ["element", "text"],
            "additionalProperties": False,
            "properties": {
                "element": {"$ref": "#/$defs/element"},
                "text": {"type": "string"},
            },
        },
        "bool_result": {
            "type": "object",
            "required": ["value"],
            "additionalProperties": False,
            "properties": {"value": {"type": "boolean"}},
        },
        "decomposition": {
            "type": "object",
            "required": ["linear_A", "linear_B", "derived", "e_part"],
            "additionalProperties": False,
            "properties": {
                "linear_A": {"$ref": "#/$defs/coeff"},
                "linear_B": {"$ref": "#/$defs/coeff"},
                "derived": {"$ref": "#/$defs/element"},
                "e_part": {"$ref": "#/$defs/element"},
            },
        },
        "laurent_result": {
            "type": "object",
            "required": ["terms", "text"],
            "additionalProperties": False,
            "properties": {
                "terms": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["power", "coeff"],
                        "additionalProperties": False,
                        "properties": {
                            "power": {"type": "integer"},
                            "coeff": {"$ref": "#/$defs/coeff"},
                        },
                    },
                },
                "text": {"type": "string"},
            },
        },
        "sqrt_scalar": {
            "type": "object",
            "required": ["coeff", "radicand"],
            "additionalProperties": False,
            "properties": {
                "coeff": {"$ref": "#/$defs/coeff"},
                "radicand": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 1},
                },
            },
        },
        "ket_result": {
            "type": "object",
            "required": ["entries", "zero"],
            "additionalProperties": False,
            "properties": {
                "entries": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["target", "scalars"],
                        "additionalProperties": False,
                        "properties": {
                            "target": {"type": "integer", "minimum": 0},
                            "scalars": {
                                "type": "array",
                                "items": {"$ref": "#/$defs/sqrt_scalar"},
                            },
                        },
                    },
                },
                "zero": {"type": "boolean"},
            },
        },
        "vector_result": {
            "type": "object",
            "required": ["entries", "q"],
            "additionalProperties": False,
            "properties": {
                "entries": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["index", "value"],
                        "additionalProperties": False,
                        "properties": {
                            "index": {"type": "integer", "minimum": 0},
                            "value": {"type": "number"},
                        },
                    },
                },
                "q": {"type": "string"},
            },
        },
        "identity_report": {
            "type": "object",
            "required": ["identity", "params", "verdict", "difference"],
            "additionalProperties": False,
            "properties": {
                "identity": {"type": "string"},
                "params": {
                    "type": "object",
                    "additionalProperties": {"type": "integer"},
                },
                "verdict": {"type": "boolean"},
                "difference": {"$ref": "#/$defs/element"},
                "lhs": {"$ref": "#/$defs/element"},
                "rhs": {"$ref": "#/$defs/element"},
            },
        },
        "reports_result": {
            "type": "object",
            "required": ["reports"],
            "additionalProperties": False,
            "properties": {
                "reports": {
                    "type": "array",
                    "items": {"$ref": "#/$defs/identity_report"},
                }
            },
        },
        "ambiguity": {
            "type": "object",
            "required": ["word", "kind", "resolvable", "outcomes"],
            "additionalProperties": False,
            "properties": {
                "word": {"type": "string"},
                "kind": {"enum": ["overlap", "inclusion"]},
                "resolvable": {"type": "boolean"},
                "outcomes": {
                    "type": "array",
                    "items": {"$ref": "#/$defs/free_element"},
                },
            },
        },
        "confluence_result": {
            "type": "object",
            "required": ["rules", "max_len", "confluent", "ambiguities", "unresolvable"],
            "additionalProperties": False,
            "properties": {
                "rules": {"enum": ["printed", "completed"]},
                "max_len": {"type": "integer", "minimum": 2},
                "confluent": {"type": "boolean"},
                "ambiguities": {
                    "type": "array",
                    "items": {"$ref": "#/$defs/ambiguity"},
                },
                "unresolvable": {"type": "array", "items": {"type": "string"}},
            },
        },
        "spectrum_facts": {
            "type": "object",
            "required": [
                "operator",
                "k",
                "radius_sq",
                "point_spectrum",
                "approx_point_spectrum",
                "compression_spectrum",
            ],
            "additionalProperties": False,
            "properties": {
                "operator": {"enum": ["A", "B", "C"]},
                "k": {"type": "integer", "minimum": 1},
                "radius_sq": {"$ref": "#/$defs/coeff"},
                "point_spectrum": {
                    "enum": ["empty", "open-disk", "eigenvalue-list"]
                },
                "approx_point_spectrum": {
                    "enum": ["circle", "closed-disk", "closure-of-eigenvalues"]
                },
                "compression_spectrum": {
                    "enum": ["open-disk", "empty", "eigenvalue-list"]
                },
                "eigenvalue_formula": {"type": "string"},
                "eigenspace": {"type": "string"},
                "radius": {"type": "number"},
                "eigenvalues": {"type": "array", "items": {"type": "number"}},
            },
        },
        "norm_result": {
            "type": "object",
            "required": ["value", "q", "dim"],
            "additionalProperties": False,
            "properties": {
                "value": {"type": "number"},
                "q": {"type": "string"},
                "dim": {"type": "integer", "minimum": 2},
            },
        },
        "estimates_result": {
            "type": "object",
            "required": ["estimates", "final", "q", "kmax", "dim"],
            "additionalProperties": False,
            "properties": {
                "estimates": {"type": "array", "items": {"type": "number"}},
                "final": {"type": "number"},
                "q": {"type": "string"},
                "kmax": {"type": "integer", "minimum": 1},
                "dim": {"type": "integer", "minimum": 2},
            },
        },
        "coherent_result": {
            "type": "object",
            "required": ["eigenvalue", "residual", "radius", "outside_disk", "vector"],
            "additionalProperties": False,
            "properties": {
                "eigenvalue": {"$ref": "#/$defs/complex_number"},
                "residual": {"type": "number"},
                "radius": {"type": "number"},
                "outside_disk": {"type": "boolean"},
                "vector": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["index", "re", "im"],
                        "additionalProperties": False,
                        "properties": {
                            "index": {"type": "integer", "minimum": 0},
                            "re": {"type": "number"},
                            "im": {"type": "number"},
                        },
                    },
                },
            },
        },
        "complex_number": {
            "type": "object",
            "required": ["re", "im"],
            "additionalProperties": False,
            "properties": {"re": {"type": "number"}, "im": {"type": "number"}},
        },
        "surrogate_result": {
            "type": "object",
            "required": ["element", "text", "residual_zero"],
            "additionalProperties": False,
            "properties": {
                "element": {"$ref": "#/$defs/element"},
                "text": {"type": "string"},
                "residual_zero": {"type": "boolean"},
            },
        },
    },
}
