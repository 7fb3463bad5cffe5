"""Input documents for groups and presentations, and report serialization.

Documents are JSON objects with a `type` field:

* perm:            {"type": "perm", "degree": 5, "generators": [[1,2,3,4,0], ...]}
* cayley:          {"type": "cayley", "order": 6, "table": [[...], ...]}
* matrix:          {"type": "matrix", "prime": 7, "dim": 2,
                    "generators": [[row-major ints], ...]}
* presentation:    {"type": "presentation", "generators": ["a","b"],
                    "relators": ["a^2", "b^3", "(a*b)^5"]}
* presentation-ref:{"type": "presentation-ref", "path": "relative/file.json"}

Matrix generators are flat row-major integer arrays reduced mod the prime.
An integer is read as `type(x) is int`: JSON's true and false load as
bools, which Python counts as ints, and are rejected by name.
Parsing then serializing then parsing again is the identity on the
canonical form.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from . import perm
from .groups import CayleyGroup, MatrixGroup, PermGroup
from .numtheory import INPUT_INTEGER_BOUND, is_prime
from .presentations import Presentation, presentation_from_words, render_word


class FileFormatError(ValueError):
    """Malformed input document; messages carry the file and anchor."""


def _fail(path: Path, anchor: str, message: str):
    raise FileFormatError(f"{path}: {anchor}: {message}")


def _load_json(path: Path) -> dict:
    try:
        text = path.read_text()
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError:  # a number past int's digit limit: kept as text, for checks to name
        limit = sys.get_int_max_str_digits()
        doc = json.loads(text, parse_int=lambda s: int(s) if len(s.lstrip("-")) <= limit else s)
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: top level must be an object")
    return doc


def parse_group_file(path: str | Path, _depth: int = 0):
    """Parse a group or presentation document; returns the realized object."""
    path = Path(path)
    doc = _load_json(path)
    kind = doc.get("type")
    if kind == "perm":
        degree = doc.get("degree")
        if type(degree) is not int or degree < 1:
            _fail(path, "degree", "must be a positive integer")
        gens = doc.get("generators")
        if not isinstance(gens, list) or not gens:
            _fail(path, "generators", "must be a nonempty array")
        validated = []
        for i, g in enumerate(gens):
            try:
                images = perm.validate_perm(g)
            except (ValueError, TypeError) as exc:
                _fail(path, f"generators[{i}]", str(exc))
            if not all(type(x) is int for x in images):
                _fail(path, f"generators[{i}]", "must hold integers")
            if len(images) != degree:
                _fail(path, f"generators[{i}]", f"degree {len(images)} != {degree}")
            validated.append(images)
        return PermGroup(degree, validated)
    if kind == "cayley":
        table = doc.get("table")
        if not isinstance(table, list):
            _fail(path, "table", "must be an array of rows")
        if not all(isinstance(row, list) and all(type(x) is int for x in row) for row in table):
            _fail(path, "table", "rows must be arrays of integers")
        order = doc.get("order")
        if order is not None:
            if type(order) is not int or order < 1:
                _fail(path, "order", "must be a positive integer")
            if order != len(table):
                _fail(path, "order", f"declared {order} but table has {len(table)} rows")
        try:
            return CayleyGroup(table)
        except (ValueError, TypeError) as exc:
            _fail(path, "table", str(exc))
    if kind == "matrix":
        prime = doc.get("prime")
        dim = doc.get("dim")
        if type(prime) is not int or prime >= INPUT_INTEGER_BOUND or not is_prime(prime):
            _fail(path, "prime", "must be a prime integer below 2^32")
        if type(dim) is not int or dim < 1:
            _fail(path, "dim", "must be a positive integer")
        gens = doc.get("generators")
        if not isinstance(gens, list) or not gens:
            _fail(path, "generators", "must be a nonempty array")
        matrices = []
        for i, flat in enumerate(gens):
            if not isinstance(flat, list) or len(flat) != dim * dim:
                _fail(path, f"generators[{i}]", f"need {dim * dim} row-major entries")
            if not all(type(x) is int for x in flat):
                _fail(path, f"generators[{i}]", "must hold integers")
            rows = [flat[r * dim : (r + 1) * dim] for r in range(dim)]
            matrices.append(rows)
        try:
            return MatrixGroup(prime, dim, matrices)
        except (ValueError, TypeError) as exc:
            _fail(path, "generators", str(exc))
    if kind == "presentation":
        gens = doc.get("generators")
        relators = doc.get("relators", [])
        if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
            _fail(path, "generators", "must be an array of names")
        if len(set(gens)) != len(gens):
            _fail(path, "generators", "duplicate generator names")
        if not isinstance(relators, list):
            _fail(path, "relators", "must be an array of words")
        name = doc.get("name", "")
        if not isinstance(name, str):
            _fail(path, "name", "must be a string")
        try:
            return presentation_from_words(gens, relators, name=name)
        except ValueError as exc:
            _fail(path, "relators", str(exc))
    if kind == "presentation-ref":
        ref = doc.get("path")
        if not isinstance(ref, str):
            _fail(path, "path", "must be a string")
        if _depth > 8:
            _fail(path, "path", "reference chain too deep")
        resolved = (path.parent / ref).resolve()
        inner = parse_group_file(resolved, _depth + 1)
        if not isinstance(inner, Presentation):
            _fail(path, "path", "referenced document is not a presentation")
        return inner
    _fail(path, "type", f"unknown type {kind!r}")


def serialize_group(obj) -> dict:
    """Canonical document form of a group or presentation."""
    if isinstance(obj, PermGroup):
        return {
            "type": "perm",
            "degree": obj.degree,
            "generators": [list(g) for g in obj.generators],
        }
    if isinstance(obj, CayleyGroup):
        return {
            "type": "cayley",
            "order": obj.order,
            "table": [list(row) for row in obj.table],
        }
    if isinstance(obj, MatrixGroup):
        return {
            "type": "matrix",
            "prime": obj.p,
            "dim": obj.dim,
            "generators": [
                [x for row in g for x in row] for g in obj.generators
            ],
        }
    if isinstance(obj, Presentation):
        doc = {
            "type": "presentation",
            "generators": list(obj.generators),
            "relators": [render_word(w, obj.generators) for w in obj.relators],
        }
        if obj.name:
            doc["name"] = obj.name
        return doc
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dump_document(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
