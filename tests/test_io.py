import json

import pytest

from genbound.cli import main
from genbound.groups import CayleyGroup, MatrixGroup, PermGroup
from genbound.io import FileFormatError, dump_document, parse_group_file, serialize_group
from genbound.presentations import Presentation


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc) if isinstance(doc, dict) else doc)
    return path


def test_parse_perm_group(tmp_path):
    path = write(tmp_path, "g.json", {
        "type": "perm", "degree": 3, "generators": [[1, 0, 2]],
    })
    group = parse_group_file(path)
    assert isinstance(group, PermGroup)
    assert group.order == 2


def test_parse_rejects_non_bijection(tmp_path):
    path = write(tmp_path, "bad.json", {
        "type": "perm", "degree": 3, "generators": [[0, 0, 1]],
    })
    with pytest.raises(FileFormatError, match="not a bijection"):
        parse_group_file(path)


def test_parse_error_carries_line_number(tmp_path):
    path = write(tmp_path, "broken.json", '{"type": "perm",\n  "degree": }')
    with pytest.raises(FileFormatError, match="line 2"):
        parse_group_file(path)


def test_parse_error_names_field_and_index(tmp_path):
    path = write(tmp_path, "bad.json", {
        "type": "perm", "degree": 4, "generators": [[1, 0, 3, 2], [0, 0, 1, 2]],
    })
    with pytest.raises(FileFormatError, match=r"generators\[1\]"):
        parse_group_file(path)


def test_parse_presentation_and_a5_order(tmp_path):
    path = write(tmp_path, "a5.json", {
        "type": "presentation",
        "generators": ["a", "b"],
        "relators": ["a^2", "b^3", "(a*b)^5"],
    })
    pres = parse_group_file(path)
    assert isinstance(pres, Presentation)
    assert pres.relators[2] == ((0, 1), (1, 1)) * 5


def test_parse_presentation_rejects_unknown_generator(tmp_path):
    path = write(tmp_path, "bad.json", {
        "type": "presentation", "generators": ["a"], "relators": ["c^2"],
    })
    with pytest.raises(FileFormatError, match="unknown generator"):
        parse_group_file(path)


def test_parse_presentation_ref(tmp_path):
    inner = write(tmp_path, "inner.json", {
        "type": "presentation", "generators": ["g"], "relators": ["g^4"],
    })
    outer = write(tmp_path, "outer.json", {
        "type": "presentation-ref", "path": "inner.json",
    })
    pres = parse_group_file(outer)
    assert pres.relators == (((0, 4),),)


def test_parse_matrix_group_row_major(tmp_path):
    path = write(tmp_path, "m.json", {
        "type": "matrix", "prime": 2, "dim": 2, "generators": [[0, 1, 1, 1]],
    })
    group = parse_group_file(path)
    assert isinstance(group, MatrixGroup)
    assert group.order == 3


@pytest.mark.parametrize("prime", [4, 9, 1, 0, True, "7", 2**32 + 15])  # 2^32 + 15 is prime
def test_matrix_prime_must_be_a_prime_integer(tmp_path, prime):
    path = write(tmp_path, "m.json", {
        "type": "matrix", "prime": prime, "dim": 2, "generators": [[0, 1, 1, 1]],
    })
    with pytest.raises(FileFormatError, match="prime: must be a prime integer"):
        parse_group_file(path)


@pytest.mark.parametrize("name", [7, None, ["C2"]])
def test_presentation_name_must_be_a_string(tmp_path, name):
    path = write(tmp_path, "p.json", {
        "type": "presentation", "generators": ["a"], "relators": ["a^2"], "name": name,
    })
    with pytest.raises(FileFormatError, match="name: must be a string"):
        parse_group_file(path)


def test_parse_cayley(tmp_path):
    path = write(tmp_path, "c.json", {
        "type": "cayley", "order": 3,
        "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
    })
    group = parse_group_file(path)
    assert isinstance(group, CayleyGroup)
    assert group.order == 3


@pytest.mark.parametrize(
    "order, message",
    [("3", "order: must be a positive integer"), (0, "order: must be a positive integer"),
     (4, "order: declared 4 but table has 3 rows")],
)
def test_cayley_order_must_be_a_positive_integer_matching_the_table(tmp_path, order, message):
    path = write(tmp_path, "c.json", {
        "type": "cayley", "order": order,
        "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
    })
    with pytest.raises(FileFormatError, match=message):
        parse_group_file(path)


PERM = {"type": "perm", "degree": 3, "generators": [[1, 0, 2]]}
MATRIX = {"type": "matrix", "prime": 2, "dim": 2, "generators": [[0, 1, 1, 1]]}
PRESENTATION = {"type": "presentation", "generators": ["a"], "relators": ["a^2"]}

# one document per rejection branch of parse_group_file not reached above,
# with the anchor and message it fails with: it is parsed as "g.json", next
# to "perm.json", so a presentation-ref can point at either
REJECTED = {
    "perm-degree": ({**PERM, "degree": 0}, "degree", "must be a positive integer"),
    "perm-no-generators": ({**PERM, "generators": []}, "generators", "must be a nonempty array"),
    "perm-generator-degree": (
        {**PERM, "generators": [[1, 0]]}, "generators[0]", "degree 2 != 3"
    ),
    "cayley-table-type": ({"type": "cayley", "table": 5}, "table", "must be an array of rows"),
    "cayley-not-a-group": (
        {"type": "cayley", "table": [[0, 1], [0, 1]]}, "table", "table has no two-sided identity"
    ),
    "matrix-dim": ({**MATRIX, "dim": 0}, "dim", "must be a positive integer"),
    "matrix-no-generators": (
        {**MATRIX, "generators": []}, "generators", "must be a nonempty array"
    ),
    "matrix-row-major-length": (
        {**MATRIX, "generators": [[0, 1, 1]]}, "generators[0]", "need 4 row-major entries"
    ),
    "matrix-singular": (
        {**MATRIX, "generators": [[0, 0, 0, 0]]}, "generators", "matrix is singular mod 2"
    ),
    "presentation-generators": (
        {**PRESENTATION, "generators": ["a", 1]}, "generators", "must be an array of names"
    ),
    "presentation-relators": (
        {**PRESENTATION, "relators": "a^2"}, "relators", "must be an array of words"
    ),
    "ref-path-type": ({"type": "presentation-ref", "path": 3}, "path", "must be a string"),
    "ref-chain-too-deep": (
        {"type": "presentation-ref", "path": "g.json"}, "path", "reference chain too deep"
    ),
    "ref-to-a-group": (
        {"type": "presentation-ref", "path": "perm.json"},
        "path",
        "referenced document is not a presentation",
    ),
}


@pytest.mark.parametrize("doc, anchor, message", REJECTED.values(), ids=REJECTED.keys())
def test_every_rejection_names_its_anchor_and_exits_1(tmp_path, capsys, doc, anchor, message):
    write(tmp_path, "perm.json", PERM)
    path = write(tmp_path, "g.json", doc)
    with pytest.raises(FileFormatError) as raised:
        parse_group_file(path)
    assert str(raised.value).endswith(f": {anchor}: {message}")
    assert main(["dmin", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f": {anchor}: {message}" in captured.err


def test_unknown_type(tmp_path):
    path = write(tmp_path, "u.json", {"type": "mystery"})
    with pytest.raises(FileFormatError, match="unknown type"):
        parse_group_file(path)


@pytest.mark.parametrize("doc", [
    {"type": "perm", "degree": 4, "generators": [[1, 2, 3, 0], [1, 0, 2, 3]]},
    {"type": "cayley", "order": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]},
    {"type": "matrix", "prime": 3, "dim": 2, "generators": [[0, 2, 1, 0], [1, 1, 1, 2]]},
    {"type": "presentation", "generators": ["a", "b"], "relators": ["a^2", "(a*b)^5"]},
])
def test_round_trip_is_identity_on_canonical_form(tmp_path, doc):
    first = parse_group_file(write(tmp_path, "one.json", doc))
    canonical = serialize_group(first)
    second = parse_group_file(write(tmp_path, "two.json", canonical))
    assert serialize_group(second) == canonical
    assert dump_document(canonical) == dump_document(serialize_group(second))
