"""Document parsing, canonical emission, and input validation."""

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from tensorforge import (
    AlternatingTrilinearTable,
    Document,
    InputError,
    Space,
    ThreeLieAlgebra,
    TraceMap,
    Vector,
    emit_document,
    load_document,
    parse_document,
)
from tensorforge.schema import KIND_ORDER, _KINDS

FORMAT_DOC = Path(__file__).resolve().parent.parent / "docs" / "format.md"

FIXTURE_NAMES = [
    "abelian.json",
    "broken_3leibniz.json",
    "broken_3lie.json",
    "broken_3ll.json",
    "broken_action.json",
    "broken_leibniz_lie.json",
    "broken_lie.json",
    "broken_net.json",
    "broken_rep.json",
    "broken_rep3.json",
    "broken_trace.json",
    "example_2_8.json",
    "example_3_3.json",
    "heisenberg_e4.json",
    "leibniz_lie_e3.json",
]


def _doc(format="tensorforge/1", **extra):
    body = {"format": format}
    body.update(extra)
    return json.dumps(body)


def _lie_doc(brackets, dim=3, parameters=None):
    body = {
        "format": "tensorforge/1",
        "spaces": [{"name": "V", "dim": dim}],
        "structures": {
            "lie": [{"name": "g", "space": "V", "brackets": brackets}]
        },
    }
    if parameters is not None:
        body["parameters"] = parameters
    return json.dumps(body)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_emission_is_a_fixed_point(fixtures_dir, name):
    doc = load_document(str(fixtures_dir / name))
    first = emit_document(doc)
    again = emit_document(parse_document(first))
    assert first == again
    assert first.endswith("\n")
    # canonical text materializes parameters away
    assert '"parameters"' not in first


def test_emission_materializes_parameter_templates(fixtures_dir):
    doc = load_document(str(fixtures_dir / "example_2_8.json"))
    text = emit_document(doc)
    data = json.loads(text)
    tensor = data["structures"]["nets"][0]["tensor"]
    assert tensor[2][2] == 1 and tensor[3][3] == "1/2"


def test_emission_refuses_two_spaces_of_one_name():
    """Entries built in code may sit on different spaces of one name, which
    a document cannot name apart: emission refuses them."""
    doc = Document()
    for name, dim in (("a", 3), ("b", 4)):
        space = Space("V", dim)
        bracket = AlternatingTrilinearTable(space, space, {})
        doc.add("three_lie", name, ThreeLieAlgebra(space, bracket))
    with pytest.raises(InputError, match="two different spaces are both named 'V'"):
        emit_document(doc)
    shared = Document()
    shared.add_space(Space("V", 4, ("x", "y", "z", "w")))
    shared.add("three_lie", "b", doc.entries["three_lie"]["b"])
    with pytest.raises(InputError, match="two different spaces are both named 'V'"):
        emit_document(shared)


def test_parameter_overrides():
    text = _lie_doc({"1,2": {"3": "2*k"}}, parameters={"k": 3})
    doc = parse_document(text, overrides={"k": "1/2"})
    lie = doc.resolve("lie")
    assert lie.value(0, 1) == Vector((0, 0, 1))
    plain = parse_document(text)
    assert plain.resolve("lie").value(0, 1) == Vector((0, 0, 6))
    with pytest.raises(InputError, match="cannot set parameter"):
        parse_document(text, overrides={"zz": 1})


def test_scalar_forms():
    text = _lie_doc(
        {"1,2": {"1": "-3/2", "2": 2, "3": "+k"}},
        parameters={"k": "-2/3"},
    )
    v = parse_document(text).resolve("lie").value(0, 1)
    assert v == Vector((Fraction(-3, 2), 2, Fraction(-2, 3)))


def test_undeclared_parameter_is_an_error():
    with pytest.raises(InputError, match="undefined parameter 'k'"):
        parse_document(_lie_doc({"1,2": {"3": "k"}}))
    msg = r"available: a, b"
    with pytest.raises(InputError, match=msg):
        parse_document(
            _lie_doc({"1,2": {"3": "q"}}, parameters={"b": 1, "a": 2})
        )


@pytest.mark.parametrize("bad", ["0.5", "1e3", "NaN", "Infinity"])
def test_floats_are_rejected(bad):
    with pytest.raises(InputError, match="floats are not exact"):
        parse_document(_lie_doc({"1,2": {"3": "__X__"}}).replace('"__X__"', bad))


def test_unknown_fields_carry_their_json_path():
    body = json.loads(_lie_doc({"1,2": {"3": 1}}))
    body["structures"]["lie"][0]["extra"] = 1
    with pytest.raises(
        InputError, match=r"document\.structures\.lie\[0\]: unknown field 'extra'"
    ):
        parse_document(json.dumps(body))
    with pytest.raises(InputError, match="document: unknown field 'bogus'"):
        parse_document(_doc(bogus=1))


def test_missing_required_fields():
    body = json.loads(_lie_doc({"1,2": {"3": 1}}))
    del body["structures"]["lie"][0]["space"]
    with pytest.raises(InputError, match="missing required field 'space'"):
        parse_document(json.dumps(body))
    with pytest.raises(InputError, match="missing required field 'format'"):
        parse_document("{}")


def test_format_and_json_errors():
    with pytest.raises(InputError, match="expected 'tensorforge/1'"):
        parse_document(_doc(format="tensorforge/9"))
    with pytest.raises(InputError, match="not valid JSON"):
        parse_document("{nope")
    with pytest.raises(InputError, match="cannot read"):
        load_document("/nonexistent/path.json")


def test_key_validation():
    with pytest.raises(InputError, match="must hold 2 comma-separated"):
        parse_document(_lie_doc({"1,2,3": {"3": 1}}))
    with pytest.raises(InputError, match="positive 1-based"):
        parse_document(_lie_doc({"0,2": {"3": 1}}))
    with pytest.raises(InputError, match="exceeds the dimension"):
        parse_document(_lie_doc({"1,9": {"3": 1}}))
    with pytest.raises(InputError, match="exceeds the dimension"):
        parse_document(_lie_doc({"1,2": {"9": 1}}))


def test_non_ascii_decimal_digits_read_as_digits_and_emit_in_ascii():
    """Indices and scalars take any Unicode decimal digits, as `int` does
    (here Arabic-Indic ones); emission writes them back in ASCII."""
    doc = parse_document(_lie_doc({"١,2": {"٣": "١/2"}}))
    assert doc.resolve("lie").coords == {(0, 1): Vector((0, 0, Fraction(1, 2)))}
    brackets = json.loads(emit_document(doc))["structures"]["lie"][0]["brackets"]
    assert brackets == {"1,2": {"3": "1/2"}}


def test_alternating_keys_must_increase():
    body = {
        "format": "tensorforge/1",
        "spaces": [{"name": "V", "dim": 4}],
        "structures": {
            "three_lie": [
                {"name": "t", "space": "V", "brackets": {"2,1,3": {"4": 1}}}
            ]
        },
    }
    with pytest.raises(InputError, match="must be increasing"):
        parse_document(json.dumps(body))


def test_duplicate_names_are_rejected():
    body = {
        "format": "tensorforge/1",
        "spaces": [{"name": "V", "dim": 3}, {"name": "V", "dim": 4}],
    }
    with pytest.raises(InputError, match="duplicate space name 'V'"):
        parse_document(json.dumps(body))

    body = json.loads(_lie_doc({"1,2": {"3": 1}}))
    body["structures"]["lie"].append(body["structures"]["lie"][0])
    with pytest.raises(InputError, match="duplicate lie name 'g'"):
        parse_document(json.dumps(body))


def test_unknown_kind_and_space_references():
    with pytest.raises(InputError, match="unknown kind 'liegroups'"):
        parse_document(_doc(structures={"liegroups": []}))
    body = json.loads(_lie_doc({"1,2": {"3": 1}}))
    body["structures"]["lie"][0]["space"] = "W"
    with pytest.raises(InputError, match="unknown space 'W'"):
        parse_document(json.dumps(body))


def test_resolve_by_name_unique_ambiguous_missing():
    body = json.loads(_lie_doc({"1,2": {"3": 1}}))
    body["structures"]["lie"].append(dict(body["structures"]["lie"][0], name="h"))
    body["structures"]["traces"] = [
        {"name": "s", "space": "V", "covector": [0, 0, 1]}
    ]
    doc = parse_document(json.dumps(body))

    assert doc.resolve("lie", "h").value(0, 1) == Vector((0, 0, 1))
    assert doc.resolve("traces").covector == Vector((0, 0, 1))
    with pytest.raises(InputError, match="--name"):
        doc.resolve("lie")
    with pytest.raises(InputError, match="no lie entry named 'q'"):
        doc.resolve("lie", "q")
    with pytest.raises(InputError, match="declares no maps entry"):
        doc.resolve("maps")


def test_emission_orders_entries_canonically():
    body = json.loads(_lie_doc({"1,2": {"3": 1}}))
    body["structures"]["lie"].insert(0, dict(body["structures"]["lie"][0], name="z"))
    body["structures"]["lie"].insert(0, dict(body["structures"]["lie"][0], name="a"))
    data = json.loads(emit_document(parse_document(json.dumps(body))))
    assert [e["name"] for e in data["structures"]["lie"]] == ["a", "g", "z"]


def test_emission_rejects_conflicting_space_names():
    doc = Document()
    doc.add_space(Space("V", 3))
    doc.add("traces", "t", TraceMap(Space("V", 2), Vector((0, 1))))
    with pytest.raises(InputError, match="two different spaces"):
        emit_document(doc)


def test_booleans_are_not_scalars():
    with pytest.raises(InputError, match="got a boolean"):
        parse_document(_lie_doc({"1,2": {"3": True}}))


def test_keys_that_normalize_alike_are_duplicates(fixtures_dir):
    with pytest.raises(
        InputError,
        match=r"document\.structures\.lie\[0\]\.brackets: duplicate key ' 1,2'",
    ):
        parse_document(_lie_doc({"1,2": {"3": 1}, " 1,2": {"3": 2}}))
    with pytest.raises(
        InputError,
        match=r"brackets\.1,2: duplicate component key ' 3'",
    ):
        parse_document(_lie_doc({"1,2": {"3": 1, " 3": 5}}))
    body = json.loads((fixtures_dir / "example_2_8.json").read_text())
    operators = body["structures"]["representations"][0]["operators"]
    key = next(iter(operators))
    operators[key.replace(",", " ,")] = operators[key]
    with pytest.raises(
        InputError,
        match=r"representations\[0\]\.operators: duplicate key",
    ):
        parse_document(json.dumps(body))


def _lie_text(brackets_json, params_json=None):
    """A lie document written as text, so a key can appear twice verbatim."""
    params = "" if params_json is None else f'"parameters": {params_json}, '
    return (
        '{"format": "tensorforge/1", ' + params
        + '"spaces": [{"name": "V", "dim": 3}], '
        + '"structures": {"lie": [{"name": "g", "space": "V", '
        + brackets_json + "}]}}"
    )


@pytest.mark.parametrize(
    "text, key",
    [
        (_lie_text('"brackets": {"1,2": {"3": 1}, "1,2": {"3": 2}}'), "'1,2'"),
        (_lie_text('"brackets": {"1,2": {"3": 1}}, "brackets": {}'), "'brackets'"),
        (
            _lie_text('"brackets": {"1,2": {"3": "k"}}', '{"k": "1", "k": "2"}'),
            "'k'",
        ),
    ],
    ids=["table key", "entry field", "parameter name"],
)
def test_keys_written_twice_verbatim_are_duplicates(text, key):
    json.loads(text)  # valid JSON: the plain reader keeps the last value
    with pytest.raises(InputError, match=f"duplicate key {key}"):
        parse_document(text)


def test_format_doc_lists_every_kind_with_its_fields():
    """The kind table of docs/format.md names exactly the parsed kinds, in
    parse order, each with its required and optional fields in order."""
    text = FORMAT_DOC.read_text().split("## Structure kinds")[1].split("\n## ")[0]
    rows = [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in text.splitlines()
        if line.startswith("| `")
    ]
    assert tuple(row[0].strip("`") for row in rows) == KIND_ORDER
    for kind, required, optional in rows:
        spec = _KINDS[kind.strip("`")]
        assert re.findall(r"`(\w+)`", required) == list(spec.required)[1:], kind
        assert re.findall(r"`(\w+)`", optional) == list(spec.optional), kind
        assert [*spec.required][1:] + [*spec.optional] == list(spec.fields), kind
