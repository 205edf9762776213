"""Reading and writing structure-constant documents.

A document is a JSON object with a ``format`` tag, optional ``title`` and
``parameters``, a list of ``spaces``, and a ``structures`` table keyed by
kind.  Every scalar is an exact rational: a JSON integer, a ``"p/q"``
string, or a parameter template such as ``"2*k"`` resolved against the
document's parameters (possibly overridden by the caller).  Floats are
rejected everywhere.

Sparse tables use 1-based string keys (``"1,2,3"``) mapping to sparse
vectors (``{"4": 1}``); operators and tensors are dense row-major arrays.
Emission is canonical — fixed field order, entries and keys sorted, and
parameters materialized — so a second emission is byte-identical.

Each structure kind is declared once, in ``_KINDS``: its fields in order,
each with a codec that reads and writes it, a constructor and a reader.
Parsing, emission and the emitted list of spaces all follow that table.
Every constructor is a data class of ``algebras``, so reading a document
loads no law module: a command loads only the laws it runs.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .algebras import (
    CoherentActionData,
    Deformation,
    EmbeddingTensorProblem,
    LeibnizLieAlgebra,
    LieAlgebra,
    LieCoherentAction,
    LieNet,
    LinearMap,
    RepresentationData,
    ThreeLeibnizAlgebra,
    ThreeLeibnizLieAlgebra,
    ThreeLeibnizRep,
    ThreeLieAlgebra,
    TraceMap,
)
from .errors import _WORK_BUDGET, InputError
from .linalg import Matrix, Scalar, Vector, fmt_rat, rat
from .multilinear import (
    AlternatingTrilinearTable,
    PairAction,
    Space,
    TrilinearTable,
)

FORMAT = "tensorforge/1"

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_SCALAR_RE = re.compile(
    r"^([+-]?)(\d+(?:/\d+)?)?\s*\*?\s*([A-Za-z_][A-Za-z0-9_]*)?$"
)


def _reject_float(text: str, where: str = "in document"):
    raise InputError(
        f"non-integer number {text!r} {where}: floats are not exact, "
        "write rationals as strings like \"1/2\""
    )


def _float_hint(raw: str, path: str):
    """The float error, for a scalar string that reads as a float."""
    try:
        float(raw)
    except ValueError:
        return
    _reject_float(raw, f"at {path}")


def _object(pairs) -> dict:
    """A JSON object, refusing a key written twice in it, which the JSON
    reader would otherwise merge by keeping the last value."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise InputError(
                f"duplicate key {key!r}: it is written twice in one JSON object"
            )
        out[key] = value
    return out


class _ScalarParser:
    """Resolves document scalars against the active parameter values."""

    def __init__(self, values: dict):
        self.values = values

    def parse(self, raw, path: str) -> Scalar:
        if isinstance(raw, bool):
            raise InputError(f"{path}: expected a scalar, got a boolean")
        if isinstance(raw, int):
            return raw
        if not isinstance(raw, str):
            raise InputError(
                f"{path}: expected an integer or a scalar string, "
                f"got {type(raw).__name__}"
            )
        text = raw.strip()
        m = _SCALAR_RE.match(text)
        if not m or (m.group(2) is None and m.group(3) is None):
            _float_hint(raw, path)
            raise InputError(f"{path}: cannot read scalar {raw!r}")
        sign = -1 if m.group(1) == "-" else 1
        try:
            coeff = Fraction(m.group(2)) if m.group(2) else Fraction(1)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{path}: cannot read scalar {raw!r}: {exc}") from None
        name = m.group(3)
        if name is not None:
            if name not in self.values:
                _float_hint(raw, path)  # "1e3", "nan", unless a parameter
                available = ", ".join(sorted(self.values)) or "none declared"
                raise InputError(
                    f"{path}: undefined parameter {name!r} "
                    f"(available: {available})"
                )
            coeff *= self.values[name]
        return rat(sign * coeff)


# what an entry picked on a space is called, one and several
_ON_SPACE = {
    ("traces",): ("trace", "traces"),
    ("lie", "leibniz_lie"): ("Lie or Leibniz-Lie algebra", "algebras"),
}


class Document:
    """A parsed document: named spaces plus named structures by kind."""

    def __init__(self, title: str | None = None):
        self.title = title
        self.parameters: dict[str, Scalar] = {}
        self.spaces: dict[str, Space] = {}
        self.entries: dict[str, dict] = {kind: {} for kind in KIND_ORDER}

    def add_space(self, space: Space) -> Space:
        known = self.spaces.get(space.name)
        if known is not None:
            if known != space:
                raise InputError(
                    f"two different spaces are both named {space.name!r}"
                )
            return known
        self.spaces[space.name] = space
        return space

    def add(self, kind: str, name: str, obj):
        if kind not in self.entries:
            raise InputError(f"unknown structure kind {kind!r}")
        if name in self.entries[kind]:
            raise InputError(f"duplicate {kind} entry named {name!r}")
        self.entries[kind][name] = obj
        return obj

    def resolve(self, kinds, name=None, flag: str = "--name", space=None):
        """The entry of `kinds` (one kind or a tuple of them) that `name`
        names, or else the only one. With `space`, only the entries on that
        space are candidates. Of two candidates where one wraps the other (a
        Leibniz-Lie entry's `lie`), the wrapped one is dropped."""
        kinds = (kinds,) if isinstance(kinds, str) else kinds
        found = [(n, e) for kind in kinds for n, e in self.entries[kind].items()]
        what, whats, on = f"{kinds[0]} entry", f"{kinds[0]} entries", ""
        if space is not None:
            (what, whats), on = _ON_SPACE[kinds], f" on space {space.name!r}"
            elsewhere = [e.space for n, e in found if n == name and e.space != space]
            found = [(n, e) for n, e in found if e.space == space]
            if elsewhere and name not in dict(found):
                raise InputError(
                    f"{what} {name!r} lives on space {elsewhere[0].name!r}, "
                    f"but {space.name!r} is needed"
                )
        if name is not None:
            available = ", ".join(sorted(n for n, _ in found)) or "none"
            found = [(n, e) for n, e in found if n == name]
            if not found:
                raise InputError(
                    f"no {what} named {name!r}{on} (available: {available})"
                )
        wrapped = {id(getattr(e, "lie", None)) for _, e in found}
        found = [(n, e) for n, e in found if id(e) not in wrapped]
        if not found:
            raise InputError(f"the document declares no {what}{on}")
        if len(found) > 1:
            raise InputError(
                f"the document declares {len(found)} {whats}{on}; "
                f"choose one with {flag}: " + ", ".join(sorted(n for n, _ in found))
            )
        return found[0][1]

    def name_of(self, kind: str, obj) -> str:
        for name, known in self.entries[kind].items():
            if known is obj:
                return name
        raise InputError(
            f"emission needs a {kind} entry for a referenced structure, "
            "but it is not part of the document"
        )


def _expect(value, types, path: str, what: str):
    if isinstance(value, bool) or not isinstance(value, types):
        raise InputError(f"{path}: expected {what}, got {type(value).__name__}")
    return value


def _take(entry: dict, path: str, required: dict, optional: dict) -> dict:
    """Validate an entry's fields against the declared schema."""
    out = {}
    for field, (types, what) in required.items():
        if field not in entry:
            raise InputError(f"{path}: missing required field {field!r}")
        out[field] = _expect(entry[field], types, f"{path}.{field}", what)
    for field, (types, what, default) in optional.items():
        if field in entry:
            out[field] = _expect(entry[field], types, f"{path}.{field}", what)
        else:
            out[field] = default
    known = set(required) | set(optional)
    for field in entry:
        if field not in known:
            raise InputError(f"{path}: unknown field {field!r}")
    return out


def _parse_name(raw, path: str) -> str:
    """Names of spaces and entries: any non-blank string, no edge blanks."""
    name = _expect(raw, str, path, "a name string")
    if not name or name != name.strip():
        raise InputError(f"{path}: {name!r} is not a usable name")
    return name


def _parse_parameter_name(raw, path: str) -> str:
    name = _expect(raw, str, path, "a parameter name")
    if not _NAME_RE.match(name):
        raise InputError(
            f"{path}: {name!r} is not a valid parameter name "
            "(letters, digits, underscores; must not start with a digit)"
        )
    return name


def _positive(text: str) -> int | None:
    """The positive integer that `text` spells in decimal digits, blanks
    around them allowed, or None; None too when the digits are more than
    Python converts to an int."""
    text = text.strip()
    try:
        n = int(text) if text.isdecimal() else 0
    except ValueError:  # above the int-string conversion limit
        return None
    return n if n >= 1 else None


def _parse_key(raw: str, arity: int, path: str) -> tuple:
    parts = raw.split(",")
    if len(parts) != arity:
        raise InputError(
            f"{path}: key {raw!r} must hold {arity} comma-separated indices"
        )
    indices = [_positive(part) for part in parts]
    if None in indices:
        raise InputError(f"{path}: key {raw!r} must hold positive 1-based indices")
    return tuple(i - 1 for i in indices)


def _parse_sparse_vector(raw, space: Space, scalars, path: str) -> Vector:
    _expect(raw, dict, path, "a sparse vector object")
    entries = [0] * space.dim
    seen = set()
    for key, value in raw.items():
        index = _positive(key)
        if index is None:
            raise InputError(
                f"{path}: component key {key!r} must be a positive 1-based index"
            )
        index -= 1
        if index >= space.dim:
            raise InputError(
                f"{path}: component {key!r} exceeds the dimension "
                f"of space {space.name!r} ({space.dim})"
            )
        if index in seen:
            raise InputError(
                f"{path}: duplicate component key {key!r}: an earlier key "
                "names the same index"
            )
        seen.add(index)
        entries[index] = scalars.parse(value, f"{path}.{key}")
    return Vector(entries)


def _parse_dense_vector(raw, dim: int, scalars, path: str) -> Vector:
    _expect(raw, list, path, "a list of scalars")
    if len(raw) != dim:
        raise InputError(f"{path}: expected {dim} components, got {len(raw)}")
    return Vector(
        [scalars.parse(value, f"{path}[{i}]") for i, value in enumerate(raw)]
    )


def _parse_matrix(raw, nrows: int, ncols: int, scalars, path: str) -> Matrix:
    _expect(raw, list, path, "a list of matrix rows")
    if len(raw) != nrows:
        raise InputError(f"{path}: expected {nrows} rows, got {len(raw)}")
    rows = []
    for i, row in enumerate(raw):
        _expect(row, list, f"{path}[{i}]", "a list of scalars")
        if len(row) != ncols:
            raise InputError(
                f"{path}[{i}]: expected {ncols} columns, got {len(row)}"
            )
        rows.append(
            [scalars.parse(value, f"{path}[{i}][{j}]") for j, value in enumerate(row)]
        )
    return Matrix(rows) if rows else Matrix.zeros(0, ncols)


def _parse_table(raw, arity: int, space: Space, parse_value, path: str) -> dict:
    """A table keyed by basis tuples of `space`."""
    _expect(raw, dict, path, "a table object")
    out = {}
    for key, value in raw.items():
        indices = _parse_key(key, arity, path)
        for index in indices:
            if index >= space.dim:
                raise InputError(
                    f"{path}: key {key!r} exceeds the dimension "
                    f"of space {space.name!r} ({space.dim})"
                )
        if indices in out:
            raise InputError(
                f"{path}: duplicate key {key!r}: an earlier key names "
                "the same indices"
            )
        out[indices] = parse_value(value, f"{path}.{key}")
    return out


def _ref(registry: dict, what: str, raw, path: str):
    """The value that `raw`, the name of a `what`, names in `registry`."""
    name = _expect(raw, str, path, f"a {what} name")
    if name not in registry:
        available = ", ".join(sorted(registry)) or "none"
        raise InputError(f"{path}: unknown {what} {name!r} (available: {available})")
    return registry[name]


_TABLE = (dict, "a table object")
_LIST = (list, "a list")
_STR = (str, "a string")


# --- emission ---------------------------------------------------------------


def _emit_scalar(q: Scalar):
    text = fmt_rat(q)  # an input error past the digits a reader converts
    return int(q) if q.denominator == 1 else text


def _emit_sparse_vector(v: Vector) -> dict:
    return {str(i + 1): _emit_scalar(c) for i, c in v.iter_nonzero()}


def _emit_dense_vector(v: Vector) -> list:
    return [_emit_scalar(c) for c in v.entries]


def _emit_matrix(m: Matrix) -> list:
    return [[_emit_scalar(c) for c in row] for row in m.rows]


def _emit_table(items, emit_value) -> dict:
    return {
        ",".join(str(x + 1) for x in key): emit_value(value)
        for key, value in sorted(items)
    }


def _space_entry(space: Space) -> dict:
    return {
        "name": space.name,
        "dim": space.dim,
        "labels": list(space.basis_labels),
    }


# --- one declaration per structure kind --------------------------------------


class _Codec:
    """How one field of an entry is typed, read and written.

    `spec` is what `_take` checks: the JSON type and its name, plus the
    default of an optional field.  `parse(raw, doc, scalars, prior, path)`
    reads the field given the values of the entry's fields before it;
    `emit(value, doc, note)` writes it, passing each space to `note`.
    """

    def __init__(self, spec, parse, emit):
        self.spec = spec
        self.parse = parse
        self.emit = emit


def _emit_space(space: Space, doc, note) -> str:
    note(space)
    return space.name


_SPACE = _Codec(
    _STR,
    lambda raw, doc, scalars, prior, path: _ref(doc.spaces, "space", raw, path),
    _emit_space,
)


def _entry(kind: str) -> _Codec:
    """A reference by name to an entry of `kind` parsed before this one."""
    return _Codec(
        _STR,
        lambda raw, doc, scalars, prior, path: _ref(
            doc.entries[kind], f"{kind} entry", raw, path
        ),
        lambda obj, doc, note: doc.name_of(kind, obj),
    )


# How one value of a keyed table is read on its target space and written:
# a sparse vector, or a square matrix.
_SPARSE = (_parse_sparse_vector, _emit_sparse_vector)
_SQUARE = (
    lambda raw, space, scalars, path: _parse_matrix(
        raw, space.dim, space.dim, scalars, path
    ),
    _emit_matrix,
)


def _table(arity: int, spaces_of, value, wrap=None) -> _Codec:
    """Values keyed by `arity`-tuples of a source space, each `_SPARSE` or
    `_SQUARE` on a target space, where `spaces_of(*prior)` is (source,
    target); `wrap(source, target, coords)` wraps the table when given."""
    parse_value, emit_value = value

    def parse(raw, doc, scalars, prior, path):
        source, target = spaces_of(*prior)
        coords = _parse_table(
            raw, arity, source,
            lambda item, at: parse_value(item, target, scalars, at),
            path,
        )
        return coords if wrap is None else wrap(source, target, coords)

    return _Codec(
        (*_TABLE, {}), parse,
        lambda value, doc, note: _emit_table(value.items(), emit_value),
    )


def _linear_map(spaces_of) -> _Codec:
    """A dense dim target x dim source matrix, where `spaces_of(*prior)` is
    (source, target); it reads as a LinearMap."""

    def parse(raw, doc, scalars, prior, path):
        source, target = spaces_of(*prior)
        matrix = _parse_matrix(raw, target.dim, source.dim, scalars, path)
        return LinearMap(source, target, matrix)

    return _Codec(
        _LIST, parse, lambda value, doc, note: _emit_matrix(value.matrix)
    )


# a dense vector on the space of the field before it
_COVECTOR = _Codec(
    _LIST,
    lambda raw, doc, scalars, prior, path: _parse_dense_vector(
        raw, prior[0].dim, scalars, path
    ),
    lambda value, doc, note: _emit_dense_vector(value),
)


class _Kind:
    """One structure kind: its fields in emission order, a constructor that
    takes their values in that order, and a reader that returns them."""

    def __init__(self, build, read, **fields):
        self.build, self.read, self.fields = build, read, fields
        self.required = {"name": _STR}
        self.optional = {}
        for field, codec in fields.items():
            if len(codec.spec) == 3:  # (types, what, default)
                self.optional[field] = codec.spec
            else:
                self.required[field] = codec.spec

    def parse(self, doc: Document, body: dict, scalars, path: str):
        fields = _take(body, path, self.required, self.optional)
        values = []
        for field, codec in self.fields.items():
            values.append(
                codec.parse(fields[field], doc, scalars, values, f"{path}.{field}")
            )
        return fields["name"], self.build(*values)

    def emit(self, doc: Document, name: str, obj, note) -> dict:
        out = {"name": name}
        for (field, codec), value in zip(self.fields.items(), self.read(obj)):
            out[field] = codec.emit(value, doc, note)
        return out


def _acting_on_carrier(algebra, carrier, *tables):
    return algebra.space, carrier


# Kinds are parsed and emitted in this order, so an entry may refer only to
# kinds above its own.
_KINDS = {
    "lie": _Kind(
        LieAlgebra, lambda o: (o.space, o.coords),
        space=_SPACE, brackets=_table(2, lambda s: (s, s), _SPARSE),
    ),
    "three_lie": _Kind(
        ThreeLieAlgebra, lambda o: (o.space, o.bracket),
        space=_SPACE,
        brackets=_table(3, lambda s: (s, s), _SPARSE, AlternatingTrilinearTable),
    ),
    "three_leibniz": _Kind(
        ThreeLeibnizAlgebra, lambda o: (o.space, o.bracket),
        space=_SPACE, brackets=_table(3, lambda s: (s, s), _SPARSE, TrilinearTable),
    ),
    "leibniz_lie": _Kind(
        LeibnizLieAlgebra, lambda o: (o.lie, o.triangle),
        lie=_entry("lie"), products=_table(2, lambda lie: (lie.space,) * 2, _SPARSE),
    ),
    "three_leibniz_lie": _Kind(
        ThreeLeibnizLieAlgebra, lambda o: (o.lie3, o.braces),
        three_lie=_entry("three_lie"),
        braces=_table(3, lambda lie3: (lie3.space,) * 2, _SPARSE, TrilinearTable),
    ),
    "representations": _Kind(
        RepresentationData, lambda o: (o.algebra, o.carrier, o.rho),
        algebra=_entry("three_lie"), carrier=_SPACE,
        operators=_table(2, _acting_on_carrier, _SQUARE, PairAction),
    ),
    "actions": _Kind(
        CoherentActionData, lambda o: (o.rep, o.target_bracket),
        representation=_entry("representations"),
        carrier_brackets=_table(
            3, lambda rep: (rep.carrier,) * 2, _SPARSE, AlternatingTrilinearTable
        ),
    ),
    "nets": _Kind(
        EmbeddingTensorProblem, lambda o: (o.action, o.tensor),
        action=_entry("actions"),
        tensor=_linear_map(lambda action: (action.carrier, action.algebra.space)),
    ),
    "three_leibniz_reps": _Kind(
        ThreeLeibnizRep,
        lambda o: (o.algebra, o.carrier, o.l_act, o.m_act, o.r_act),
        algebra=_entry("three_leibniz"), carrier=_SPACE,
        left=_table(2, _acting_on_carrier, _SQUARE),
        middle=_table(2, _acting_on_carrier, _SQUARE),
        right=_table(2, _acting_on_carrier, _SQUARE),
    ),
    "lie_actions": _Kind(
        LieCoherentAction, lambda o: (o.lie, o.carrier, o.rho),
        algebra=_entry("lie"), carrier=_entry("lie"),
        operators=_table(1, lambda lie, carrier: (lie.space, carrier.space), _SQUARE),
    ),
    "lie_nets": _Kind(
        LieNet, lambda o: (o.action, o.tensor),
        action=_entry("lie_actions"),
        tensor=_linear_map(
            lambda action: (action.carrier.space, action.lie.space)
        ),
    ),
    "traces": _Kind(
        TraceMap, lambda o: (o.space, o.covector),
        space=_SPACE, covector=_COVECTOR,
    ),
    "maps": _Kind(
        lambda source, target, linear: linear,
        lambda o: (o.source, o.target, o),
        source=_SPACE, target=_SPACE, matrix=_linear_map(lambda s, t: (s, t)),
    ),
    "deformations": _Kind(
        Deformation, lambda o: (o.problem, o.direction),
        net=_entry("nets"),
        direction=_linear_map(lambda net: (net.h_space, net.l_space)),
    ),
}

KIND_ORDER = tuple(_KINDS)


# --- documents --------------------------------------------------------------


def parse_document(text: str, overrides: dict | None = None) -> Document:
    """Parse document text; `overrides` replaces declared parameter values."""
    try:
        data = json.loads(
            text,
            parse_float=lambda s: _reject_float(s),
            parse_constant=lambda s: _reject_float(s),
            object_pairs_hook=_object,
        )
    except (ValueError, RecursionError) as exc:  # bad JSON, or an over-long int
        raise InputError(f"document is not valid JSON: {exc}") from None
    _expect(data, dict, "document", "a JSON object")

    top = _take(
        data, "document",
        {"format": _STR},
        {
            "title": (*_STR, None),
            "parameters": (*_TABLE, {}),
            "spaces": (*_LIST, []),
            "structures": (*_TABLE, {}),
        },
    )
    if top["format"] != FORMAT:
        raise InputError(
            f"document.format is {top['format']!r}, expected {FORMAT!r}"
        )

    doc = Document(title=top["title"])

    plain = _ScalarParser({})
    for name, raw in top["parameters"].items():
        _parse_parameter_name(name, "document.parameters")
        doc.parameters[name] = plain.parse(raw, f"document.parameters.{name}")
    for name, raw in (overrides or {}).items():
        if name not in doc.parameters:
            available = ", ".join(sorted(doc.parameters)) or "none declared"
            raise InputError(
                f"cannot set parameter {name!r}: the document declares "
                f"{available}"
            )
        doc.parameters[name] = plain.parse(raw, f"--param {name}")
    scalars = _ScalarParser(doc.parameters)

    for index, body in enumerate(top["spaces"]):
        path = f"document.spaces[{index}]"
        _expect(body, dict, path, "a space object")
        fields = _take(
            body, path,
            {"name": _STR, "dim": (int, "an integer")},
            {"labels": (*_LIST, None)},
        )
        name = _parse_name(fields["name"], f"{path}.name")
        if fields["dim"] > _WORK_BUDGET:
            raise InputError(
                f"{path}: space {name!r} has dimension {fields['dim']}, "
                f"above the work budget of {_WORK_BUDGET}"
            )
        labels = fields["labels"]
        if labels is not None:
            labels = tuple(
                _expect(lab, str, f"{path}.labels[{i}]", "a label string")
                for i, lab in enumerate(labels)
            )
        if name in doc.spaces:
            raise InputError(f"{path}: duplicate space name {name!r}")
        doc.add_space(Space(name, fields["dim"], labels))

    structures = top["structures"]
    for kind in structures:
        if kind not in _KINDS:
            raise InputError(
                f"document.structures: unknown kind {kind!r} "
                f"(known: {', '.join(KIND_ORDER)})"
            )
    for kind, spec in _KINDS.items():
        if kind not in structures:
            continue
        bodies = _expect(
            structures[kind], list, f"document.structures.{kind}", "a list"
        )
        for index, body in enumerate(bodies):
            path = f"document.structures.{kind}[{index}]"
            _expect(body, dict, path, "an entry object")
            name, obj = spec.parse(doc, body, scalars, path)
            name = _parse_name(name, f"{path}.name")
            if name in doc.entries[kind]:
                raise InputError(f"{path}: duplicate {kind} name {name!r}")
            doc.add(kind, name, obj)
    return doc


def load_document(path: str, overrides: dict | None = None) -> Document:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    return parse_document(text, overrides)


def emit_document(doc: Document) -> str:
    """Serialize to canonical text: sorted names, materialized scalars."""
    pool = Document()  # every space written, one per name
    for space in doc.spaces.values():
        pool.add_space(space)
    structures: dict = {}
    for kind, spec in _KINDS.items():
        registry = doc.entries[kind]
        if registry:
            structures[kind] = [
                spec.emit(doc, name, registry[name], pool.add_space)
                for name in sorted(registry)
            ]

    out: dict = {"format": FORMAT}
    if doc.title is not None:
        out["title"] = doc.title
    out["spaces"] = [_space_entry(pool.spaces[name]) for name in sorted(pool.spaces)]
    out["structures"] = structures
    return json.dumps(out, indent=2) + "\n"
