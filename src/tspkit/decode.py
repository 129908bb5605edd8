"""Reading and writing the pipeline's files: typed JSON input, every text output.

``load_json(path, error)`` reads a file. ``decode(value, tp)`` returns a value
parsed by ``json.load`` as the annotated type ``tp``, or raises ValueError
naming the key path of the first mismatch, as in ``config.clip_len: expected
an integer, got null``; each loader adds its file name. An ``int`` is a JSON
integer, not a bool or a float. A ``float`` is any JSON number but a bool,
NaN and the infinities included: range rules belong to the records, whose
constructors check them. A dataclass is an object of its fields, a missing
one taking its default; a key that names no field is an error unless it
starts with ``__``. An ``np.ndarray`` is a flat list of numbers, or a
``{"shape": [...], "data": [...]}`` object, converted by one numpy call rather
than element by element. Each type's decoding function is built once and
cached, so a value costs no type inspection; ``decoder(tp)`` returns it, for
a reader that decodes many values of one type to bind once.

Every text output goes through ``save_json`` (key-sorted JSON),
``save_prediction_rows`` (the bytes ``save_json`` writes for a predictions
document, rendered from a row template) or ``write_rows`` (a table of
already-formatted fields). Each takes the producing invocation, and one rule
decides its line: unless it is None, JSON gets the reserved
``"__invocation__"`` key, which the decoder skips, and a table starts with a
``# flags=`` line.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import types
import typing
from json.encoder import encode_basestring_ascii

import numpy as np

_NAMES = {str: "a string", bool: "a boolean", list: "a list", dict: "an object"}


def load_json(path, error: type[Exception], label: str | None = None):
    """The JSON document in file ``path``. A file that cannot be read or parsed
    raises ``error`` with one line that names it as ``label`` (the path)."""
    label = label or path
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise error(f"{label}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise error(f"{label}: not valid JSON ({exc.msg} at line {exc.lineno}, "
                    f"column {exc.colno})") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{label}: not UTF-8 text ({exc.reason})") from exc


def save_json(doc: dict, path, invocation: str | None, indent: int = 1) -> None:
    """``doc`` as key-sorted JSON, with ``invocation``, unless None, under "__invocation__"."""
    if invocation is not None:
        doc = {**doc, "__invocation__": invocation}
    text = json.dumps(doc, indent=indent, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


# one predictions row as ``save_json`` lays it out two levels deep (indent 1,
# sorted keys), by its number of fields: a proposal's, then a detection's
_ROW_TEMPLATES = {
    3: '  {\n   "score": %s,\n   "segment": [\n    %s,\n    %s\n   ]\n  }',
    4: '  {\n   "label": %s,\n   "score": %s,\n   "segment": [\n    %s,\n    %s\n   ]\n  }',
}


def _json_rows(rows: list[tuple]) -> str:
    if not rows:
        return "[]"
    # one C-encoded list formats every number as the indenting encoder would;
    # a number's text holds no ", "
    numbers = json.dumps([value for row in rows for value in row])[1:-1].split(", ")
    return "[\n" + ",\n".join(_ROW_TEMPLATES[len(row)] for row in rows) % tuple(numbers) + "\n ]"


def save_prediction_rows(rows_by_key: dict[str, list[tuple]], path,
                         invocation: str | None) -> None:
    """What ``save_json`` writes for the document that maps each key to its
    rows, each row a ``{"label", "score", "segment"}`` object: a row is
    ``(score, t_start, t_end)``, or ``(label, score, t_start, t_end)`` with a
    label. Each row is filled into a template, not laid out by json's
    pure-Python indenting encoder."""
    doc = {key: _json_rows(rows) for key, rows in rows_by_key.items()}
    if invocation is not None:
        doc["__invocation__"] = encode_basestring_ascii(invocation)
    items = [f"{encode_basestring_ascii(key)}: {text}" for key, text in sorted(doc.items())]
    text = "{\n " + ",\n ".join(items) + "\n}" if items else "{}"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def write_rows(path, flags: str | None, rows, sep: str = "\t") -> None:
    """Each row's string fields joined by ``sep``, one line per row, after a
    ``# flags=`` line unless ``flags`` is None."""
    with open(path, "w", encoding="utf-8") as fh:
        if flags is not None:
            fh.write(f"# flags={flags}\n")
        fh.writelines(sep.join(row) + "\n" for row in rows)


def _at(where: str) -> str:
    return f"{where}: " if where else ""


def _mismatch(where: str, expected: str, value) -> ValueError:
    got = ("a list" if isinstance(value, list) else "an object" if isinstance(value, dict)
           else json.dumps(value, default=repr))
    return ValueError(f"{_at(where)}expected {expected}, got {got}")


def integer(value, where: str = "") -> int:
    """A JSON integer: not a bool and not a float."""
    if type(value) is not int:
        raise _mismatch(where, "an integer", value)
    return value


def number(value, where: str = "") -> float:
    """Any JSON number but a bool, as a float."""
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _mismatch(where, "a number", value)
    try:
        return float(value)
    except OverflowError:
        raise _mismatch(where, "a number in the float range", value) from None


def _array(value, where: str) -> np.ndarray:
    shape = None
    if isinstance(value, dict):
        shape = decode(value.get("shape"), tuple[int, ...], f"{where}.shape")
        value, where = value.get("data"), f"{where}.data"
    try:
        arr = np.asarray(value) if isinstance(value, list) else None
    except ValueError:  # nested lists of different lengths
        arr = None
    if arr is None or arr.ndim != 1 or arr.dtype.kind not in "iuf":
        raise _mismatch(where, "a flat list of numbers", value)
    if arr.dtype != np.float64:
        arr = arr.astype(np.float64)
    try:
        return arr if shape is None else arr.reshape(shape)
    except ValueError:
        raise ValueError(f"{_at(where)}{arr.size} numbers do not fill shape {shape}") from None


def _is(tp, value, where: str):
    if not isinstance(value, tp):
        raise _mismatch(where, _NAMES[tp], value)
    return value


def _record(cls, fields: dict, value, where: str):
    kwargs, prefix = {}, f"{where}." if where else ""
    _is(dict, value, where)
    for name, (decode_field, has_default) in fields.items():
        if name in value:
            kwargs[name] = decode_field(value[name], prefix + name)
        elif not has_default:
            raise ValueError(f"{prefix}{name}: missing")
    if len(kwargs) != len(value):  # keys that name no field
        unknown = [key for key in value if key not in fields and key[:2] != "__"]
        if unknown:
            raise ValueError(f"{_at(where)}unknown key {unknown[0]!r}")
    return cls(**kwargs)


def decode(value, tp, where: str = ""):
    """``value``, parsed from JSON, as type ``tp``; ``where`` is its key path."""
    return decoder(tp)(value, where)


@functools.cache
def decoder(tp):
    """The function ``(value, where)`` that decodes as ``tp``, built once per type."""
    if tp is float or tp is int:
        return number if tp is float else integer
    if tp is np.ndarray:
        return _array
    if tp in _NAMES:  # str, bool, and untyped list and dict
        return functools.partial(_is, tp)
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        return functools.partial(_record, tp, {
            f.name: (decoder(hints[f.name]), f.default is not dataclasses.MISSING
                     or f.default_factory is not dataclasses.MISSING)
            for f in dataclasses.fields(tp)})
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:  # X | None
        (inner,) = [decoder(arg) for arg in args if arg is not type(None)]
        return lambda value, where: None if value is None else inner(value, where)
    if origin is dict:
        item = decoder(args[1])
        return lambda value, where: {key: item(v, f"{where}.{key}")
                                     for key, v in _is(dict, value, where).items()}
    fixed = origin is tuple and args[-1] is not Ellipsis  # tuple[X, Y], not tuple[X, ...]
    items = [decoder(arg) for arg in (args if fixed else args[:1])]
    item = items[0]
    # items of one type that JSON gives as is (a float, a string, ...) need no
    # conversion, and no key path unless one is not of it
    kinds = set(args if fixed else args[:1])
    plain = kinds.pop() if len(kinds) == 1 and args[0] in (int, float, *_NAMES) else None

    def decode_list(value, where):
        if not isinstance(value, (list, tuple)):  # tuples come from dicts built in memory
            raise _mismatch(where, "a list", value)
        if fixed and len(value) != len(items):
            raise _mismatch(where, f"a list of {len(items)}", value)
        if plain is not None and all(type(v) is plain for v in value):
            out = list(value)
        else:
            out = [(items[i] if fixed else item)(v, f"{where}[{i}]")
                   for i, v in enumerate(value)]
        return out if origin is list else tuple(out)
    return decode_list
