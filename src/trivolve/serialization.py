"""JSON file formats and deterministic report encoding.

Each spec file kind has one reader here: ``load_algebra`` (a structure
tensor or a group table), ``load_map`` (the matrix and the conjugation
flag), ``load_element``, ``load_group_params`` and ``load_dual_basis``.
Each raises ``ParseError`` for anything it cannot use.

An array declared of shape ``s`` is read by one ``np.asarray``: it holds
either real numbers, in shape ``s``, or ``[re, im]`` pairs, in shape
``s + (2,)``.  Any other shape, a mix of reals and pairs, a string, a
null, ``true`` or ``false``, a non-finite number or an integer too large
for a float is a ``ParseError``.  So is a ``dim`` or a group ``order``
that is not a JSON integer of at least 1.  A group table is a square
matrix of integer element indices that satisfies the group axioms; a
member of a group spec other than ``group``, ``labels`` and ``norm`` is a
``ParseError`` that names it.  An algebra spec's optional ``norm``
member, in either form, names its norm: the one accepted value is
``"ell1"``, the ell-1 norm of the coordinates, which is also what an
absent member means.

``load_algebra`` and ``load_map`` read a spec file one top-level member at
a time.  The arrays they read (``structure``, ``identity``, ``matrix``)
are decoded flat when they are regular arrays of numbers, in a few passes
over the whole text and without a nested list.  Such an array ends before
the next ``"`` or ``}``; it may hold only numbers, brackets, commas and
whitespace, and its skeleton, with each number cut to one ``x`` and the
whitespace deleted, must be that of its shape, so no number touches a
bracket or is split by whitespace.  A number written exactly ``0.0`` skips
``json``: it is ``+0.0``, and only the other numbers are decoded, by one
``json.loads``, as long as they are float64 next to it.  The result is the
array that ``np.asarray`` makes of what ``json`` decodes, bit for bit and
dtype included (ints, ``-0``, ``1E400`` and integers beyond 64 bits
included); a big tensor just skips the hundreds of thousands of nested
lists, and a sparse one most of its numbers.  Every other member, and
every array declined, goes through ``json``'s own decoder.  A file that is
not one JSON object, or whose syntax is bad anywhere, is read again by
``read_json``, so an error takes the path it always took and keeps its
message.

``dumps_report`` writes a report as JSON: two-space indents, one member
or item to a line, ``[]`` and ``{}`` when empty, keys sorted (a key that
is not a string is written as ``str(key)``), strings ASCII-escaped, and a
final newline, so identical inputs produce byte-identical output.  A
float is written as its ``repr``, a NumPy scalar as the Python number it
holds, a tuple as a list.  Complex numbers are always written as
``[re, im]`` pairs.  A list or tuple of numbers with at least one complex
entry is a complex vector and is written wholly as pairs, real entries
included, exactly as the same values in a complex ``ndarray`` would be;
lists without a complex entry are written as they are.  A complex
``ndarray`` is written as pairs, a real one as it is; an array's numbers
go through one ``repr`` pass and one ``str.join``.  Two rules spare that
pass work, and neither changes a byte.  In an array that is mostly
``+0.0``, each ``+0.0`` (the one float whose bits are all 0) is written
``0.0`` without ``repr``, which mirrors the reader's ``0.0`` rule; ``-0.0``
keeps its ``repr``, and a dense array keeps the plain pass.  And within one
report an ndarray object met twice at the same level, as ``arens`` puts
one tensor under ``box`` and ``diamond``, is encoded once.

A non-finite number, which JSON cannot hold, means the inputs overflowed
float64: a ``UsageError`` naming the first one in insertion order, since
a dict's members are encoded in insertion order and sorted afterwards.
"""

from __future__ import annotations

import json
import math
import os
import re
from json.decoder import scanstring
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .algebra import (Algebra, GroupTable, group_algebra, make_algebra,
                      verify_group_table)
from .errors import CertificationFailure, ParseError, UsageError
from .starmap import AlgMap, make_map

_INDENT = "  "

_WHITESPACE = " \t\n\r"  # JSON whitespace, as ``json`` reads it
_WS = re.compile(f"[{_WHITESPACE}]*")
# a number character reads x; brackets, commas and whitespace stay; anything else reads q
_MARK_NUMBERS = bytes(ord("x") if chr(b) in "-+.0123456789eE"
                      else b if chr(b) in "[]," + _WHITESPACE else ord("q") for b in range(256))
_BLANK_BRACKETS = bytes.maketrans(b"[]", b"  ")
_SEPARATOR = bytes.maketrans(b";", b",")
_DECODER = json.JSONDecoder()


def complex_to_pair(z) -> list[float]:
    z = complex(z)
    return [_finite(z.real), _finite(z.imag)]


def _finite(x: float) -> float:
    if not math.isfinite(x):
        raise UsageError(f"the inputs overflow float64: the report would hold {x}")
    return x


def array_from_json(data, shape: tuple[int, ...]) -> np.ndarray:
    """The complex array of ``shape`` that ``data`` holds as reals or as pairs."""
    shape = tuple(shape)
    try:
        arr = np.asarray(data)
        if arr.dtype.kind not in "iufO":
            raise TypeError(f"non-numeric entries ({arr.dtype})")
        if _holds_bool(data):
            raise TypeError("true and false are not numbers")
        if arr.dtype == object:  # an integer beyond 64 bits, or something not a number
            arr = np.asarray(arr - 0)  # keeps each number (-0.0 too), raises on the rest
        arr = arr.astype(float, order="C")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"expected an array of numbers or [re, im] pairs: {exc}") from exc
    if not np.isfinite(arr).all():
        raise ParseError(f"expected finite numbers, got {arr[~np.isfinite(arr)][0]}")
    if arr.shape == shape:
        return arr.astype(complex)
    if arr.shape == shape + (2,):
        return arr.view(complex).reshape(shape)  # a view keeps every bit, -0.0 included
    if arr.size == 0 and arr.shape == shape[:arr.ndim]:  # [] for a leading zero length
        return np.zeros(shape, dtype=complex)
    raise ParseError(f"expected an array of shape {shape}, or of [re, im] pairs of shape "
                     f"{shape + (2,)}; got shape {arr.shape}")


def _holds_bool(data) -> bool:
    """Whether the regular array ``data`` holds a boolean, which ``np.asarray`` reads as 0 or 1."""
    if isinstance(data, np.ndarray) and data.dtype != object:
        return data.dtype.kind == "b"
    leaves = np.asarray(data, dtype=object).ravel().tolist()
    return not {bool, np.bool_}.isdisjoint(map(type, leaves))


def _positive_int(value, name: str) -> int:
    """``value`` when it is a JSON integer of at least 1; a ``ParseError`` otherwise."""
    if type(value) is not int or value < 1:
        raise ParseError(f"{name} must be a positive integer, got {value!r}")
    return value


def group_table(data) -> GroupTable:
    """A group multiplication table: integer element indices, group axioms checked."""
    try:
        table = np.asarray(data)
        if table.dtype.kind not in "iu" or table.ndim != 2 or _holds_bool(data):
            raise ParseError("group table must be a matrix of integer element indices")
        return verify_group_table(table)
    except (ValueError, CertificationFailure) as exc:
        raise ParseError(f"malformed group table: {exc}") from exc


def _is_complex_vector(items) -> bool:
    """True for a non-empty sequence of numbers (bools excluded) with a complex entry."""
    has_complex = False
    for v in items:
        if isinstance(v, bool) or not isinstance(v, (int, float, complex, np.number)):
            return False
        has_complex = has_complex or isinstance(v, (complex, np.complexfloating))
    return has_complex


def _encode(value, level: int, seen: dict) -> str:
    """The JSON text of ``value`` at indent ``level``.

    ``seen`` maps ``(id(array), level)`` to the array and its text, so an
    ndarray met again at the same level is not encoded again; holding the
    array keeps its ``id`` from being reused within the walk.
    """
    if isinstance(value, (float, np.floating)):
        return float.__repr__(_finite(float(value)))
    if isinstance(value, dict):
        # encoded in insertion order, so the first non-finite number is the one named
        members = {str(k): _encode(v, level + 1, seen) for k, v in value.items()}
        return _join([(encode_basestring_ascii(k) + ": ", text)
                      for k, text in sorted(members.items())], "{}", level)
    if isinstance(value, (list, tuple)):
        items = [complex_to_pair(v) for v in value] if _is_complex_vector(value) else value
        return _join([("", _encode(v, level + 1, seen)) for v in items], "[]", level)
    if isinstance(value, np.ndarray):
        key = (id(value), level)
        if key not in seen:
            seen[key] = value, _encode_array(value, level, seen)
        return seen[key][1]
    if isinstance(value, (complex, np.complexfloating)):
        return _encode(complex_to_pair(value), level, seen)
    if isinstance(value, (np.integer, np.bool_)):
        return _encode(value.item(), level, seen)
    return json.dumps(value)  # a str, int, bool or None; anything else raises TypeError


def _join(members: list[tuple[str, str]], brackets: str, level: int) -> str:
    """``(prefix, text)`` members between ``brackets``, one per line; a text is copied once."""
    if not members:
        return brackets
    pad = "\n" + _INDENT * (level + 1)
    parts = [brackets[0]]
    for prefix, text in members:
        parts += [pad, prefix, text, ","]
    parts[-1] = "\n" + _INDENT * level + brackets[1]
    return "".join(parts)


def _encode_array(arr: np.ndarray, level: int, seen: dict) -> str:
    """One ``repr`` pass over the numbers, joined by precomputed separators.

    An array that is mostly ``+0.0`` writes each of those as ``"0.0"`` and
    takes the ``repr`` of the others only; any other array takes the
    ``repr`` of every number.
    """
    if np.iscomplexobj(arr):
        arr = np.asarray(arr, dtype=complex)
        arr = np.stack([arr.real, arr.imag], axis=-1)
    if arr.dtype.kind != "f" or not arr.size or not arr.ndim:
        return _encode(arr.tolist(), level, seen)
    arr = np.asarray(arr, dtype=float)
    if not np.isfinite(arr).all():
        _finite(arr[~np.isfinite(arr)][0])  # raises UsageError
    depth, size = arr.ndim, arr.size
    flat = arr.ravel()
    zero = flat.view(np.uint64) == 0  # +0.0, the one float whose bits are all 0
    if 2 * np.count_nonzero(zero) > size:
        leaves = ["0.0"] * size
        others = np.flatnonzero(~zero)
        for i, text in zip(others.tolist(), map(float.__repr__, flat[others].tolist())):
            leaves[i] = text
    else:
        leaves = map(float.__repr__, flat.tolist())
    pads = ["\n" + _INDENT * (level + d) for d in range(depth + 1)]

    def closing(rolled: int) -> str:
        return "".join(pads[depth - 1 - i] + "]" for i in range(rolled))

    def opening(rolled: int) -> str:
        return "".join("[" + pads[depth - rolled + i + 1] for i in range(rolled))

    def separator(rolled: int) -> str:
        """Between two numbers where the last ``rolled`` indices roll over."""
        return closing(rolled) + "," + pads[depth - rolled] + opening(rolled)

    parts = [separator(0)] * (2 * size - 1)
    parts[::2] = leaves
    step = 2
    for rolled in range(1, depth):
        step *= arr.shape[depth - rolled]
        slots = range(step - 1, 2 * size - 1, step)
        parts[step - 1::step] = [separator(rolled)] * len(slots)
    return opening(depth) + "".join(parts) + closing(depth)


def dumps_report(report: dict) -> str:
    """The report as JSON text, by the rules in the module docstring."""
    return _encode(report, 0, {}) + "\n"


def read_json(path: str | Path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8
        raise ParseError(f"cannot read JSON from {path}: {exc}") from exc


def _regular_shape(skeleton: bytes) -> tuple[int, ...] | None:
    """The shape of a regular array whose skeleton, an ``x`` for each number, is ``skeleton``.

    Each length is read off the text of the first element at its depth
    (the whole text at depth 0) and the skeleton built at the depth below;
    the skeleton of that shape must then be ``skeleton``.  None for any
    other skeleton.
    """
    depth = len(skeleton) - len(skeleton.lstrip(b"["))
    if depth > 32:  # deeper than an ndarray may be
        return None
    shape, regular = [], b"x"
    for k in reversed(range(depth)):
        end = len(skeleton) if k == 0 else skeleton.find(b"]" * (depth - k), k) + depth - k
        n, rest = divmod(end - k - 1, len(regular) + 1)
        if rest or n < 1:
            return None
        shape.insert(0, n)
        regular = b"[%b]" % b",".join([regular] * n)  # never longer than the text
    return tuple(shape) if regular == skeleton else None


def _flat_array(text: str, start: int) -> tuple[np.ndarray, int] | None:
    """The array of numbers at ``text[start]``, decoded flat, and where it ends.

    The array ends before the next ``"`` or ``}``, less trailing whitespace
    and commas.  None unless it holds only numbers, brackets, commas and
    whitespace, and its ``_skeleton`` is that of a regular array.  The
    numbers then go through one ``json.loads``, which checks each of them;
    ``_skip_zeros`` spares it the ``0.0`` tokens.
    """
    stop = min((at for at in (text.find('"', start), text.find("}", start)) if at >= 0),
               default=len(text))
    raw = text[start:stop].rstrip(_WHITESPACE + ",").encode()
    marked = raw.translate(_MARK_NUMBERS)
    if b"q" in marked:
        return None
    number = np.frombuffer(marked, dtype=np.uint8) == ord("x")
    shape = _regular_shape(_skeleton(marked, number))
    if shape is None:
        return None
    try:
        flat = _skip_zeros(raw, np.flatnonzero(number[1:] > number[:-1]), number)
        if flat is None:
            flat = np.asarray(json.loads(b"[" + raw.translate(_BLANK_BRACKETS) + b"]"))
    except (ValueError, OverflowError):  # a bad number
        return None
    return flat.reshape(shape), start + len(raw)


def _skeleton(marked: bytes, number: np.ndarray) -> bytes:
    """``marked`` with each run of ``x`` (where ``number`` is set) cut to one, whitespace deleted.

    A number split by whitespace reads ``xx``, and one that touches a
    bracket from outside reads ``x[`` or ``]x``: no regular skeleton holds
    either.
    """
    cut = np.logical_and(number[1:], number[:-1]).view(np.uint8)  # an x after an x
    cut *= ord("x") - ord(" ")
    np.subtract(np.frombuffer(marked, dtype=np.uint8)[1:], cut, out=cut)
    return marked[:1] + cut.tobytes().translate(None, _WHITESPACE.encode())


def _skip_zeros(raw: bytes, before: np.ndarray, number: np.ndarray) -> np.ndarray | None:
    """``np.asarray`` of the numbers in the regular array ``raw``, ``0.0`` read without ``json``.

    ``before`` holds the index of the character before each number, and
    ``number`` marks every number character.  A number that is exactly
    ``0.0`` is ``+0.0``, which is what ``json`` makes of it; the others are
    joined and go through one ``json.loads``, and each lands at the rank of
    its start.  The result is that of ``json`` on all the numbers, bit for
    bit.  None, so that ``json`` reads them all, when no number is ``0.0``
    or when the others are not all float64 next to a ``0.0``: then
    ``np.asarray`` might pick another dtype.
    """
    text = np.frombuffer(raw, dtype=np.uint8)
    # a 0.0, the non-number after it and the closing bracket: before + 4 < len(raw)
    at = before[:np.searchsorted(before, len(raw) - 4)]
    zero = np.zeros(len(before), dtype=bool)
    zero[:len(at)] = ((text[1:][at] == ord("0")) & (text[2:][at] == ord("."))
                      & (text[3:][at] == ord("0")) & ~number[4:][at])
    if not zero.any():
        return None
    # each other number with the text up to the next one, its first character (never in
    # a number) made a ";", which becomes the comma before it
    kept = np.flatnonzero(~zero)
    first, following = before[kept], before.take(kept + 1, mode="clip")
    following[kept == len(before) - 1] = len(raw)  # the last number runs to the end
    lengths = following - first
    offsets = np.cumsum(lengths) - lengths
    others = text[np.repeat(first - offsets, lengths) + np.arange(lengths.sum())]
    others[offsets] = ord(";")
    others = others.tobytes().translate(_SEPARATOR, b"[]," + _WHITESPACE.encode())
    others = np.asarray([0.0] + json.loads(b"[" + others[1:] + b"]"))
    if others.dtype != np.float64:
        return None
    numbers = np.zeros(len(before))
    numbers[~zero] = others[1:]
    return numbers


def _members(text: str, arrays: tuple[str, ...]) -> dict | None:
    """The members of the JSON object ``text``; None if it is not one.

    A member named in ``arrays`` whose value is a regular array of numbers
    is an ndarray; every other value is what ``json`` decodes.
    """
    idx = _WS.match(text).end()
    if not text.startswith("{", idx):
        return None
    members, idx, sep = {}, _WS.match(text, idx + 1).end(), ","
    while sep == ",":  # an empty object is left to ``read_json``
        if not text.startswith('"', idx):
            return None
        key, idx = scanstring(text, idx + 1)
        idx = _WS.match(text, idx).end()
        if not text.startswith(":", idx):
            return None
        idx = _WS.match(text, idx + 1).end()
        flat = _flat_array(text, idx) if key in arrays and text.startswith("[", idx) else None
        members[key], idx = flat or _DECODER.raw_decode(text, idx)
        idx = _WS.match(text, idx).end()
        sep = text[idx:idx + 1]
        if sep not in ("}", ","):
            return None
        idx = _WS.match(text, idx + 1).end()
    return members if idx == len(text) else None


def _spec_object(source: str | Path | dict, kind: str, arrays: tuple[str, ...]) -> dict:
    """The members of a spec object; those named in ``arrays`` may come as ndarrays.

    A file that ``_members`` declines is read again by ``read_json``, which
    raises the ``ParseError`` it always raised.
    """
    data = source
    if not isinstance(source, dict):
        try:
            with open(source, "r", encoding="utf-8") as handle:
                data = _members(handle.read(), arrays)
        except (OSError, ValueError, RecursionError):  # ValueError: bad JSON or UTF-8
            data = None
        if data is None:
            data = read_json(source)
    if not isinstance(data, dict):
        raise ParseError(f"malformed {kind} spec: expected an object, got {type(data).__name__}")
    return data


def load_algebra(source: str | Path | dict) -> Algebra:
    """Load an algebra spec file (structure tensor or group table)."""
    data = _spec_object(source, "algebra", ("structure", "identity"))
    try:
        norm_tag = data.get("norm", "ell1")
        if norm_tag != "ell1":
            raise ParseError(f"unknown norm tag {norm_tag!r}; the one norm is \"ell1\"")
        if "group" in data:
            unread = [key for key in data if key not in ("group", "labels", "norm")]
            if unread:
                raise ParseError(f"a group spec has only 'group', 'labels' and 'norm' members; "
                                 f"it does not read {', '.join(map(repr, unread))}")
            group = data["group"]
            table = group_table(group["table"])
            if "order" in group and _positive_int(group["order"], "order") != len(table.table):
                raise ParseError("declared group order does not match the table")
            return group_algebra(table, data.get("labels"))
        dim = _positive_int(data["dim"], "dim")
        structure = array_from_json(data["structure"], (dim, dim, dim))
        labels = data.get("labels")
        identity = None
        if data.get("identity") is not None:
            identity = array_from_json(data["identity"], (dim,))
        return make_algebra(dim, structure, labels, declared_identity=identity)
    except ParseError:
        raise
    except CertificationFailure as exc:
        raise ParseError(f"algebra file failed validation: {exc}") from exc
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed algebra spec: {exc}") from exc


def load_map(source: str | Path | dict, default_source: Algebra,
             default_target: Algebra | None = None,
             base_dir: str | Path | None = None) -> AlgMap:
    """Load a map spec; ``source``/``target`` entries may name algebra files.

    A named file must exist and parse; the defaults apply only when the
    entry is absent.
    """
    data = _spec_object(source, "map", ("matrix",))
    if base_dir is None and not isinstance(source, dict):
        base_dir = Path(source).parent

    def resolve(tag, fallback):
        name = data.get(tag)
        if name is None:
            return fallback
        if not isinstance(name, str):
            raise ParseError(f"map {tag} must name an algebra file, got {name!r}")
        candidate = Path(name)
        if base_dir is not None and not candidate.is_absolute():
            candidate = Path(base_dir) / candidate
        return load_algebra(candidate)  # a missing file is a ParseError, not a fallback

    src = resolve("source", default_source)
    tgt = resolve("target", default_target or src)
    if "matrix" not in data:
        raise ParseError("malformed map spec: no 'matrix'")
    conjugating = data.get("conjugating", False)
    if not isinstance(conjugating, bool):
        raise ParseError(f"map 'conjugating' must be true or false, got {conjugating!r}")
    matrix = array_from_json(data["matrix"], (tgt.dim, src.dim))
    return make_map(matrix, conjugating=conjugating, source=src, target=tgt)


def load_element(source, algebra: Algebra) -> np.ndarray:
    """Element coordinates from a file path, inline JSON text, or a list.

    A vector of another length than ``algebra.dim`` is a ``ParseError``.
    """
    data = source
    if isinstance(source, (str, Path)):
        if os.path.isfile(source):  # False, not OSError, for inline text too long for a name
            data = read_json(source)
        else:
            try:
                data = json.loads(str(source))
            except (ValueError, RecursionError) as exc:
                raise ParseError(f"element is neither a file nor inline JSON: {source!r}") from exc
    if isinstance(data, dict):
        data = data.get("coords", data)
    return array_from_json(data, (algebra.dim,))


def load_group_params(path: str | Path) -> dict:
    """Group-family search parameters: a ``table`` and optional ``normal_subgroups``.

    Only those two keys are returned; each subgroup is a list of element indices.
    """
    data = read_json(path)
    if not isinstance(data, dict) or "table" not in data:
        raise ParseError(f"group params {path} must be an object with a 'table' matrix "
                         "of element indices")
    params = {"table": group_table(data["table"])}
    if "normal_subgroups" in data:
        subgroups, n = data["normal_subgroups"], len(params["table"].table)
        if not (isinstance(subgroups, list)
                and all(isinstance(s, list) and all(type(g) is int and 0 <= g < n for g in s)
                        for s in subgroups)):
            raise ParseError(f"group params {path}: 'normal_subgroups' must be a list of "
                             f"lists of element indices below {n}")
        params["normal_subgroups"] = subgroups
    return params


def load_dual_basis(path: str | Path, dim: int) -> np.ndarray:
    """Dual-subspace basis file: a list of functionals (rows), returned as columns."""
    data = read_json(path)
    rows = data.get("basis") if isinstance(data, dict) else data
    if not isinstance(rows, list):
        raise ParseError(f"dual basis {path} must be a list of rows "
                         "or an object with a 'basis' list")
    return array_from_json(rows, (len(rows), dim)).T
