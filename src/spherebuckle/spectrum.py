"""Domain and spectrum types plus multiplicity bookkeeping.

A buckling spectrum on a geodesic cap decomposes over azimuthal modes: each
degree-m spherical-harmonic channel contributes a 1D radial spectrum, and
every radial eigenvalue enters the full spectrum with the multiplicity of
degree-m harmonics on the boundary sphere. The helpers here validate
spectra, expand multiplicities, and (de)serialize spectrum files. The
package's two writers live here too: _dumps, the indent-2 JSON writer,
and _csv, the CSV writer, behind every document the package emits.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass, field
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from math import comb, isfinite, pi
from typing import Any, Iterable, Mapping, Sequence

from .errors import InsufficientModes, InvalidInput, NonPositive, SingularTerm, Unsorted

__all__ = [
    "CapDomain",
    "Spectrum",
    "EigenPair",
    "ValidationResult",
    "validate_spectrum",
    "harmonic_multiplicity",
    "merge_modes",
    "spectrum_to_json",
    "spectrum_from_json",
    "save_spectrum",
    "load_spectrum",
]


@dataclass(frozen=True)
class CapDomain:
    """Geodesic cap {theta <= theta0} on the unit sphere S^n."""

    n: int
    theta0: float

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 2:
            raise InvalidInput(f"ambient dimension must be an integer >= 2, got {self.n!r}")
        if not (0.0 < self.theta0 < pi):
            raise InvalidInput(f"aperture must lie in (0, pi), got {self.theta0!r}")


@dataclass(frozen=True)
class Spectrum:
    """Ordered eigenvalues with multiplicities expanded, plus provenance."""

    n: int
    values: tuple[float, ...]
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class EigenPair:
    """One radial eigenpair: eigenvalue, azimuthal index, profile samples.

    The profile is f(theta) at the cell centers of the fixed
    solver.PAIR_CELLS-cell grid, normalized so that grid's discrete
    Dirichlet form (a sampled B quadratic form) equals 1.
    """

    value: float
    m: int
    theta: tuple[float, ...]
    profile: tuple[float, ...]


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of validate_spectrum: hard errors plus a soft warning flag."""

    errors: tuple[Exception, ...]
    warn_below_n: bool

    @property
    def valid(self) -> bool:
        return not self.errors


def validate_spectrum(s: Spectrum) -> ValidationResult:
    """Check dimension, finiteness, ordering, positivity and lambda > n - 2.

    A first value below n is only flagged, not rejected: user-supplied
    spectra may be hypothetical, and every bound formula remains well
    defined on lambda > n - 2.
    """
    errors: list[Exception] = []
    vals = s.values
    if s.n < 2:
        errors.append(InvalidInput(f"ambient dimension must be >= 2, got {s.n!r}"))
    if not vals:
        errors.append(NonPositive("spectrum is empty"))
        return ValidationResult(tuple(errors), False)
    floor = s.n - 2
    rules = (
        # NaN compares false with everything, so it would pass every test below.
        (InvalidInput, "must be finite", (not isfinite(v) for v in vals)),
        (Unsorted, "is below the one before it", (b < a for a, b in zip(vals[:1] + vals, vals))),
        (NonPositive, "must be strictly positive", (v <= 0.0 for v in vals)),
        (SingularTerm, f"must exceed n - 2 = {floor}", (v <= floor for v in vals)),
    )
    for error, rule, flags in rules:
        i = _first(flags)
        if i is not None:
            errors.append(error(f"value {i} ({vals[i]!r}) {rule}"))
    warn = vals[0] < s.n
    return ValidationResult(tuple(errors), warn)


def _first(flags: Iterable[bool]) -> int | None:
    """Index of the first true flag, or None: an error names one value, not all of them."""
    return next((i for i, bad in enumerate(flags) if bad), None)


def harmonic_multiplicity(n: int, m: int) -> int:
    """Dimension of degree-m spherical harmonics on S^(n-1).

    Equals 1 for m = 0 and C(m+d, d) - C(m+d-2, d) with d = n - 1 otherwise
    (a binomial with negative upper argument counts as zero).
    """
    if n < 2 or m < 0:
        raise InvalidInput(f"need n >= 2 and m >= 0, got n={n}, m={m}")
    if m == 0:
        return 1
    d = n - 1
    first = comb(m + d, d)
    second = comb(m + d - 2, d) if m + d - 2 >= d else 0
    return first - second


def merge_modes(
    mode_lists: Iterable[tuple[int, Sequence[float]]] | Mapping[int, Sequence[float]],
    n: int,
    k: int,
    meta: dict[str, Any] | None = None,
) -> Spectrum:
    """Expand per-mode eigenvalues by harmonic multiplicity and take the k smallest.

    Accepts (m, values) pairs or a mapping m -> values. Ties are preserved
    exactly; no de-duplication tolerance is applied.
    """
    if k < 1:
        raise InvalidInput(f"k must be >= 1, got {k}")
    if isinstance(mode_lists, Mapping):
        mode_lists = mode_lists.items()
    expanded: list[float] = []
    for m, vals in mode_lists:
        mult = harmonic_multiplicity(n, m)
        prev = None
        for v in vals:
            v = float(v)
            if prev is not None and v < prev:
                raise Unsorted(f"mode {m} eigenvalue list not nondecreasing")
            prev = v
            expanded.extend([v] * mult)
    if len(expanded) < k:
        raise InsufficientModes(
            f"only {len(expanded)} expanded values available, need {k}"
        )
    expanded.sort()
    return Spectrum(n=n, values=tuple(expanded[:k]), meta=dict(meta or {}))


_CONTAINERS = (dict, list, tuple)
_NUMBERS = {int, float, bool}
_SCALARS = {*_NUMBERS, str, type(None)}


def _c_encode(obj: Any, depth: int) -> str:
    """obj through json's C encoder, items separated as indent=2 does at depth.

    The C encoder serves only indent=None, so the newline and indentation
    ride in the item separator instead.
    """
    return json.JSONEncoder(separators=(",\n" + "  " * depth, ": ")).encode(obj)


def _any_container(kinds: set[type]) -> bool:
    """Whether values of these types include a container.

    issubclass on each distinct type answers as isinstance on every value
    would, subclasses included, while the set itself is built at C speed.
    """
    return any(issubclass(t, _CONTAINERS) for t in kinds)


def _text(value: Any) -> str:
    """One scalar's JSON text: the exact scalar types directly, anything else through json."""
    kind = type(value)
    if kind is float and isfinite(value):
        return float.__repr__(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    return _c_encode(value, 0)  # bool, None, non-finite floats, subclasses, unknown types


_Texts = dict[frozenset, dict[Any, str]]


def _column(values: tuple[Any, ...], kinds: set[type], texts: _Texts) -> list[str]:
    """The text of each value of one array-of-objects column (values, of types kinds).

    texts holds, per document, one cache of value -> text for each kind
    of number a column holds, so True, 1 and 1.0 (equal as keys) never
    share one, and each distinct value's text is made once. Float zeros
    are never cached, since -0.0 == 0.0; a NaN key matches only itself.
    A column mixing kinds of number, or holding anything but exact
    scalars, takes each value's text afresh.
    """
    numbers = kinds & _NUMBERS
    if len(numbers) > 1 or not kinds <= _SCALARS:
        return list(map(_text, values))
    cache = texts.setdefault(frozenset(numbers), {})
    for value in set(values).difference(cache):
        if value != 0.0 or type(value) is not float:
            cache[value] = _text(value)
    out = list(map(cache.get, values))
    i = -1
    for _ in range(out.count(None)):  # float zeros
        i = out.index(None, i + 1)
        out[i] = _text(values[i])
    return out


def _shared_columns(rows: Any, kinds: set[type]) -> list[tuple[tuple, set[type]]] | None:
    """Each value column of an array of flat objects that share one key order, with its types.

    None unless every member is a dict with the first member's string keys
    in the same order, and no value is a container.
    """
    if not all(issubclass(t, dict) for t in kinds):
        return None
    keys = tuple(rows[0])  # iterating a dict yields its keys
    if not keys or set(map(type, keys)) != {str} or set(map(tuple, rows)) != {keys}:
        return None
    columns = [(col, set(map(type, col))) for col in zip(*map(dict.values, rows))]
    if any(_any_container(col_kinds) for _, col_kinds in columns):
        return None
    return columns


def _write_json(obj: Any, depth: int, out: list[str], texts: _Texts) -> None:
    if not isinstance(obj, _CONTAINERS) or not obj:
        out.append(_c_encode(obj, depth))
        return
    outer, inner = "\n" + "  " * depth, "\n" + "  " * (depth + 1)
    is_dict = isinstance(obj, dict)
    values = obj.values() if is_dict else obj
    kinds = set(map(type, values))
    if not _any_container(kinds):
        # A leaf container: the separators already give its inner lines.
        text = _c_encode(obj, depth + 1)
        out += (text[0], inner, text[1:-1], outer, text[-1])
    elif not is_dict and (columns := _shared_columns(obj, kinds)) is not None:
        # An array of flat objects with one key order, written through one
        # row template: each key's head is encoded once, and row i is
        # head_0 text_0[i] head_1 text_1[i] ... "}".
        deeper = "\n" + "  " * (depth + 2)
        heads = ["," + deeper + encode_basestring_ascii(key) + ": " for key in obj[0]]
        heads[0] = "{" + heads[0][1:]
        texts_by_key = (_column(col, col_kinds, texts) for col, col_kinds in columns)
        template = chain.from_iterable(zip(map(repeat, heads), texts_by_key))
        rows = map("".join, zip(*template, repeat(inner + "}")))
        out += ("[", inner, ("," + inner).join(rows), outer, "]")
    else:
        # Each key as json converts (or rejects) it, followed by ": ".
        keys = [_c_encode({k: None}, 0)[1:-5] for k in obj] if is_dict else [""] * len(obj)
        opening, closing = "{}" if is_dict else "[]"
        out.append(opening)
        for i, (key, value) in enumerate(zip(keys, values)):
            out += ("," if i else "", inner, key)
            _write_json(value, depth + 1, out, texts)
        out += (outer, closing)


def _dumps(doc: Any) -> str:
    """Exactly json.dumps(doc, indent=2), without json's pure-Python encoder.

    indent=2 switches json off its C encoder. Here every leaf container
    (an object or array of scalars) takes one C-encoder call, and every
    array of flat objects that share one key order is written through one
    row template, with the text of each distinct scalar made once per
    document (_column); only the containers above them are walked in
    Python. Which of these a container is follows from the set of its
    values' types (and its members' keys and values' types), not from a
    test of each value. The pieces are joined once at the end, so the
    document is copied once, not once per level.
    """
    out: list[str] = []
    _write_json(doc, 0, out, {})
    return "".join(out)


def _cell(value: Any) -> str:
    if isinstance(value, float):  # the common cell first
        return f"{value:.17g}"
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else str(value)


def _csv(head: Sequence[str], rows: Iterable[Iterable[Any]]) -> str:
    """The CSV document with header row `head` and one line per row, newline-ended.

    One cell rule serves every CSV the package emits: None is an empty
    cell, a bool is true/false, a float is %.17g (it reads back as the
    same float), anything else is str.
    """
    lines = [",".join(head)]
    lines += [",".join(map(_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def spectrum_to_json(s: Spectrum, domain: CapDomain | None = None) -> str:
    doc = {
        "n": s.n,
        "domain": None
        if domain is None
        else {"type": "cap", "theta0": float(domain.theta0)},
        "eigenvalues": list(s.values),
        "meta": s.meta,
    }
    return _dumps(doc)


_KINDS = {int: "an integer", float: "a number", str: "a string", list: "a list", dict: "an object"}


def _typed(value: Any, what: str, kind: Any, error: type[Exception] = InvalidInput) -> Any:
    """value read as the JSON kind: int, float, str, list, dict, or [t], a list of t.

    Nothing is coerced: a JSON boolean is no number, and an integer is a
    float only within the float range. A list of t comes back as a tuple.
    """
    if isinstance(kind, list):
        return tuple(_typed(v, what, kind[0], error) for v in _typed(value, what, list, error))
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise error(f"{what} must be {_KINDS[kind]}, got {reprlib.repr(value)}")
    if kind is not float:
        return value
    try:
        return float(value)
    except OverflowError as exc:  # a JSON integer beyond the float range
        raise error(f"{what} is out of range: {reprlib.repr(value)}") from exc


def spectrum_from_json(text: str) -> tuple[Spectrum, CapDomain | None]:
    """Parse a spectrum document as written by spectrum_to_json.

    The schema is checked before anything is converted: n an integer,
    eigenvalues a list of numbers, meta an object (or absent/null), and
    domain null or {"type": "cap", "theta0": <number>}. Any mismatch,
    and any spectrum validate_spectrum rejects, raises InvalidInput.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past Python's digit limit
        raise InvalidInput(f"not valid JSON: {exc}") from exc
    doc = _typed(doc, "spectrum document", dict)
    n = _typed(doc.get("n"), "n", int)
    values = _typed(doc.get("eigenvalues"), "eigenvalues", [float])
    meta = doc.get("meta")
    meta = {} if meta is None else _typed(meta, "meta", dict)
    dom_doc = doc.get("domain")
    domain = None
    if dom_doc is not None:
        if _typed(dom_doc, "domain", dict).get("type") != "cap":
            raise InvalidInput(f"unknown domain type {dom_doc.get('type')!r}")
        domain = CapDomain(n=n, theta0=_typed(dom_doc.get("theta0"), "theta0", float))
    spectrum = Spectrum(n=n, values=values, meta=meta)
    errors = validate_spectrum(spectrum).errors
    if errors:
        raise errors[0]
    return spectrum, domain


def save_spectrum(path: str, s: Spectrum, domain: CapDomain | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(spectrum_to_json(s, domain))
        fh.write("\n")


def load_spectrum(path: str) -> tuple[Spectrum, CapDomain | None]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InvalidInput(f"cannot read spectrum file {path!r}: {exc}") from exc
    return spectrum_from_json(text)
