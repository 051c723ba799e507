"""Domain and spectrum types plus multiplicity bookkeeping.

A buckling spectrum on a geodesic cap decomposes over azimuthal modes: each
degree-m spherical-harmonic channel contributes a 1D radial spectrum, and
every radial eigenvalue enters the full spectrum with the multiplicity of
degree-m harmonics on the boundary sphere. The helpers here validate
spectra, expand multiplicities, and (de)serialize spectrum files. The
package's CSV writer, _csv, lives here too; every JSON document the
package emits is json.dumps(doc, indent=2).
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass, field
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
    """Outcome of validate_spectrum: the hard errors, none when valid."""

    errors: tuple[Exception, ...]

    @property
    def valid(self) -> bool:
        return not self.errors


def validate_spectrum(s: Spectrum) -> ValidationResult:
    """Check dimension, finiteness, ordering, positivity and lambda > n - 2.

    A first value below n is no error: user-supplied spectra may be
    hypothetical, and every bound formula remains well defined on
    lambda > n - 2.
    """
    errors: list[Exception] = []
    vals = s.values
    if s.n < 2:
        errors.append(InvalidInput(f"ambient dimension must be >= 2, got {s.n!r}"))
    if not vals:
        errors.append(NonPositive("spectrum is empty"))
        return ValidationResult(tuple(errors))
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
    return ValidationResult(tuple(errors))


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
    return json.dumps(doc, indent=2)


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
