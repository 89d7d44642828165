"""JSON ingestion and emission for state descriptions.

The single ingestion schema (complex numbers as [re, im] pairs):

    { "kind": "circulant"|"bell"|"werner"|"isotropic"|"orthogonal"
              |"commuting"|"dense",
      "d": int,
      "a": [ d matrices, each d×d of [re, im] ],   # circulant
      "p": [[real]],                               # bell weights
      "lambda": real,                              # werner / isotropic
      "abc": [real, real, real],                   # orthogonal
      "a0": [[[re, im]]], "dmat": [[real]],        # commuting
      "rho": [[[re, im]]] }                        # dense d²×d²

Unknown fields are rejected; numbers must be JSON numbers (not
booleans or strings), are parsed as 64-bit floats and must be finite.
:func:`parse_state` also checks each kind's invariants; the CLI's ``build`` alone skips them.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec
from .states import (
    BellWeights,
    CirculantSpec,
    _dense_states,
    _lambda_sectors,
    _require_dimension,
    bell_diagonal_state,
    commuting_group_invariant_state,
    orthogonal_invariant_state,
    validate_circulant_spec,
)
from .linalg import _array, _require_finite, check_density_matrix

_KIND_FIELDS = {
    "circulant": {"a"},
    "bell": {"p"},
    "werner": {"lambda"},
    "isotropic": {"lambda"},
    "orthogonal": {"abc"},
    "commuting": {"a0", "dmat"},
    "dense": {"rho"},
}


@dataclass
class LoadedState:
    """A parsed state: always the dense matrix ``rho``.

    Every kind but ``orthogonal`` and ``dense`` also carries its circulant
    ``spec``, and ``bell`` its ``weights``.
    """

    kind: str
    d: int
    rho: np.ndarray
    spec: CirculantSpec | None = None
    weights: BellWeights | None = None


def encode_complex_matrix(M: np.ndarray) -> list:
    """A complex array of any shape as nested lists with an [re, im] pair for each entry."""
    M = np.asarray(M, dtype=complex)
    return np.stack([M.real, M.imag], -1).tolist()


def decode_complex_matrix(obj, shape: tuple[int, ...], name: str) -> np.ndarray:
    """A complex array from its [re, im] pairs, read by :func:`decode_real_matrix`."""
    arr = decode_real_matrix(obj, (*shape, 2), name)
    return arr[..., 0] + 1j * arr[..., 1]


def decode_real_matrix(obj, shape: tuple[int, ...], name: str) -> np.ndarray:
    """A finite float array of ``shape`` from ints and floats; a bool, string or null raises
    :class:`InvalidSpec`, ragged nesting or another shape :class:`DimensionError`."""
    label = f"field {name!r}"
    arr, entries = _array(obj, label, None), [obj]
    for _ in range(arr.ndim):  # each entry's type, since NumPy reads "0.5" and true as numbers
        entries = itertools.chain.from_iterable(entries)
    bad = sorted(t.__name__ for t in set(map(type, entries))
                 if t is bool or not issubclass(t, (int, float, np.integer, np.floating)))
    if bad:
        raise InvalidSpec(f"{label} must be a number or lists of numbers, not {bad[0]}")
    arr = _array(arr, label, float, shape)
    _require_finite(arr, label)
    return arr


def _readable(d, values, name: str, dtype=complex) -> np.ndarray:
    """``values`` as the array that :func:`parse_state` reads as field ``name`` with ``d``:
    a JSON writer writes no ``true``, ``NaN`` or shape that parse_state would refuse."""
    _require_dimension(d)
    shape = {"a": (d, d, d), "rho": (d * d, d * d), "p": (d, d)}[name]
    values = _array(values, f"field {name!r}", dtype, shape)
    _require_finite(values, f"field {name!r}")
    return values


def circulant_to_json(spec: CirculantSpec) -> dict:
    a = _readable(spec.d, spec.a, "a")
    return {"kind": "circulant", "d": spec.d, "a": encode_complex_matrix(a)}


def dense_to_json(rho: np.ndarray, d: int) -> dict:
    rho = _readable(d, rho, "rho")
    return {"kind": "dense", "d": d, "rho": encode_complex_matrix(rho)}


def bell_to_json(d: int, p: np.ndarray) -> dict:
    p = _readable(d, p, "p", float)
    return {"kind": "bell", "d": d, "p": p.tolist()}


def _parse(obj: dict) -> LoadedState:
    """:func:`parse_state` by the schema alone: a state that breaks its kind's invariants is
    built all the same, unless its constructor (bell, commuting, orthogonal) checks them."""
    if not isinstance(obj, dict):
        raise InvalidSpec(f"state description must be an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind not in _KIND_FIELDS:
        raise InvalidSpec(f"unknown kind {kind!r}; expected one of {sorted(_KIND_FIELDS)}")
    allowed = {"kind", "d"} | _KIND_FIELDS[kind]
    unknown = set(obj) - allowed
    if unknown:
        raise InvalidSpec(f"unknown fields {sorted(unknown)} for kind {kind!r}")
    missing = allowed - set(obj)
    if missing:
        raise InvalidSpec(f"missing fields {sorted(missing)} for kind {kind!r}")
    d = obj["d"]
    _require_dimension(d)

    if kind == "orthogonal":
        abc = decode_real_matrix(obj["abc"], (3,), "abc")
        return LoadedState("orthogonal", d, orthogonal_invariant_state(abc, d))
    if kind == "dense":
        return LoadedState("dense", d, decode_complex_matrix(obj["rho"], (d * d, d * d), "rho"))

    weights = None
    if kind == "circulant":
        spec = CirculantSpec(d, decode_complex_matrix(obj["a"], (d, d, d), "a"))
    elif kind == "bell":
        weights = BellWeights(d, decode_real_matrix(obj["p"], (d, d), "p"))
        spec = bell_diagonal_state(weights)
    elif kind == "commuting":
        a0 = decode_complex_matrix(obj["a0"], (d, d), "a0")
        dmat = decode_real_matrix(obj["dmat"], (d, d), "dmat")
        spec = commuting_group_invariant_state(a0, dmat)
    else:  # werner / isotropic
        lam = float(decode_real_matrix(obj["lambda"], (), "lambda"))
        spec = CirculantSpec(d, _lambda_sectors(kind, d, lam))
    return LoadedState(kind, d, _dense_states(spec.a[None])[0], spec=spec, weights=weights)


def parse_state(obj: dict) -> LoadedState:
    """The :class:`LoadedState` of a schema dict, which must satisfy the schema and its kind's
    invariants (PSD, trace, weights); a violation raises :class:`InvalidSpec`."""
    loaded = _parse(obj)
    if loaded.kind == "dense":
        check_density_matrix(loaded.rho)
    elif loaded.kind in ("circulant", "werner", "isotropic"):
        validate_circulant_spec(loaded.spec)
    return loaded


def _read(path: str):
    """The JSON value of the file at ``path``; text that is not JSON raises :class:`InvalidSpec`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise InvalidSpec(f"{path}: not valid JSON ({exc})") from None


def load_state_file(path: str) -> LoadedState:
    """Parse a state JSON file by :func:`parse_state`."""
    return parse_state(_read(path))
