"""JSON codec: round-trips and strict schema validation."""

import json
from functools import partial

import numpy as np
import pytest

from discordant import serialize
from discordant.errors import DimensionError, InvalidSpec
from discordant.linalg import check_density_matrix
from discordant.serialize import (
    bell_to_json,
    circulant_to_json,
    dense_to_json,
    encode_complex_matrix,
    load_state_file,
    parse_state,
)
from discordant.states import (
    MAX_DIMENSION,
    BellWeights,
    CirculantSpec,
    _lambda_sectors,
    bell_diagonal_state,
    circulant_state,
    commuting_group_invariant_state,
    isotropic_state,
    orthogonal_invariant_state,
    werner_state,
)


def test_circulant_round_trip():
    spec = werner_state(3, 0.2)
    loaded = parse_state(circulant_to_json(spec))
    assert loaded.kind == "circulant"
    assert loaded.d == 3
    for got, want in zip(loaded.spec.a, spec.a):
        np.testing.assert_allclose(got, want, atol=0)
    np.testing.assert_allclose(loaded.rho, circulant_state(spec), atol=0)


def test_dense_round_trip():
    rho = circulant_state(werner_state(2, -0.4))
    loaded = parse_state(dense_to_json(rho, 2))
    assert loaded.kind == "dense"
    np.testing.assert_allclose(loaded.rho, rho, atol=0)


def test_bell_round_trip():
    p = np.array([[0.4, 0.1], [0.3, 0.2]])
    loaded = parse_state(bell_to_json(2, p))
    assert loaded.kind == "bell"
    np.testing.assert_allclose(loaded.weights.p, p, atol=0)
    ref = circulant_state(bell_diagonal_state(BellWeights(2, p)))
    np.testing.assert_allclose(loaded.rho, ref, atol=1e-14)


def test_named_family_parsing():
    loaded = parse_state({"kind": "werner", "d": 3, "lambda": 0.2})
    ref = circulant_state(werner_state(3, 0.2))
    np.testing.assert_allclose(loaded.rho, ref, atol=0)
    np.testing.assert_array_equal(loaded.spec.a, werner_state(3, 0.2).a)

    loaded = parse_state({"kind": "orthogonal", "d": 2, "abc": [0.2, 0.5, 0.3]})
    assert loaded.kind == "orthogonal"
    assert loaded.rho.shape == (4, 4)


def test_unknown_and_missing_fields_rejected():
    with pytest.raises(InvalidSpec):
        parse_state({"kind": "werner", "d": 3, "lambda": 0.2, "extra": 1})
    with pytest.raises(InvalidSpec):
        parse_state({"kind": "werner", "d": 3})
    with pytest.raises(InvalidSpec):
        parse_state({"kind": "mystery", "d": 3})
    with pytest.raises(InvalidSpec):
        parse_state({"d": 3, "lambda": 0.2})


def test_malformed_descriptions_rejected():
    # a field of the wrong shape, a description that is not an object, a bool lambda
    with pytest.raises(DimensionError, match=r"field 'p' must have shape \(2, 2\)"):
        parse_state({"kind": "bell", "d": 2, "p": [0.25, 0.25, 0.25, 0.25]})
    for obj in ([{"kind": "werner", "d": 2, "lambda": 0.1}], "werner", None):
        with pytest.raises(InvalidSpec, match="must be an object"):
            parse_state(obj)
    with pytest.raises(InvalidSpec, match="'lambda' must be a number"):
        parse_state({"kind": "werner", "d": 2, "lambda": True})


def test_numpy_numbers_and_arrays_parse_as_their_lists():
    rho = orthogonal_invariant_state((0.2, 0.5, 0.3), 2)
    as_lists = [
        {"kind": "werner", "d": 3, "lambda": 0.25},
        {"kind": "isotropic", "d": 3, "lambda": 0},
        {"kind": "orthogonal", "d": 2, "abc": [0.2, 0.5, 0.3]},
        bell_to_json(2, [[0.4, 0.1], [0.3, 0.2]]),
        dense_to_json(rho, 2),
    ]
    as_numpy = [
        {"kind": "werner", "d": 3, "lambda": np.float64(0.25)},
        {"kind": "isotropic", "d": np.int64(3), "lambda": np.int32(0)},
        {"kind": "orthogonal", "d": 2, "abc": np.array([0.2, 0.5, 0.3])},
        {"kind": "bell", "d": 2, "p": [np.array([0.4, 0.1]), [np.float64(0.3), 0.2]]},
        {"kind": "dense", "d": 2, "rho": np.stack([rho.real, rho.imag], -1)},
    ]
    for listed, numpy in zip(as_lists, as_numpy):
        assert parse_state(numpy).rho.tobytes() == parse_state(listed).rho.tobytes(), listed


def test_d_must_be_integer_at_least_two():
    with pytest.raises(InvalidSpec):
        parse_state({"kind": "werner", "d": 1, "lambda": 0.0})
    with pytest.raises(InvalidSpec):
        parse_state({"kind": "werner", "d": 2.0, "lambda": 0.0})
    with pytest.raises(InvalidSpec):
        parse_state({"kind": "werner", "d": True, "lambda": 0.0})


@pytest.mark.parametrize("kind", ["werner", "isotropic"])
def test_d_above_the_bound_is_rejected_before_building(kind, monkeypatch):
    # d = 10**10 raised NumPy's "array is too big" and d = 10**20 "Maximum
    # allowed dimension exceeded", both uncaught; d = 33 built a state
    monkeypatch.setattr(serialize, "_lambda_sectors", None)  # a call would raise TypeError
    for d in (MAX_DIMENSION + 1, 10**10, 10**20):
        with pytest.raises(InvalidSpec, match=f"2 ≤ d ≤ {MAX_DIMENSION}"):
            parse_state({"kind": kind, "d": d, "lambda": 0.1})


@pytest.mark.parametrize("as_rho", [False, True])
def test_deeply_nested_file_is_rejected(tmp_path, as_rho):
    # json.load's RecursionError escaped uncaught, alone and as a dense state's rho
    nested = "[" * 100000 + "]" * 100000
    text = f'{{"kind": "dense", "d": 2, "rho": {nested}}}' if as_rho else nested
    path = tmp_path / "deep.json"
    path.write_text(text)
    with pytest.raises(InvalidSpec, match="not valid JSON"):
        load_state_file(str(path))


def test_malformed_matrix_entries_rejected():
    obj = circulant_to_json(werner_state(2, 0.2))
    obj["a"][0][0][0] = [1.0]  # a complex entry needs [re, im]
    with pytest.raises(DimensionError, match="field 'a' is ragged"):
        parse_state(obj)
    obj2 = circulant_to_json(werner_state(2, 0.2))
    obj2["a"] = obj2["a"][:1]  # wrong sector count
    with pytest.raises(DimensionError, match="field 'a' must have shape"):
        parse_state(obj2)


def test_only_the_schema_parse_skips_the_psd_check():
    raw = serialize._parse({"kind": "werner", "d": 2, "lambda": 1.0}).spec  # not PSD
    obj = circulant_to_json(raw)
    loaded = serialize._parse(obj)
    assert loaded.d == 2
    with pytest.raises(InvalidSpec):
        parse_state(obj)


def test_load_state_file(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(circulant_to_json(werner_state(2, 0.1))))
    loaded = load_state_file(str(path))
    assert loaded.d == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InvalidSpec):
        load_state_file(str(bad))


def test_bell_weights_validated_on_parse():
    p = np.array([[0.6, 0.1], [0.3, 0.2]])  # sums to 1.2
    with pytest.raises(InvalidSpec):
        parse_state(bell_to_json(2, p))


NAN, INF = float("nan"), float("inf")


def test_check_density_matrix_rejects_non_finite():
    # NaN compares false against every bound, so without an explicit check
    # this state passes Hermiticity, trace and positivity
    rho = circulant_state(isotropic_state(2, 0.0)).copy()
    rho[0, 0] = NAN
    with pytest.raises(InvalidSpec, match="non-finite"):
        check_density_matrix(rho)


def test_dense_non_finite_entry_rejected_on_parse():
    obj = dense_to_json(circulant_state(isotropic_state(2, 0.0)), 2)
    obj["rho"][0][0] = [NAN, 0.0]
    with pytest.raises(InvalidSpec, match="non-finite"):
        parse_state(obj)


def test_non_finite_lambda_rejected_on_parse():
    for kind in ("werner", "isotropic"):
        for lam in (NAN, INF, -INF):
            with pytest.raises(InvalidSpec, match="non-finite"):
                parse_state({"kind": kind, "d": 2, "lambda": lam})
        # a JSON integer too large for a float
        with pytest.raises(InvalidSpec, match="lambda"):
            parse_state({"kind": kind, "d": 2, "lambda": 10**400})


def test_non_finite_bell_weights_rejected_on_parse():
    with pytest.raises(InvalidSpec, match="non-finite"):
        parse_state({"kind": "bell", "d": 2, "p": [[0.25, NAN], [0.25, 0.25]]})


def test_non_finite_matrix_entries_rejected_on_parse():
    obj = circulant_to_json(werner_state(2, 0.2))
    obj["a"][1][0][1] = [0.1, INF]
    with pytest.raises(InvalidSpec, match="non-finite"):
        parse_state(obj)
    with pytest.raises(InvalidSpec, match="non-finite"):
        parse_state({"kind": "orthogonal", "d": 2, "abc": [NAN, 0.5, 0.5]})


def test_family_constructors_reject_non_finite_parameters():
    unchecked = (partial(_lambda_sectors, kind) for kind in ("werner", "isotropic"))
    for build in (werner_state, isotropic_state, *unchecked):
        for lam in (NAN, INF):
            with pytest.raises(InvalidSpec, match="finite"):
                build(3, lam)
    with pytest.raises(InvalidSpec, match="finite"):
        orthogonal_invariant_state((NAN, 0.5, 0.5), 2)


def test_commuting_kind_parses_to_its_circulant_state():
    a0 = np.array([[0.1, 0.02 + 0.03j, 0.0], [0.02 - 0.03j, 0.1, 0.01], [0.0, 0.01, 0.1]])
    dmat = np.array([[0.0, 0.1, 0.05], [0.2, 0.0, 0.1], [0.15, 0.1, 0.0]])
    loaded = parse_state(json.loads(json.dumps({
        "kind": "commuting", "d": 3,
        "a0": encode_complex_matrix(a0), "dmat": dmat.tolist(),
    })))
    assert loaded.kind == "commuting"
    spec = commuting_group_invariant_state(a0, dmat)
    np.testing.assert_array_equal(loaded.rho, circulant_state(spec))
    np.testing.assert_array_equal(loaded.spec.a, spec.a)


def test_writers_refuse_what_parse_state_refuses():
    # the writers wrote the non-JSON tokens NaN and Infinity, and "d": true, none of
    # which parse_state reads back
    spec = werner_state(2, 0.2)
    rho, p = circulant_state(spec), np.full((2, 2), 0.25)
    writes = [lambda: circulant_to_json(CirculantSpec(1, [[[1.0]]]))]
    for bad in (np.nan, np.inf, -np.inf):
        a, r, q = spec.a.copy(), rho.copy(), p.copy()
        a[1, 0, 1] = r[0, 3] = q[1, 0] = bad
        writes += [lambda a=a: circulant_to_json(CirculantSpec(2, a)),
                   lambda r=r: dense_to_json(r, 2), lambda q=q: bell_to_json(2, q)]
    for d in (True, 1, MAX_DIMENSION + 1):
        writes += [lambda d=d: dense_to_json(np.eye(int(d) ** 2), d),
                   lambda d=d: bell_to_json(d, np.eye(int(d)))]
    for write in writes:
        with pytest.raises(InvalidSpec):
            write()
    # and a field of a shape that parse_state refuses for the d written with it
    for write in (lambda: dense_to_json(np.eye(4) / 4, 3),
                  lambda: bell_to_json(3, np.full((2, 2), 0.25))):
        with pytest.raises(DimensionError, match=r"^field '(rho|p)' must have shape "):
            write()
