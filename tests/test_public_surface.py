"""Every public callable rejects a bad side, a bool or float integer, a real scalar that is
no finite real number, a ``cfg`` that is no ``OptimizerConfig``, an ``rng`` that is no NumPy
``Generator``, a container that is no sequence, and a non-finite, ragged, non-numeric,
wrong-shaped or (where it is real) complex array with a package error, never a bare
``ValueError``, ``TypeError``, ``IndexError``, ``AttributeError`` or ``ComplexWarning``."""

import numpy as np
import pytest

import discordant as dc

_SPEC = dc.werner_state(3, 0.2)
_RHO = dc.circulant_state(_SPEC)
_ZERO = dc.circulant_state(dc.random_zero_discord_spec(3, "A", np.random.default_rng(0)))
_P = np.full((3, 3), 1 / 9)
_A, _DMAT = np.eye(3) / 6, (1 - np.eye(3)) / 12
#: Stands for the parameter's valid array with a NaN entry.
NAN = object()
#: Marks an array parameter fed no NaN: the records CirculantSpec, BellWeights and
#: MeasurementBasis hold their arrays as given (checked by validate_circulant_spec, the Bell
#: functions and MeasurementBasis.validate), extract_blocks returns a view that reads no
#: entry, and project_circulant reports a NaN residual as NotCirculant.
ARRAY = object()
#: Mark a real scalar, such as ``tol``, a ``cfg`` and an ``rng``.
REAL, CFG, RNG = object(), object(), object()
#: What each scalar parameter is fed besides, by its mark: an integer (True, for it is also
#: fed a bool) two floats of an integer's value, a real scalar a string, None, a bool and a
#: list, a cfg an empty dict, a dict of its fields and a string (None means the default), and
#: an rng None, a seed and a string.
_SCALARS = {True: [3.0, np.float64(3.0)], REAL: ["x", None, True, [0.1]],
            CFG: [{}, {"starts": 1}, "fast"], RNG: [None, 5, "seed"]}
#: What every array parameter, NAN or ARRAY, is fed besides: ragged nesting, a string, and
#: its valid array less the last column.
_FAULTS = {
    "ragged": lambda valid: [[1.0, 2.0], [3.0]],
    "string": lambda valid: "abc",
    "shape": lambda valid: np.asarray(valid)[..., :-1],
}


def _rng():
    return np.random.default_rng(0)


def _cfg():
    return dc.OptimizerConfig(starts=1)


#: name: (valid keyword arguments, {parameter: what it is fed}): "C" where a side or a
#: kind is named, True where an integer goes, NAN or ARRAY where an array goes, REAL or CFG
#: where a real scalar, a cfg or an rng goes.
_TABLE = {
    # the records on a 1×1 stack, which a bool d of 1 would fit
    "BellWeights": (lambda: dict(d=1, p=[[1.0]]), {"d": True, "p": ARRAY}),
    "CirculantSpec": (lambda: dict(d=1, a=[[[1.0]]]), {"d": True, "a": ARRAY}),
    "MeasurementBasis": (lambda: dict(d=1, vectors=[[1.0]]), {"d": True, "vectors": ARRAY}),
    "OptimizerConfig": (lambda: dict(starts=1, seed=0), {"starts": True, "seed": True}),
    "analyze": (lambda: dict(state=dc.parse_state({"kind": "werner", "d": 3, "lambda": 0.2}),
                             sides=["A"], tol=1e-9, cfg=_cfg()),
                {"sides": "C", "tol": REAL, "cfg": CFG}),
    "bell_diagonal_state": (lambda: dict(w=_P), {"w": NAN}),
    "bell_projector": (lambda: dict(m=1, n=2, d=3), {"m": True, "n": True, "d": True}),
    "bell_zero_discord_check": (lambda: dict(w=_P), {"w": NAN, "tol": REAL}),
    "check_density_matrix": (lambda: dict(rho=_RHO), {"rho": NAN}),
    "circulant_necessary_conditions": (lambda: dict(spec=_SPEC, side="A"),
                                       {"side": "C", "tol": REAL}),
    "circulant_theorem_check": (lambda: dict(spec=_SPEC, side="A"), {"side": "C", "tol": REAL}),
    "classical_decomposition": (lambda: dict(rho=_ZERO, d=3, side="A"),
                                {"rho": NAN, "d": True, "side": "C", "tol": REAL}),
    "commuting_group_invariant_state": (lambda: dict(a=_A, dmat=_DMAT), {"a": NAN, "dmat": NAN}),
    "completely_classical_check": (lambda: dict(spec=_SPEC), {"tol": REAL}),
    "conditional_entropy": (
        lambda: dict(rho=_RHO, d=3, basis=dc.MeasurementBasis(3, np.eye(3)), side="A"),
        {"rho": NAN, "d": True, "side": "C"}),
    "discord": (lambda: dict(rho=_RHO, d=3, side="A", cfg=_cfg()),
                {"rho": NAN, "d": True, "side": "C", "cfg": CFG}),
    "discord_sides": (lambda: dict(rho=_RHO, d=3, sides=["A", "B"], cfg=_cfg()),
                      {"rho": NAN, "d": True, "sides": "C", "cfg": CFG}),
    "extract_blocks": (lambda: dict(rho=_RHO, d=3, side="A"),
                       {"rho": ARRAY, "d": True, "side": "C"}),
    "flip_operator": (lambda: dict(d=3), {"d": True}),
    "fourier_matrix": (lambda: dict(d=3), {"d": True}),
    "generate_zero_discord": (lambda: dict(a0=np.eye(3), phases=np.zeros(3), side="A"),
                              {"a0": NAN, "phases": NAN, "side": "C"}),
    "is_prime": (lambda: dict(n=3), {"n": True}),
    "isotropic_state": (lambda: dict(d=3, lam=0.2), {"d": True, "lam": REAL}),
    "max_entangled_projector": (lambda: dict(d=3), {"d": True}),
    "mutual_information": (lambda: dict(rho=_RHO, d=3), {"rho": NAN, "d": True}),
    "o2_simplex_rows": (lambda: dict(grid=3, every=0, seed=0, starts=1),
                        {"grid": True, "every": True, "seed": True, "starts": True, "tol": REAL}),
    "orthogonal_invariant_state": (lambda: dict(abc=[0.2, 0.5, 0.3], d=2),
                                   {"abc": NAN, "d": True}),
    "partial_trace": (lambda: dict(rho=_RHO, dA=3, dB=3, side="A"),
                      {"rho": NAN, "dA": True, "dB": True, "side": "C"}),
    "perturb_spec": (lambda: dict(spec=dc.random_zero_discord_spec(3, "A", _rng()),
                                  kind="modulus", epsilon=0.1, rng=_rng()),
                     {"kind": "C", "epsilon": REAL, "rng": RNG}),
    "ppt_check_commuting": (lambda: dict(a=_A, dmat=_DMAT), {"a": NAN, "dmat": NAN}),
    "project_circulant": (lambda: dict(rho=_RHO, d=3), {"rho": ARRAY, "d": True}),
    "random_unitary": (lambda: dict(d=3, rng=_rng(), count=2),
                       {"d": True, "rng": RNG, "count": True}),
    "random_zero_discord_spec": (lambda: dict(d=3, side="A", rng=_rng()),
                                 {"d": True, "side": "C", "rng": RNG}),
    "run_verify": (lambda: dict(d=3, seed=0, draws=1, starts=1),
                   {"d": True, "seed": True, "draws": True, "starts": True, "tol": REAL}),
    "shift_operator": (lambda: dict(d=3), {"d": True}),
    "structural_discord_zero": (lambda: dict(rho=_RHO, d=3, side="A"),
                                {"rho": NAN, "d": True, "side": "C", "tol": REAL}),
    "structural_verdicts": (lambda: dict(rhos=[_RHO, _RHO], d=3, sides=["A", "B"]),
                            {"rhos": NAN, "d": True, "sides": "C", "tol": REAL}),
    "von_neumann_entropy": (lambda: dict(rho=_RHO), {"rho": NAN}),
    "werner_state": (lambda: dict(d=3, lam=0.2), {"d": True, "lam": REAL}),
}

#: Public callables outside the table: the errors; records of results, and LoadedState,
#: which parse_state builds checked; the JSON writers and readers, whose d and fields the
#: serialize tests break one by one; and the functions of a spec alone, which check no
#: side, integer, scalar or array of their own, and whose stack validate_circulant_spec checks.
_OUTSIDE = {
    "DimensionError", "DiscordantError", "InvalidMeasurement", "InvalidSpec", "PreconditionError",
    "PrimeRequired", "DiscordResult", "NotCirculant", "StructuralVerdict", "SuiteResult",
    "LoadedState", "bell_to_json", "circulant_to_json", "dense_to_json", "load_state_file",
    "parse_state", "circulant_state", "validate_circulant_spec",
}


#: The parameters read as real arrays: name: (parameter, valid keyword arguments outside the
#: table, if any).  Each is fed its valid array plus 0.5j.
_REAL = {
    "BellWeights": ("p", None),
    "bell_diagonal_state": ("w", None),
    "bell_to_json": ("p", lambda: dict(d=3, p=_P)),
    "bell_zero_discord_check": ("w", None),
    "commuting_group_invariant_state": ("dmat", None),
    "generate_zero_discord": ("phases", None),
    "orthogonal_invariant_state": ("abc", None),
    "ppt_check_commuting": ("dmat", None),
}

#: The container parameters, each fed None and a dict of its valid items.
_CONTAINERS = [("analyze", "sides"), ("discord_sides", "sides"), ("structural_verdicts", "rhos"),
               ("structural_verdicts", "sides")]


def _fed(value, valid):
    if value is not NAN:
        return value if value != "C" or isinstance(valid, str) else ["C", *valid[1:]]
    bad = np.array(valid)
    bad = bad.astype(complex if np.iscomplexobj(bad) else float)
    bad.flat[1] = np.nan
    return bad


def _call(name, kwargs):
    result = getattr(dc, name)(**kwargs)
    return list(result) if name == "o2_simplex_rows" else result


def test_the_table_covers_every_public_callable_once():
    public = [name for name in dc.__all__ if callable(getattr(dc, name))]
    assert len(set(dc.__all__)) == len(dc.__all__)
    assert sorted(public) == sorted([*_TABLE, *_OUTSIDE])


@pytest.mark.parametrize("name", list(_TABLE))
def test_the_table_arguments_are_valid(name):
    _call(name, _TABLE[name][0]())


@pytest.mark.parametrize("name, param", [(n, p) for n, (_, fed) in _TABLE.items()
                                         for p, v in fed.items()
                                         if v not in (ARRAY, REAL, CFG, RNG)])
def test_a_bad_argument_raises_a_package_error(name, param):
    make, fed = _TABLE[name]
    kwargs = make()
    kwargs[param] = _fed(fed[param], kwargs[param])
    with pytest.raises(dc.DiscordantError):
        _call(name, kwargs)


@pytest.mark.parametrize("name, param, bad", [
    pytest.param(n, p, bad, id=f"{n}-{p}-{bad!r}") for n, (_, fed) in _TABLE.items()
    for p, v in fed.items() if v in _SCALARS for bad in _SCALARS[v]])
def test_a_bad_scalar_raises_a_package_error(name, param, bad):
    # a float d passed the shape test, (9.0, 9.0) == (9, 9), and failed in reshape; a string
    # tol or a dict cfg escaped as a bare TypeError or AttributeError; tol=[0.1] was broadcast
    # into the thresholds, and epsilon=True perturbed by 1
    kwargs = _TABLE[name][0]()
    kwargs[param] = bad
    with pytest.raises(dc.DiscordantError):
        _call(name, kwargs)


@pytest.mark.parametrize("fault", list(_FAULTS))
@pytest.mark.parametrize("name, param", [(n, p) for n, (_, fed) in _TABLE.items()
                                         for p, v in fed.items() if v is NAN or v is ARRAY])
def test_a_bad_array_raises_a_package_error(name, param, fault):
    kwargs = _TABLE[name][0]()
    kwargs[param] = _FAULTS[fault](kwargs[param])
    with pytest.raises(dc.DiscordantError):
        _call(name, kwargs)


def test_a_float_dimension_is_named_by_the_callers_parameter():
    # mutual_information and discord reach partial_trace, whose parameters are dA and dB
    for call in (lambda: dc.discord(_RHO, 3.0, "A"), lambda: dc.mutual_information(_RHO, 3.0),
                 lambda: dc.project_circulant(_RHO, 3.0)):
        with pytest.raises(dc.InvalidSpec, match=r"^d must be an integer with d ≥ 1, got 3\.0$"):
            call()
    with pytest.raises(dc.InvalidSpec, match=r"^dB must be an integer with dB ≥ 1, got 3\.0$"):
        dc.partial_trace(_RHO, 3, 3.0, "A")


def test_a_real_scalar_that_is_no_number_is_named():
    for call, name in ((lambda bad: dc.structural_verdicts([_RHO], 3, "A", bad), "tol"),
                       (lambda bad: dc.werner_state(3, bad), "lambda"),
                       (lambda bad: dc.perturb_spec(_SPEC, "modulus", bad, _rng()), "epsilon")):
        with pytest.raises(dc.InvalidSpec, match=f"^{name} must be a real number, got 'x'$"):
            call("x")


def test_an_rng_that_is_no_generator_is_named():
    # each escaped as a bare AttributeError; a legacy RandomState was taken by duck typing
    for call in (lambda rng: dc.random_unitary(3, rng),
                 lambda rng: dc.random_zero_discord_spec(3, "A", rng),
                 lambda rng: dc.perturb_spec(_SPEC, "modulus", 0.1, rng)):
        for rng, name in ((None, "NoneType"), (np.random.RandomState(0), "RandomState")):
            with pytest.raises(dc.InvalidSpec,
                               match=f"^rng must be a numpy.random.Generator, got {name}$"):
                call(rng)


def test_cfg_none_is_the_default_config():
    state = dc.parse_state({"kind": "werner", "d": 2, "lambda": 0.2})
    assert dc.analyze(state, ["A"], 1e-9, None)["seed"] == dc.OptimizerConfig().seed
    default = dc.discord(_RHO, 3, "A", dc.OptimizerConfig()).to_json()
    assert dc.discord(_RHO, 3, "A", None).to_json() == default
    with pytest.raises(dc.InvalidSpec, match="^cfg must be an OptimizerConfig or None, got dict$"):
        dc.discord(_RHO, 3, "A", {})


def test_the_public_constants_are_the_criterion_names():
    # with the table's callables this pins __all__, which __init__ computes from its imports
    assert sorted(n for n in dc.__all__ if not callable(getattr(dc, n))) == [
        "CRITERION_BELL", "CRITERION_CIRCULANT", "CRITERION_COMMUTATION", "CRITERION_DIAGONAL"]


def test_a_ragged_list_is_named_ragged():
    ragged = [[0.5, 0.0], [0.5]]
    for call in (lambda: dc.discord(ragged, 2, "A"),
                 lambda: dc.structural_discord_zero(ragged, 2, "A"),
                 lambda: dc.dense_to_json(ragged, 2)):
        with pytest.raises(dc.DiscordantError, match="is ragged"):
            call()


def test_orthogonal_weights_must_be_three_numbers():
    # a string weight used to end in float()'s bare ValueError, two weights in an unpacking one
    with pytest.raises(dc.InvalidSpec, match="^abc has an entry that is not a number: "):
        dc.orthogonal_invariant_state(("a", 0, 0), 2)
    with pytest.raises(dc.DimensionError, match=r"^abc must have shape \(3,\), got \(2,\)$"):
        dc.orthogonal_invariant_state((0.5, 0.5), 2)


@pytest.mark.parametrize("name", list(_REAL))
def test_a_complex_real_array_raises_a_package_error(name):
    # the cast to float dropped the imaginary part, with only NumPy's ComplexWarning
    param, make = _REAL[name]
    kwargs = (make or _TABLE[name][0])()
    kwargs[param] = np.asarray(kwargs[param]) + 0.5j
    with pytest.raises(dc.InvalidSpec, match="must be real, got complex entries$"):
        _call(name, kwargs)


@pytest.mark.parametrize("fault", ["none", "dict"])
@pytest.mark.parametrize("name, param", _CONTAINERS)
def test_a_bad_container_raises_a_package_error(name, param, fault):
    # len(None) and a dict's slice escaped as a bare TypeError
    kwargs = _TABLE[name][0]()
    kwargs[param] = None if fault == "none" else dict(enumerate(kwargs[param]))
    with pytest.raises(dc.InvalidSpec, match=f"^{param} must be a sequence, got "):
        _call(name, kwargs)
