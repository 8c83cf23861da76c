"""Tests for block construction, spectra and phase classification."""

import copy
import dataclasses
import math
import pickle
import sys

import numpy as np
import pytest

from helpers import random_params

from nhjc import biortho, model
from nhjc.biortho import (
    eigenvector_ratios,
    intertwiner,
    metric,
    projectors,
)
from nhjc.dynamics import effective_generator
from nhjc.entropy import entanglement_entropy, reduced_spectrum
from nhjc.errors import ExceptionalPointError
from nhjc.model import (
    Branch,
    ModelParams,
    Phase,
    PhaseLabel,
    _MEMO,
    _block,
    _form_block,
    build_block,
    classify_phase,
    critical_gamma,
    ground_state_energy,
    spectrum_closed_form,
)

SQRT3 = math.sqrt(3.0)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(math.nan, 5.0, 1.0, 0)
    with pytest.raises(ValueError):
        ModelParams(1.0, math.inf, 1.0, 0)
    with pytest.raises(ValueError, match="^omega must be a finite real number"):
        ModelParams(10**400, 5.0, 1.0, 0)  # past the float range
    with pytest.raises(ValueError):
        ModelParams(1.0, 5.0, 1.0, -1)
    with pytest.raises(ValueError):
        ModelParams(1.0, 5.0, 1.0, 1.5)
    with pytest.raises(ValueError):
        ModelParams(1.0, 5.0, 1.0, True)


@pytest.mark.parametrize(
    "n",
    [
        math.inf, -math.inf, math.nan, "2", 2 + 0j, None,
        # n + 1 is past the float range, where math.isfinite raises OverflowError
        pytest.param(2**1024 - 1, id="2**1024-1"),
        pytest.param(10**400, id="10**400"),
    ],
)
def test_params_reject_non_finite_or_non_numeric_n(n):
    # int() alone raises OverflowError or TypeError on these
    with pytest.raises(ValueError, match="n must be a non-negative integer"):
        ModelParams(1.0, 5.0, 1.0, n)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "n",
    [np.uint64(2**64 - 1), np.int64(2**63 - 1), np.int32(2**31 - 1), np.uint8(255), 2.0**53],
    ids=["uint64-max", "int64-max", "int32-max", "uint8-max", "2.0**53"],
)
def test_params_store_a_block_index_as_a_python_int(n):
    # n + 1 is formed on the stored int: it cannot wrap or round back to n
    p = ModelParams(1.0, 5.0, 1.0, n)
    assert type(p.n) is int and p.n == int(n)
    assert p == ModelParams(1.0, 5.0, 1.0, int(n))
    assert classify_phase(p).discriminant == 16.0 - 4.0 * (int(n) + 1)


@pytest.mark.filterwarnings("error")
def test_params_keep_a_block_index_whose_successor_is_exact():
    for n in (np.uint64(2**64 - 2), np.int64(2**63 - 2), np.uint8(254), 2.0**53 - 1, 2**1023):
        assert ModelParams(1.0, 5.0, 1.0, n).n == n
    p = ModelParams(1.0, 5.0, 1.0, np.uint64(2**64 - 2))
    assert critical_gamma(p) == 4.0 / (2.0 * math.sqrt(2.0**64))


@pytest.mark.filterwarnings("error")
def test_numpy_block_indices_neither_wrap_nor_warn():
    # 2n + 1 = 2**63 + 1 is past the int64 range: formed on the int, it stays positive
    s = spectrum_closed_form(ModelParams(1.0, 5.0, 1.0, np.int64(2**62)))
    assert s.eigenvalue_I.real > 4.6e18 and s.eigenvalue_I.real == 0.5 * (2**63 + 1)
    # converted before any comparison, so the largest double is never cast to float32
    p = ModelParams(1.0, 5.0, 1.0, np.float32(3.0))
    assert type(p.n) is int and p.n == 3
    assert classify_phase(p) == classify_phase(ModelParams(1.0, 5.0, 1.0, 3))


def test_float_block_index_is_kept_as_its_int():
    # 2**53 and above too: the stored int, not the float, takes n + 1
    for n in (2.0, 2.0**53, 2.0**60):
        p, q = ModelParams(1.0, 5.0, 1.0, n), ModelParams(1.0, 5.0, 1.0, int(n))
        assert repr(p) == repr(q) and pickle.dumps(p) == pickle.dumps(q)
    assert repr(ModelParams(1.0, 5.0, 1.0, 2.0)) == "ModelParams(omega=1.0, epsilon=5.0, gamma=1.0, n=2)"
    for n in (2.5, -1.0, math.inf):
        with pytest.raises(ValueError, match="^n must be a non-negative integer, got "):
            ModelParams(1.0, 5.0, 1.0, n)


@pytest.mark.parametrize("field", ["omega", "epsilon", "gamma"])
@pytest.mark.parametrize("value", [True, False, np.bool_(True)])
def test_params_reject_a_bool_coupling_or_energy(field, value):
    fields = dict(omega=1.0, epsilon=5.0, gamma=1.0, n=0)
    fields[field] = value
    with pytest.raises(ValueError, match=f"^{field} must be a finite real number, got "):
        ModelParams(**fields)


def test_int_square_past_the_float_range_raises_value_error():
    # (omega - epsilon)**2 of ints is an int: 2**1024 is past the float range
    p = ModelParams(2**512, 0, 1.0, 0)
    with pytest.raises(ValueError, match=r"^discriminant: .* overflows at ") as info:
        classify_phase(p)
    assert type(info.value) is ValueError


class _Index(int):
    """An int that is not exactly an int, so ModelParams reads it by its general path."""


_FLOAT_MAX = sys.float_info.max
# signed zeros, the smallest subnormals, the smallest normal and the float range's ends
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, _FLOAT_MAX, -_FLOAT_MAX, 1.5]


def _kept(p: ModelParams) -> list:
    return [(name, type(v), repr(v)) for name, v in vars(p).items()]


@pytest.mark.parametrize("field", ["omega", "epsilon", "gamma"])
def test_params_early_return_keeps_what_the_general_path_keeps(monkeypatch, field):
    base = {"omega": 1.0, "epsilon": 5.0, "gamma": 1.0, "n": 2}
    for value in _EDGE_FLOATS:
        fast = ModelParams(**{**base, field: value})
        # np.float64, a float subclass, is read by _real
        assert _kept(fast) == _kept(ModelParams(**{**base, field: np.float64(value)}))
        assert repr(getattr(fast, field)) == repr(value)
    for value in (math.inf, -math.inf, math.nan):
        for given in (value, np.float64(value)):
            with pytest.raises(ValueError, match=f"^{field} must be a finite real number, got "):
                ModelParams(**{**base, field: given})
    # exact floats and an int n in the float range never reach _real or _integral
    def unread(x):
        raise AssertionError("an exact float or int was read again")

    monkeypatch.setattr(model, "_real", unread)
    monkeypatch.setattr(model, "_integral", unread)
    assert ModelParams(*_EDGE_FLOATS[:3], 2**62).n == 2**62


def test_params_early_return_bounds_n_as_the_general_path_does():
    for n in (0, 1, 2**62, int(_FLOAT_MAX) - 1):
        fast = ModelParams(1.0, 5.0, 1.0, n)
        assert _kept(fast) == _kept(ModelParams(1.0, 5.0, 1.0, _Index(n))) and fast.n == n
    refused = (-1, int(_FLOAT_MAX), 2**1100)
    for given in (*refused, *map(_Index, refused), True):
        with pytest.raises(ValueError, match="^n must be a non-negative integer, got "):
            ModelParams(1.0, 5.0, 1.0, given)


def test_params_derived_quantities():
    p = ModelParams(1.0, 5.0, 1.0, 0)
    assert build_block(p)[0, 1] == 1.0  # delta = sqrt(n+1) gamma
    assert classify_phase(p).discriminant == 12.0
    assert classify_phase(ModelParams(1.0, 5.0, 3.0, 0)).discriminant == -20.0
    assert classify_phase(ModelParams(1.0, 5.0, 2.0, 0)).discriminant == 0.0
    assert classify_phase(ModelParams(1.0, 5.0, 1.0, 3)).discriminant == 0.0  # critical at n=3
    delta = build_block(ModelParams(1.0, 5.0, 1.5, 1))[0, 1].real
    assert math.isclose(delta, 1.5 * math.sqrt(2.0))


def test_discriminant_even_in_gamma():
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = random_params(rng, margin=0.0)
        q = ModelParams(p.omega, p.epsilon, -p.gamma, p.n)
        assert classify_phase(p).discriminant == classify_phase(q).discriminant


def test_build_block_entries():
    m = build_block(ModelParams(1.0, 5.0, 2.0, 0))
    np.testing.assert_array_equal(m, [[2.5, 2.0], [-2.0, -1.5]])
    m = build_block(ModelParams(1.0, 5.0, 1.0, 3))
    np.testing.assert_array_equal(m, [[5.5, 2.0], [-2.0, 1.5]])
    m = build_block(ModelParams(1.0, 5.0, 0.0, 0))
    np.testing.assert_array_equal(m, [[2.5, 0.0], [0.0, -1.5]])


def test_spectrum_unbroken_frozen():
    s = spectrum_closed_form(ModelParams(1.0, 5.0, 1.0, 0))
    assert abs(s.eigenvalue_I - (0.5 + SQRT3)) < 1e-15
    assert abs(s.eigenvalue_II - (0.5 - SQRT3)) < 1e-15
    assert s.eigenvalue_I.imag == 0.0 and s.eigenvalue_II.imag == 0.0


def test_spectrum_broken_frozen():
    s = spectrum_closed_form(ModelParams(1.0, 5.0, 3.0, 0))
    assert abs(s.eigenvalue_I - (0.5 + 2.2360679774997896j)) < 1e-15
    assert abs(s.eigenvalue_II - (0.5 - 2.2360679774997896j)) < 1e-15


def test_spectrum_decoupled_and_critical():
    s = spectrum_closed_form(ModelParams(1.0, 5.0, 0.0, 0))
    assert s.eigenvalue_I == 2.5 and s.eigenvalue_II == -1.5
    s = spectrum_closed_form(ModelParams(1.0, 5.0, 2.0, 0))
    assert s.eigenvalue_I == 0.5 and s.eigenvalue_II == 0.5


def test_spectrum_trace_and_determinant():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = random_params(rng, margin=0.0)
        m = build_block(p)
        s = spectrum_closed_form(p)
        assert abs(s.eigenvalue_I + s.eigenvalue_II - np.trace(m)) < 1e-12 * max(
            1.0, abs(np.trace(m))
        )
        det = np.linalg.det(m)
        assert abs(s.eigenvalue_I * s.eigenvalue_II - det) < 1e-11 * max(1.0, abs(det))


def test_broken_pair_is_exactly_conjugate():
    rng = np.random.default_rng(8)
    for _ in range(100):
        p = random_params(rng, phase="broken")
        s = spectrum_closed_form(p)
        assert s.eigenvalue_II == s.eigenvalue_I.conjugate()
        assert s.eigenvalue_I.imag > 0.0


def test_sqrt_discriminant_branch():
    assert _block(ModelParams(1.0, 5.0, 1.0, 0)).root == math.sqrt(12.0)
    root = _block(ModelParams(1.0, 5.0, 3.0, 0)).root
    assert root.real == 0.0 and math.isclose(root.imag, math.sqrt(20.0))


SCALAR_API = [
    classify_phase,
    spectrum_closed_form,
    eigenvector_ratios,
    metric,
    intertwiner,
    projectors,
    effective_generator,
    lambda p: entanglement_entropy(p, Branch.I),
    lambda p: reduced_spectrum(p, Branch.II, "left"),
]


def test_root_is_formed_once_per_params(monkeypatch):
    # SCALAR_API makes every call on p that one point of the benchmark's
    # pointwise workload makes (bench/workloads.py, _run_point), and more
    formed, entries = [], []

    def counted(log, fn):
        def wrapper(*args):
            log.append(args)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(model, "_form_block", counted(formed, _form_block))
    monkeypatch.setattr(biortho, "_metric_entries", counted(entries, biortho._metric_entries))
    p = ModelParams(1.0, 5.0, 1.0, 2)
    for _ in range(2):
        for call in SCALAR_API:
            call(p)
    assert formed == [(p,)] and len(entries) == 1
    block = vars(p)[_MEMO]
    assert block.center == 2.5 and len(block.ratios) == 2
    assert all(type(x) is float for x in block.entries)
    classify_phase(ModelParams(1.0, 5.0, 1.0, 2))  # an equal, new ModelParams forms its own
    assert len(formed) == 2


def test_each_caller_keeps_its_exceptional_point_message():
    p = ModelParams(1.0, 5.0, 2.0, 0)
    assert classify_phase(p).value is Phase.EXCEPTIONAL_POINT  # fills the memo
    messages = {
        eigenvector_ratios: "eigenvectors coalesce near the exceptional point (discriminant 0.000e+00)",
        effective_generator: "no-jump generator is defective at the exceptional point",
        projectors: "eigenvectors coalesce near the exceptional point (discriminant 0.000e+00)",
    }
    for _ in range(2):
        for call, message in messages.items():
            with pytest.raises(ExceptionalPointError) as info:
                call(p)
            assert str(info.value) == message
    assert spectrum_closed_form(p).eigenvalue_I == 0.5


def _bits(value):
    if isinstance(value, np.ndarray):
        return value.dtype, value.tobytes()
    if dataclasses.is_dataclass(value):
        return tuple(_bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    return repr(value)


@pytest.mark.parametrize("params", [(1.0, 5.0, 1.3, 2), (1.0, 5.0, 3.7, 1), (5.0, 1.0, -2e-9, 0)])
def test_results_do_not_depend_on_call_order(params):
    first, second = ModelParams(*params), ModelParams(*params)
    forward = [_bits(metric(first)), _bits(intertwiner(first))]
    backward = [_bits(intertwiner(second)), _bits(metric(second))][::-1]
    assert forward == backward
    first, second = ModelParams(*params), ModelParams(*params)
    forward = [entanglement_entropy(first, b) for b in (Branch.I, Branch.II)]
    backward = [entanglement_entropy(second, b) for b in (Branch.II, Branch.I)][::-1]
    assert forward == backward and _bits(projectors(first)) == _bits(projectors(second))


def test_exceptional_point_keeps_no_error_and_no_part():
    p = ModelParams(1.0, 5.0, 2.0, 0)
    for _ in range(2):
        for call in (metric, intertwiner, eigenvector_ratios, effective_generator):
            with pytest.raises(ExceptionalPointError):
                call(p)
    block = vars(p)[_MEMO]
    assert block.label.value is Phase.EXCEPTIONAL_POINT
    assert block.entries is None and block.ratios is None and block.center is None
    assert entanglement_entropy(p, Branch.I) == math.log(2.0) and block.ratios is None


def test_centre_overflow_is_kept_by_neither_the_record_nor_classify_phase():
    p = ModelParams(1.7e308, 1.7e308, 1.0, 3)
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^spectral centre "):
            spectrum_closed_form(p)
        assert classify_phase(p).value is Phase.BROKEN
    assert vars(p)[_MEMO].center is None
    assert critical_gamma(ModelParams(1.0, 5.0, 1e200, 0)) == 2.0  # D overflows there
    assert build_block(ModelParams(1.0, 5.0, 1e200, 0))[0, 1] == 1e200


def test_memo_leaves_value_semantics_alone():
    p = ModelParams(1.0, 5.0, 1.0, 2)
    before = repr(p), hash(p), pickle.dumps(p)
    for call in SCALAR_API:  # forms the record and every part of it
        call(p)
    label = classify_phase(p)
    assert _MEMO in vars(p)
    assert p == ModelParams(1.0, 5.0, 1.0, 2)
    assert (repr(p), hash(p), pickle.dumps(p)) == before
    for duplicate in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
        assert duplicate == p and _MEMO not in vars(duplicate)
        assert classify_phase(duplicate) == label
        assert vars(duplicate)[_MEMO] is not vars(p)[_MEMO]


def _pickled_with_n(n) -> bytes:
    """A pickle of ModelParams(1.0, 5.0, 1.0, 0) whose state holds n as
    given, as one written by an older version or by hand can."""
    p = ModelParams(1.0, 5.0, 1.0, 0)
    object.__setattr__(p, "n", n)
    return pickle.dumps(p)


@pytest.mark.filterwarnings("error")
def test_unpickled_params_pass_the_constructor_checks():
    p = pickle.loads(_pickled_with_n(np.int64(2**62)))
    assert type(p.n) is int and p == ModelParams(1.0, 5.0, 1.0, 2**62)
    assert spectrum_closed_form(p).eigenvalue_I.real == 0.5 * (2**63 + 1)
    with pytest.raises(ValueError, match="^n must be a non-negative integer, got -3$"):
        pickle.loads(_pickled_with_n(-3))


def test_replaced_params_form_their_own_root():
    p = ModelParams(1.0, 5.0, 1.0, 0)
    assert classify_phase(p).value is Phase.UNBROKEN
    metric(p)
    q = dataclasses.replace(p, gamma=3.0)
    assert _MEMO not in vars(q)
    assert classify_phase(q) == PhaseLabel(Phase.BROKEN, -20.0)
    assert classify_phase(p) == PhaseLabel(Phase.UNBROKEN, 12.0)
    assert _bits(metric(q)) == _bits(metric(ModelParams(1.0, 5.0, 3.0, 0)))
    assert vars(q)[_MEMO] is not vars(p)[_MEMO]


@pytest.mark.parametrize(
    "p",
    [
        ModelParams(1.0, 5.0, 1e154, 0),  # 4 gamma**2 rounds to inf
        ModelParams(1.0, 5.0, 3e154, 0),  # gamma**2 overflows
        ModelParams(1.0, 5.0, -5e200, 3),
        ModelParams(1e308, 5.0, 1.0, 0),  # (omega - epsilon)**2 overflows
    ],
    ids=["gamma=1e154", "gamma=3e154", "gamma=-5e200", "omega=1e308"],
)
def test_unrepresentable_discriminant_raises_value_error(p):
    # one documented ValueError, never an OverflowError, a non-finite value
    # or an exceptional-point verdict from an infinite discriminant
    for call in SCALAR_API:
        with pytest.raises(ValueError, match="^discriminant: ") as info:
            call(p)
        assert type(info.value) is ValueError
    assert _MEMO not in vars(p)  # so every call above raised afresh


def test_classify_phase():
    assert classify_phase(ModelParams(1.0, 5.0, 1.0, 0)).value is Phase.UNBROKEN
    assert classify_phase(ModelParams(1.0, 5.0, 3.0, 0)).value is Phase.BROKEN
    label = classify_phase(ModelParams(1.0, 5.0, 2.0, 0))
    assert label.value is Phase.EXCEPTIONAL_POINT
    assert label.discriminant == 0.0


def test_classify_phase_tolerance_band():
    # relative offsets of 1e-12 sit inside the band, 1e-3 far outside
    assert (
        classify_phase(ModelParams(1.0, 5.0, 2.0 * (1.0 + 1e-12), 0)).value
        is Phase.EXCEPTIONAL_POINT
    )
    assert classify_phase(ModelParams(1.0, 5.0, 2.0 * (1.0 + 1e-3), 0)).value is Phase.BROKEN
    assert classify_phase(ModelParams(1.0, 5.0, 2.0 * (1.0 - 1e-3), 0)).value is Phase.UNBROKEN


def test_phase_enum_labels_are_export_contract():
    assert Phase.UNBROKEN.value == "Unbroken"
    assert Phase.BROKEN.value == "Broken"
    assert Phase.EXCEPTIONAL_POINT.value == "ExceptionalPoint"
    assert Branch.I.value == "I" and Branch.II.value == "II"


def test_critical_gamma():
    assert critical_gamma(ModelParams(1.0, 5.0, 0.3, 0)) == 2.0
    assert critical_gamma(ModelParams(1.0, 5.0, 0.3, 3)) == 1.0
    assert critical_gamma(ModelParams(1.0, 1.0, 0.3, 2)) == 0.0
    rng = np.random.default_rng(9)
    for _ in range(50):
        p = random_params(rng)
        at_critical = ModelParams(p.omega, p.epsilon, critical_gamma(p), p.n)
        assert classify_phase(at_critical).value is Phase.EXCEPTIONAL_POINT
    with pytest.raises(ValueError, match=r"^critical_gamma: \|omega - epsilon\| overflows at "):
        critical_gamma(ModelParams(1.7e308, -1.7e308, 1.0, 3))


@pytest.mark.parametrize(
    "p",
    [
        ModelParams(1.7e308, 1.7e308, 1.0, 3),  # (2n+1) omega / 2 rounds to inf
        ModelParams(1.0, 5.0, 0.0, 2**1023),  # 2n + 1 is past the float range
    ],
    ids=["omega=1.7e308", "n=2**1023"],
)
def test_spectral_centre_overflow_raises_value_error(p):
    assert math.isfinite(classify_phase(p).discriminant)
    overflows = r"^spectral centre \(2n\+1\) omega / 2 overflows at "
    for call in (spectrum_closed_form, intertwiner, effective_generator):
        with pytest.raises(ValueError, match=overflows) as info:
            call(p)
        assert type(info.value) is ValueError
    # the projectors do not depend on the centre
    rho_one, rho_two = projectors(p)
    assert np.isfinite(rho_one).all() and np.isfinite(rho_two).all()
    assert np.array_equal(rho_one + rho_two, np.eye(2))


def test_ground_state_energy():
    assert ground_state_energy(ModelParams(1.0, 5.0, 1.0, 0)) == -2.5
    assert ground_state_energy(ModelParams(1.0, -3.0, 1.0, 2)) == 1.5
    assert ground_state_energy(ModelParams(1.0, 0.0, 1.0, 0)) == 0.0


def test_block_matrix_validation():
    # n omega = 5e308 overflows: the block is refused, not returned with inf
    with pytest.raises(ValueError, match="finite"):
        build_block(ModelParams(1e308, 5.0, 1.0, 5))
    ok = build_block(ModelParams(1.0, 5.0, 1.0, 0))
    assert ok.shape == (2, 2) and ok.dtype == complex
