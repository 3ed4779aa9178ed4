"""The moment solve in real coordinates against the complex solve of ``control_oracle``.

``fixedpoint.real_form`` turns the scaled Gram ``H`` into ``M = E S^H H S
E``: a conjugate pair of kernels ``(j, p)`` gives the columns ``e_j + e_p``
and ``1j * (e_j - e_p)`` of ``S``, a real kernel (its own partner) ``e_j``,
and a kernel without a partner ``e_j`` among the complex rows that come
last.  ``H`` is conjugate-persymmetric integer for integer on the paired
kernels, so ``M``'s paired rows are real, and one integer Cholesky of ``M``
serves the solve.  The tests draw kernel sets with conjugate pairs, real
rates, Jordan chains, near pairs on the Taylor branch and unpaired tails at
the 40-, 80- and 160-digit rungs, and check that ``M`` is exactly the
congruence, that the solve agrees with the complex Cholesky of ``H`` within
the bound of ``test_cholesky_coefficients_match_lu``, that both factors
refuse an indefinite Gram, and that the walk with one term per conjugate
pair stays within the evaluation's error bound of the walk of every term.
The verification's cross products, one per conjugate pair of spill-over
rows, are those of every row formed, bit for bit.
"""

import cmath
import math
import operator
from unittest import mock

import control_oracle as oracle
import numpy as np
import pytest
from conftest import random_nonbarotropic
from hypothesis import given, settings
from hypothesis import strategies as st

from cnslab import cli, control, fixedpoint, walk
from cnslab.control import _DPS_LADDER, _RESIDUAL_TOL, build_moment_system, synthesize_control, verify_terminal
from cnslab.evolution import ObservationChannel
from cnslab.kernels import KernelTerm
from cnslab.model import BarotropicParams, NonBarotropicParams
from cnslab.spectrum import build_slice

WORKHORSE = BarotropicParams(rho_bar=1.0, u_bar=0.9, mu0=1.0, b=1.3)
#: rates with a positive imaginary part, well apart; the small real part puts the diagonal entry of its kernels on
#: the Taylor branch
COMPLEX_RATES = [complex(-0.2, 0.9), complex(-0.5, 1.7), complex(-0.1, 2.6), complex(-0.8, 3.4),
                 complex(-0.003, 4.3), complex(-1.1, 1.2)]
#: real rates: kernels with real coefficients on them are their own partners
REAL_RATES = [-0.15, -0.6, -0.004]
#: largest distance of the real-form coefficients from the complex solve's, relative to max|x|: the bound of
#: test_control_fastpaths.test_cholesky_coefficients_match_lu
COEFFICIENT_BOUND = 1e-25
#: largest gap between a point of the per-pair walk and of the walk of every term, in units of
#: 2**-bits * sum_j |w_j| max(1, s)**degree_j per step walked to the point and one more: each walk is within
#: k / 4 + 1 such units of the exact p after k steps, the bound that walk.evaluate states and tests/test_walk.py
#: checks, so the two are within k / 2 + 2.  With step factors at the walk's own bits this was 40: the full walk
#: alone was 90 units from the exact p after 42 steps at 160 digits, T = 5, on the rates -0.003 +- 4.3i and
#: -0.5 +- 1.7i, where the rounding of one step factor and product reached 18 units
WALK_UNITS_PER_STEP = 2

#: the rungs below each rung of the ladder
_DPS_LADDER_INDEX = {dps: k for k, dps in enumerate(_DPS_LADDER)}

_COEF = st.builds(cmath.rect, st.floats(0.2, 2.0), st.floats(-math.pi, math.pi))
_REAL_COEF = st.builds(operator.mul, st.floats(0.2, 2.0), st.sampled_from([1.0, -1.0]))


@st.composite
def kernel_sets(draw, unpaired: bool = True, real_datum: bool | None = None):
    """``(dps, T, kernels, targets, roles)``: a drawn moment kernel set, shuffled, with its targets.

    ``roles`` names each kernel ``"pair"`` (its conjugate is in the set),
    ``"real"`` (real rate and coefficients: its own partner) or ``"none"``.
    A kernel is plain or a Jordan chain ``c0 + c1 (T-t)``, and a pair's
    chain kernel comes beside its plain one.  With a real datum (drawn if
    ``real_datum`` is None), partners' targets are conjugates and real
    kernels' targets are real.
    """
    dps = draw(st.sampled_from([40, 80, 160]))
    T = draw(st.sampled_from([2.0, 5.0, 8.0]))
    order = draw(st.permutations(range(len(COMPLEX_RATES))))
    n_pairs = draw(st.integers(0, 3))
    n_unpaired = draw(st.integers(0, 2)) if unpaired else 0
    real_datum = draw(st.booleans()) if real_datum is None else real_datum
    kernels, targets, roles = [], [], []
    for rate in [COMPLEX_RATES[k] for k in order[:n_pairs]]:
        for degree in range(1 + draw(st.booleans())):
            kernel = [KernelTerm(draw(_COEF), rate, d) for d in range(degree + 1)]
            target = draw(_COEF)
            kernels += [kernel, [KernelTerm(t.coef.conjugate(), rate.conjugate(), t.degree) for t in kernel]]
            targets += [target, target.conjugate() if real_datum else draw(_COEF)]
            roles += ["pair", "pair"]
    for rate in draw(st.lists(st.sampled_from(REAL_RATES), unique=True, max_size=2)):
        for degree in range(1 + draw(st.booleans())):
            kernels.append([KernelTerm(complex(draw(_REAL_COEF)), complex(rate), d) for d in range(degree + 1)])
            targets.append(complex(draw(_REAL_COEF)) if real_datum else draw(_COEF))
            roles.append("real")
    for rate in [COMPLEX_RATES[k] for k in order[n_pairs: n_pairs + n_unpaired]]:
        kernels.append([KernelTerm(draw(_COEF), rate, d) for d in range(1 + draw(st.booleans()))])
        targets.append(draw(_COEF))
        roles.append("none")
    if not kernels:
        kernels, targets, roles = [[KernelTerm(1.0 + 0j, complex(REAL_RATES[0]), 0)]], [1.0 + 0j], ["real"]
    shuffle = draw(st.permutations(range(len(kernels))))
    return dps, T, *([part[i] for i in shuffle] for part in (kernels, targets, roles))


def _built(case):
    """``(gram, columns, form, mates)`` of a drawn kernel set at its rung."""
    dps, T, kernels, _, roles = case
    gram, columns = fixedpoint.unit_gram(["row"] * len(kernels), kernels, T, dps)
    mates = gram.mates
    # the partners are those the set was drawn with
    assert mates == fixedpoint.partners(columns)
    assert [(p is not None, p == j) for j, p in enumerate(mates)] == [(r != "none", r == "real") for r in roles]
    return gram, columns, fixedpoint.real_form(gram), mates


def _congruence(gram: fixedpoint.Gram, groups: list[tuple]) -> list[list[tuple[int, int]]]:
    """``S^H R S`` for the integers ``R`` of ``gram``, as ``(re, im)`` integer pairs, formed entry by entry."""
    columns = []
    for j, k in groups:
        columns += [[(j, 1), (k, 1)], [(j, 1j), (k, -1j)]] if k != j else [[(j, 1)]]

    def times(z, u):  # z * u for a unit u in {1, 1j, -1j}
        return {1: z, 1j: (-z[1], z[0]), -1j: (z[1], -z[0])}[u]

    out = []
    for a in columns:
        row = []
        for b in columns:
            re = im = 0
            for r, ur in a:
                for c, uc in b:
                    zr, zi = times(times((gram.re[r][c], gram.im[r][c]), uc), ur.conjugate())
                    re, im = re + zr, im + zi
            row.append((re, im))
        out.append(row)
    return out


@settings(max_examples=60, deadline=None)
@given(case=kernel_sets())
def test_the_real_form_is_the_exact_congruence(case):
    gram, _, form, mates = _built(case)
    m = len(mates)
    # pairs first, then the kernels that are their own partners, then those without one
    kinds = [0 if k != j else 1 if mates[j] == j else 2 for j, k in form.groups]
    assert kinds == sorted(kinds) and form.real == m - mates.count(None)
    full = _congruence(gram, form.groups)
    leads = [j for j, k in form.groups for _ in {j, k}]
    assert (form.bits - gram.bits) % 2 == 0
    for a in range(m):
        tail = len(form.im[a])
        assert tail == (m - form.real if a < form.real else m)
        for b in range(m):
            im = form.im[a][b - (m - tail)] if b >= m - tail else 0
            assert (form.re[a][b], im) == full[a][b]
        # M[a][b] = (re + 1j im)[a][b] 2**(shifts[a] + shifts[b] - form.bits) = E[a] E[b] (S^H H S)[a][b], and a
        # pair's rows share the Gram's shift: H[j][k] = R[j][k] 2**(u[j] + u[k] - gram.bits)
        assert form.shifts[a] >= 0
        assert form.shifts[a] - form.exps[a] - gram.shifts[leads[a]] == (form.bits - gram.bits) // 2
        # the diagonal is brought into [1, 4)
        assert form.re[a][a] <= 0 or 1 << form.bits <= form.re[a][a] << 2 * form.shifts[a] < 4 << form.bits


def _assert_one_pass_is_the_two_step_path(gram, columns, targets: list[complex], dps: int) -> None:
    """The one-pass real form with its scaling in the shifts gives the oracle's integers, factor, solve and doubles.

    The oracle applies the unit-diagonal scaling of the Gram and of its real
    form to their integers as steps of their own and forms the real form in
    two passes over full rows; production's ``factor``, ``solve`` and
    ``float_gram`` read its results with zero shifts.
    """
    scaled = oracle.scaled_gram(gram, columns)
    old = oracle.two_pass_real_form(scaled)
    form = fixedpoint.real_form(gram)
    u, sh = gram.shifts, form.shifts
    assert [[v << u[i] + u[j] for j, v in enumerate(row)] for i, row in enumerate(gram.re)] == scaled.re
    assert gram.exps == scaled.exps
    assert [[v << sh[a] + sh[b] for b, v in enumerate(row)] for a, row in enumerate(form.re)] == old.re
    assert [[v << sh[a] + sh[b] for b, v in enumerate(row, len(sh) - len(row))]
            for a, row in enumerate(form.im)] == old.im
    assert (form.exps, form.bits, form.real, form.groups) == (old.exps, old.bits, old.real, old.groups)
    assert fixedpoint.float_gram(gram).tobytes() == fixedpoint.float_gram(scaled).tobytes()
    factor = fixedpoint.factor(form, dps)
    assert factor == fixedpoint.factor(old, dps)
    if factor is None:
        return
    got = fixedpoint.solve(gram, form, factor, columns, targets, _RESIDUAL_TOL)
    # (residual, x, sqrt(x^H G x), H y), bit for bit
    assert got == fixedpoint.solve(scaled, old, factor, columns, targets, _RESIDUAL_TOL)
    if got[1] is not None:
        y = fixedpoint._rescaled(got[1], gram.exps)
        assert fixedpoint._scaled_times(gram, y) == fixedpoint._scaled_times(scaled, y)


@settings(max_examples=80, deadline=None)
@given(case=kernel_sets(unpaired=False, real_datum=True) | kernel_sets())
def test_the_one_pass_path_equals_the_two_step_path(case):
    dps, T, kernels, targets, _ = case
    gram, columns, _, _ = _built(case)
    _assert_one_pass_is_the_two_step_path(gram, columns, targets, dps)


def _within(got: fixedpoint.ScaledVector, want: fixedpoint.ScaledVector, bound: float) -> bool:
    """Every entry of ``got - want`` is within ``bound`` times the largest modulus of ``want``."""
    diff = fixedpoint._combine(operator.sub, got, want)

    def moduli(v):
        return [math.hypot(fixedpoint._float(a, v.exp), fixedpoint._float(b, v.exp)) for a, b in zip(v.re, v.im)]

    top = max(moduli(want))
    return all(d <= bound * top for d in moduli(diff))


def _solved(case):
    """``(columns, x, x of the complex solve)`` of a drawn set; both solves pass the residual gate."""
    dps, T, kernels, targets, roles = case
    gram, columns, form, _ = _built(case)
    scaled = oracle.scaled_gram(gram, columns)
    factor, complex_factor = fixedpoint.factor(form, dps), oracle.factor_four(scaled, dps)
    assert factor is not None and complex_factor is not None
    got = fixedpoint.solve(gram, form, factor, columns, targets, _RESIDUAL_TOL)
    want = oracle.solve_complex(scaled, complex_factor, columns, targets, _RESIDUAL_TOL)
    assert got[1] is not None and want[1] is not None
    return columns, got[1], want[1]


@settings(max_examples=60, deadline=None)
@given(case=kernel_sets(unpaired=False, real_datum=True) | kernel_sets())
def test_the_real_form_solve_matches_the_complex_solve(case):
    dps, T, kernels, targets, roles = case
    columns, x, want = _solved(case)
    assert _within(x, want, COEFFICIENT_BOUND)
    mates = fixedpoint._paired(fixedpoint.partners(columns), x)
    if "none" not in roles and all(t == targets[p].conjugate() for t, p in zip(targets, fixedpoint.partners(columns))):
        # a real datum on a set without unpaired kernels: partners' coefficients are exact conjugates
        assert None not in mates


@settings(max_examples=40, deadline=None)
@given(case=kernel_sets(), data=st.data())
def test_an_indefinite_gram_fails_both_factors(case, data):
    # negating the diagonal of a kernel and its partner keeps the Gram conjugate-persymmetric and makes it indefinite
    dps = case[0]
    gram, columns, _, mates = _built(case)
    j = data.draw(st.integers(0, len(mates) - 1))
    re = [list(row) for row in gram.re]
    for k in {j, mates[j] if mates[j] is not None else j}:
        re[k][k] = -re[k][k]
    indefinite = gram._replace(re=re)
    assert fixedpoint.factor(fixedpoint.real_form(indefinite), dps) is None
    scaled = oracle.scaled_gram(indefinite, columns)
    assert fixedpoint.factor(oracle.two_pass_real_form(scaled), dps) is None
    assert oracle.factor_four(scaled, dps) is None


@settings(max_examples=40, deadline=None)
@given(case=kernel_sets(unpaired=False, real_datum=True) | kernel_sets(), points=st.integers(2, 60),
       scattered=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10))
def test_the_pair_walk_stays_within_the_bound_of_the_full_walk(case, points, scattered):
    T = case[1]
    columns, x, _ = _solved(case)
    bits = columns[0].bits
    wr, wi, w_exp, _, _, _, degrees = oracle.weights(x, columns)
    top = w_exp + max(v.bit_length() for v in wr + wi)
    w = [math.hypot(fixedpoint._float(a, w_exp - top), fixedpoint._float(b, w_exp - top)) for a, b in zip(wr, wi)]
    T_int = fixedpoint._fixed(T, bits)
    for times in (np.linspace(0.0, T, points).tolist(), [T * v for v in scattered]):
        got = {i: rest for i, *rest in walk._weighted_walk(x, columns, T, times, fixedpoint.partners(columns))}
        want = {i: rest for i, *rest in oracle.full_walk(x, columns, T, times)}
        assert got.keys() == want.keys() == set(range(len(times)))
        s_all = [T_int - fixedpoint._fixed(t, bits) for t in times]
        for i in got:
            (re, im, exp), (re_full, im_full, exp_full) = got[i], want[i]
            low = min(exp, exp_full)
            gap = [(a << exp - low) - (b << exp_full - low) for a, b in ((re, re_full), (im, im_full))]
            s = fixedpoint._float(s_all[i], -bits)
            unit = 2.0**-bits * sum(a * max(1.0, s) ** d for a, d in zip(w, degrees))
            steps = len({v for v in s_all if 0 < v <= s_all[i]})
            size = math.hypot(*(fixedpoint._float(g, low - top) for g in gap))
            assert size <= WALK_UNITS_PER_STEP * (steps + 1) * unit


def _assert_pairings_every_row(solution, N_verify: int) -> int:
    """``verify_terminal``'s pairings are those of every cross row formed, bit for bit; returns the rows it paired."""
    calls = []
    production = fixedpoint.terminal_pairings

    def both(*args):
        got = production(*args)
        want = oracle.terminal_pairings_every_row(*args)
        assert [(v.real, v.imag) for v in got] == [(v.real, v.imag) for v in want]
        calls.append(args)
        return got

    with mock.patch.object(fixedpoint, "terminal_pairings", both):
        verify_terminal(solution, N_verify)
    (free, gram_rows, kernels, T, gram, columns, x, *_), = calls
    fresh = fixedpoint._kernels(kernels, T, columns[0].bits)
    mates = fixedpoint.partners(fresh)
    if None in fixedpoint._paired(gram.mates, x):
        return 0
    return sum(p is not None and p < r for r, p in enumerate(mates))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("T,dps", [(8.0, 40), (0.5, 80)], ids=["rung40", "rung80"])
def test_pairings_of_partner_rows_equal_every_row_formed(seed, T, dps):
    # a real datum on the workhorse: every kept coefficient pairs, so the spill-over rows take one product per pair
    N = 6
    system = build_moment_system(cli._random_field(2, N, np.random.default_rng(seed)), ObservationChannel.DENSITY, T,
                                 build_slice(WORKHORSE, N + 3), N)
    solution = synthesize_control(system)
    assert solution.solve_dps == dps
    assert _assert_pairings_every_row(solution, N + 3) > 0


def _complex_solve(solution):
    """The x of the complex Cholesky of the solution's own Gram, at its rung."""
    targets = [complex(solution.system.rows[i].target) for i in solution.keep]
    scaled = oracle.scaled_gram(solution.gram, solution.columns)
    factor = oracle.factor_four(scaled, solution.solve_dps)
    return oracle.solve_complex(scaled, factor, solution.columns, targets, _RESIDUAL_TOL)[1]


#: the shared-eigenvalue set: modes +1 and -1 share the eigenvalue -1, so one of their proportional rows is dropped
SHARED_EIGENVALUE = NonBarotropicParams(rho_bar=1.0, u_bar=1.0, theta_bar=1.0, lambda0=1.0, kappa0=2.0, R=1.0, c0=1.0)
#: the coincidence-free three-field set
GENERIC = NonBarotropicParams(rho_bar=1.0, u_bar=0.9, theta_bar=1.0, lambda0=1.0, kappa0=2.0, R=1.0, c0=1.0)


@pytest.mark.parametrize("channel", [ObservationChannel.DENSITY, ObservationChannel.TEMPERATURE])
@pytest.mark.parametrize("name,params,kept,paired", [
    ("shared", SHARED_EIGENVALUE, 47, 36),
    ("generic", GENERIC, 48, 48),
    ("swapped-labels", random_nonbarotropic(np.random.default_rng(5)), 48, 36),
])
def test_three_field_solves_match_the_complex_solve(name, params, kept, paired, channel):
    # on the shared set and the first set of rng 5 the kernels of modes -2, -1, 1 and 2 find no partner (their
    # branch labels swap) and go last, as complex rows of the one factor; the generic set pairs every kernel
    N = 8
    field = cli._random_field(3, N, np.random.default_rng(2))
    if name == "shared":
        # modes +1 and -1 zero: the dropped row's target is consistent with its proportionality constant
        field.coeffs[N + 1] = field.coeffs[N - 1] = 0
    system = build_moment_system(field, channel, 8.0, build_slice(params, N + 2), N)
    solution = synthesize_control(system)
    mates = fixedpoint.partners(solution.columns)
    assert (len(mates), len(mates) - mates.count(None)) == (kept, paired)
    assert verify_terminal(solution, N + 2).in_truncation_residual <= 1e-6
    assert _within(solution.x, _complex_solve(solution), COEFFICIENT_BOUND)
    # a real datum pairs the coefficients exactly when every kernel pairs
    assert (None in fixedpoint._paired(solution.gram.mates, solution.x)) == (paired < kept)
    assert _assert_pairings_every_row(solution, N + 2) == (0 if paired < kept else 6)
    targets = [complex(system.rows[i].target) for i in solution.keep]
    _assert_one_pass_is_the_two_step_path(solution.gram, solution.columns, targets, solution.solve_dps)


@pytest.mark.parametrize("T,N,N_verify,dps", [(8.0, 8, 12, 40), (0.5, 6, 9, 80)], ids=["rung40", "rung80"])
def test_a_solve_forms_the_partners_and_odd_parts_once(T, N, N_verify, dps, monkeypatch):
    # one synthesize, verify and evaluate: the columns' partners and odd parts, those of the spill-over rows, and
    # nothing again; the evaluation and the verification read the Gram's partners
    system = build_moment_system(cli._random_field(2, N, np.random.default_rng(3)), ObservationChannel.DENSITY, T,
                                 build_slice(WORKHORSE, N_verify), N)
    calls = {"partners": [], "_odd_parts": []}
    for name, kept in calls.items():
        monkeypatch.setattr(fixedpoint, name, lambda first, *rest, f=getattr(fixedpoint, name), kept=kept:
                            kept.append(len(first)) or f(first, *rest))
    solution = synthesize_control(system)
    grams = calls["partners"][:-1]  # the rungs below the solve's refused the residual gate
    verify_terminal(solution, N_verify)
    solution(np.linspace(0.0, T, 51))
    columns, spill = len(solution.columns), 2 * 2 * (N_verify - N)
    assert solution.solve_dps == dps and len(grams) == _DPS_LADDER_INDEX[dps]
    assert calls["partners"] == grams + [columns, spill]
    assert len(calls["_odd_parts"]) == columns * (len(grams) + 1) + spill
