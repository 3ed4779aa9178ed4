"""The stacked eigenbasis consumers against the per-mode oracle.

Production expands a field by one stacked solve over the slice's basis
table, forms the observation signal and the adjoint state for all modes at
once and steps through the (column, chain level) pairs of
``evolution.chain_links``.  ``evolution_oracle`` keeps the per-mode solve,
the cluster-by-cluster evolution and the term-by-term signal.  The two
run plain floating point arithmetic in different orders and kernels, so
their numbers agree within ``RTOL`` of ``test_spectrum_fastpaths`` (zeros of
either sign equal, non-finite entries in the same places), not bit for
bit; an adjoint state within ``RTOL`` of the magnitudes it sums
(:func:`_adjoint_scale`).  The structure is compared exactly: which terms a signal keeps, their
rates and degrees, the table's clusters and Jordan levels, and the modes
and moment-row indices.  A moment row's kernel terms match the oracle's
bit for bit; its target, a pairing the oracle forms in another order,
within ``TARGET_EPS`` of its rounding scale.  Comparisons between two runs of the same
arithmetic (a round trip, the same terms evaluated twice, the witness loops
that never went through the batched slice) stay bit for bit; the witness's
bump gather and matrix-product transport gaps round otherwise than their
oracles and are held to measured bounds.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import evolution_oracle as oracle
import spectrum_oracle
from cnslab import control, counterexamples, evolution, fields, spectrum
from cnslab.cli import run
from cnslab.errors import DomainError, IllConditioned
from cnslab.evolution import (
    ObservationChannel,
    ObservationSignal,
    adjoint_state,
    observation_signal,
    observation_value,
)
from cnslab.fields import EigenExpansion, SpectralField, expand_in_eigenbasis, reconstruct
from cnslab.model import BarotropicParams, NonBarotropicParams
from cnslab.spectrum import BasisTable, Cluster, GeneralizedChain, ModeSpectrum, build_slice
from test_spectrum_fastpaths import BAROTROPIC, NAMED, NONBAROTROPIC, _close

#: the coincidence-free three-field set, and one whose pinned density component R*rho_bar = 3 is not rho_bar
GENERIC_THREE_FIELD = NonBarotropicParams(rho_bar=1.0, u_bar=0.9, theta_bar=1.0, lambda0=1.0, kappa0=2.0, R=1.0, c0=1.0)
THREE_FIELD_R2 = NonBarotropicParams(rho_bar=1.5, u_bar=0.9, theta_bar=0.8, lambda0=1.0, kappa0=2.0, R=2.0, c0=1.2)

_SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _same(a, b) -> bool:
    """Equal bit for bit, including the sign of zero."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _channels(params):
    return [c for c in ObservationChannel if oracle.channel_dim_ok(c, params.dim)]


def _random_field(seed: int, dim: int, N: int) -> SpectralField:
    """Random mean-zero field with some exact zeros and negative zeros among its entries."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(2 * N + 1, dim)) + 1j * rng.normal(size=(2 * N + 1, dim))
    parts = c.view(float)
    special = rng.random(parts.shape) < 0.1
    parts[special] = rng.choice([0.0, -0.0], size=int(special.sum()))
    c[N] = 0.0
    return SpectralField(dim=dim, N=N, coeffs=c)


def _random_expansion(seed: int, slice_) -> EigenExpansion:
    """Coefficients on a random subset of modes in random order, with zeros and negative zeros."""
    rng = np.random.default_rng(seed)
    modes = list(slice_.modes)
    picked = [modes[i] for i in rng.permutation(len(modes))[: rng.integers(0, len(modes) + 1)]]
    rows = {}
    for n in picked:
        row = rng.normal(size=slice_.dim) + 1j * rng.normal(size=slice_.dim)
        parts = row.view(float)
        special = rng.random(parts.shape) < 0.25
        parts[special] = rng.choice([0.0, -0.0], size=int(special.sum()))
        rows[n] = row
    return EigenExpansion(dim=slice_.dim, coefficients=rows)


def _assert_expansions_agree(got: EigenExpansion, ref: EigenExpansion, slice_):
    """Coefficients within the bound of the oracle's; condition numbers within
    it of the oracle's ``np.linalg.cond`` on 3x3 blocks, and of the 40-digit
    reference on 2x2 blocks, whose closed form is the more accurate of the two."""
    assert list(got.coefficients) == list(ref.coefficients)
    assert all(_close(got.coefficients[n], row) for n, row in ref.coefficients.items())
    assert list(got.condition_numbers) == list(ref.condition_numbers)
    conds = list(ref.condition_numbers.values())
    if slice_.dim == 2:
        conds = spectrum_oracle.condition_numbers(slice_.basis.basis[slice_.basis.rows(list(ref.condition_numbers))])
    assert _close(list(got.condition_numbers.values()), conds)


def _assert_signal_agrees(got: ObservationSignal, terms):
    """The same terms (rates and degrees exact), coefficients within the bound."""
    assert _same(got.rates, np.array([t.rate for t in terms], dtype=complex))
    assert _same(got.degrees, np.array([t.degree for t in terms], dtype=np.int64))
    assert _close(got.coefficients, np.array([t.coef for t in terms], dtype=complex))


def _adjoint_scale(slice_, n: int, a_n: np.ndarray, s: float) -> float:
    """``sum_c sum_k |w_c| s**k / k! ||Phi_{c-k}||`` of mode ``n``, ``w_c = e^{nu_c s} a_c``.

    The sum of the magnitudes of the vectors the adjoint state of the mode
    adds up, over its finite terms: the two sides sum the same terms in
    different orders, so their rounding scales with this sum, not with the
    result, which cancels when the mode's basis is ill conditioned.  A
    non-finite term makes every entry it reaches non-finite on both sides.
    With ``RTOL`` as the factor, the largest ratio seen was 3.5e-16: the
    error over this scale on 65,298 modes of 2000 random two- and
    three-field draws (N <= 16) and the named sets at N = 12.
    """
    total, offset = 0.0, 0
    for value, vectors, is_chain in oracle._cluster_blocks(slice_, n):
        for j in range(len(vectors)):
            w = abs(np.exp(value * s) * a_n[offset + j])
            for k in range(j + 1) if is_chain else (0,):
                term = w * s**k / math.factorial(k) * np.linalg.norm(vectors[j - k])
                total += term if np.isfinite(term) else 0.0
        offset += len(vectors)
    return total


def _assert_consumers_agree(slice_, expansion, T: float, t: float):
    for channel in _channels(slice_.params):
        got = observation_signal(expansion, slice_, channel, T)
        _assert_signal_agrees(got, oracle.observation_terms(expansion, slice_, channel))
    for time in (t, 0.0, T):
        got = adjoint_state(expansion, slice_, T, time).state.coeffs
        ref = oracle.adjoint_state(expansion, slice_, T, time).coeffs
        scales = np.zeros(len(ref))
        for n, a_n in expansion.coefficients.items():
            scales[n + slice_.N] = _adjoint_scale(slice_, n, a_n, T - time)
        assert all(_close(g, r, scale=scale) for g, r, scale in zip(got, ref, scales))


def _check_field(slice_, field, T: float, t: float):
    got = expand_in_eigenbasis(field, slice_)
    ref = oracle.expand_in_eigenbasis(field, slice_)
    _assert_expansions_agree(got, ref, slice_)
    _assert_consumers_agree(slice_, ref, T, t)


@functools.lru_cache(maxsize=None)
def _named_slice(name: str, N: int):
    return build_slice(NAMED[name], N)


def _semisimple_slice():
    """Workhorse slice whose mode 3 is hand-built as one semisimple two-vector cluster."""
    slice_ = build_slice(NAMED["workhorse"], 5)
    mode = slice_.mode(3)
    cluster = Cluster(
        value=np.mean([p.value for p in mode.pairs]),
        branches=tuple(p.branch for p in mode.pairs),
        vectors=tuple(p.vector for p in mode.pairs),
        chain=None,
    )
    return spectrum_oracle.with_modes(slice_, {**slice_.modes, 3: ModeSpectrum(n=3, pairs=mode.pairs, clusters=(cluster,))})


def _real_basis_slice():
    """Workhorse slice with modes 1 and 2 hand-built on the real unit vectors.

    Mode 1 is one Jordan-chain cluster, mode 2 two singleton clusters.  A
    real coefficient with a negative-zero imaginary part then gives signal
    terms with exact zeros, whose signs show whether a level-0 term went
    through a factor ``0! = 1``.
    """
    slice_ = build_slice(NAMED["workhorse"], 2)
    e = np.eye(2, dtype=complex)
    value = slice_.mode(1).pairs[0].value
    chain = GeneralizedChain(n=1, value=value, base_vector=e[0], chain_vectors=(e[1],), algebraic_multiplicity=2, residuals=(0.0,))
    modes = dict(slice_.modes)
    modes[1] = ModeSpectrum(n=1, pairs=slice_.mode(1).pairs, clusters=(
        Cluster(value=value, branches=tuple(p.branch for p in slice_.mode(1).pairs), vectors=(e[0], e[1]), chain=chain),
    ))
    modes[2] = ModeSpectrum(n=2, pairs=slice_.mode(2).pairs, clusters=tuple(
        Cluster(value=p.value, branches=(p.branch,), vectors=(v,), chain=None) for p, v in zip(slice_.mode(2).pairs, e)
    ))
    return spectrum_oracle.with_modes(slice_, modes)


class TestBasisTable:
    def test_build_slice_builds_no_mode_objects(self):
        slice_ = build_slice(NAMED["triple_root"], 8)
        assert "modes" not in vars(slice_)
        assert isinstance(slice_.basis, BasisTable) and slice_.basis.ns.size == 16
        assert slice_.modes is slice_.modes

    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_table_matches_the_modes(self, name):
        slice_ = _named_slice(name, 12)
        table = slice_.basis
        assert table.ns.tolist() == sorted(slice_.modes)
        for r, n in enumerate(table.ns.tolist()):
            mode = slice_.mode(n)
            assert _same(table.basis[r], np.column_stack(mode.basis_vectors()).astype(complex))
            assert _same(table.values[r], np.array([p.value for p in mode.pairs], dtype=complex))
            assert _same(table.vectors[r], np.array([p.vector for p in mode.pairs], dtype=complex))
            assert _same(table.nu_scaled[r], np.array([p.nu_scaled for p in mode.pairs], dtype=complex))
            assert _same(table.residuals[r], np.array([p.residual for p in mode.pairs], dtype=float))
            assert _same(table.rates[r], np.array([c.value for c in mode.clusters for _ in c.vectors], dtype=complex))
        # against the table of the per-mode slice: structure exact, numbers per mode within the bound
        ref_slice = spectrum_oracle.build_slice(NAMED[name], 12)
        ref = ref_slice.basis
        for field in ("ns", "clusters", "levels"):
            assert _same(getattr(table, field), getattr(ref, field)), field
        for field in ("values", "nu_scaled", "vectors", "basis", "rates"):
            assert all(_close(g, r) for g, r in zip(getattr(table, field), getattr(ref, field))), field
        assert _close(slice_.conds, ref_slice.conds)

    def test_condition_numbers_on_first_read(self, tmp_path, monkeypatch):
        slice_ = build_slice(NAMED["workhorse"], 8)
        assert "conds" not in vars(slice_)
        assert slice_.conds is slice_.conds and _close(slice_.conds, spectrum_oracle.condition_numbers(slice_.basis.basis))
        # through the CLI: spectrum and ingham never read them, observe takes
        # one batch for all its trials
        calls = []
        closed_form = spectrum._closed_form_svd
        monkeypatch.setattr(
            spectrum, "_closed_form_svd", lambda M, condition=False: calls.append(condition) or closed_form(M, condition)
        )
        head = "[run]\nsystem = barotropic\ncommand = {}\nseed = 7\n\n[params]\nrho_bar = 1.0\nu_bar = 0.9\nmu0 = 1.0\nb = 1.3\n\n"
        for command, section, expected in (
            ("spectrum", "[spectrum]\nN = 8\n", 0),
            ("ingham", "[ingham]\nN = 8\nT = 8.0\n", 0),
            ("observe", "[observe]\nN = 8\nT = 8.0\ntrials = 8\n", 1),
        ):
            cfg = tmp_path / f"{command}.ini"
            cfg.write_text(head.format(command) + section)
            calls.clear()
            assert run(cfg, tmp_path / command) == 0
            assert calls.count(True) == expected, command

    def test_columns_follow_the_clusters(self):
        table = _named_slice("triple_root", 4).basis
        r = table.rows([1])[0]
        assert table.levels[r].tolist() == [0, 1, 2] and table.clusters[r].tolist() == [0, 0, 0]
        unit = _named_slice("unit_barotropic", 4).basis
        r = unit.rows([2])[0]
        assert unit.levels[r].tolist() == [0, 1] and unit.clusters[r].tolist() == [0, 0]
        r = unit.rows([1])[0]
        assert unit.levels[r].tolist() == [0, 0] and unit.clusters[r].tolist() == [0, 1]

    def test_mode_outside_the_slice(self):
        table = _named_slice("workhorse", 4).basis
        for n in (0, 5, -9):
            with pytest.raises(DomainError, match=str(n)):
                table.rows([1, n])

    def test_chain_links(self):
        levels = np.array([[0, 0, 0], [0, 1, 2], [0, 1, 0]])
        links = evolution.chain_links(levels)
        assert [(c, k, f) for c, k, f, _ in links] == [(0, 0, 1), (1, 0, 1), (1, 1, 1), (2, 0, 1), (2, 1, 1), (2, 2, 2)]
        assert [m.tolist() for *_, m in links] == [
            [True] * 3, [True] * 3, [False, True, True], [True] * 3, [False, True, False], [False, True, False]
        ]


class TestExpansion:
    @given(params=BAROTROPIC, N=st.integers(1, 16), data=st.data())
    @settings(max_examples=30, **_SETTINGS)
    def test_barotropic(self, params, N, data):
        field = _random_field(data.draw(st.integers(0, 2**32 - 1)), 2, data.draw(st.integers(1, N)))
        T = data.draw(st.floats(0.05, 10.0))
        _check_field(build_slice(params, N), field, T, data.draw(st.floats(0.0, 1.0)) * T)

    @given(params=NONBAROTROPIC, N=st.integers(1, 16), data=st.data())
    @settings(max_examples=30, **_SETTINGS)
    def test_nonbarotropic(self, params, N, data):
        field = _random_field(data.draw(st.integers(0, 2**32 - 1)), 3, data.draw(st.integers(1, N)))
        T = data.draw(st.floats(0.05, 10.0))
        _check_field(build_slice(params, N), field, T, data.draw(st.floats(0.0, 1.0)) * T)

    def test_cancelling_basis(self):
        # modes +-2 have basis condition number 632: the adjoint state there
        # is a cancelling sum, and the two sides differ by 1.0e-14 of its size
        # at t = 0, within the bound of the summed magnitudes; the condition
        # number is the 40-digit value rounded (np.linalg.cond is 3.6e-14 off)
        params = BarotropicParams(rho_bar=0.99999, u_bar=1.0, mu0=1.0, b=1.0)
        _check_field(build_slice(params, 5), _random_field(0, 2, 5), 1.0, 0.0)

    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_named_sets(self, name):
        # Jordan pairs (unit_barotropic, mode 2), a Jordan triple
        # (triple_root, mode 1), a shared eigenvalue across modes and merged
        # parabolic anchors
        slice_ = _named_slice(name, 12)
        for seed in range(3):
            _check_field(slice_, _random_field(seed, slice_.dim, 12), 2.5, 0.7)

    def test_field_cutoff_below_the_slice(self):
        slice_ = _named_slice("unit_barotropic", 12)
        _check_field(slice_, _random_field(7, 2, 3), 4.0, 1.0)

    def test_semisimple_cluster(self):
        slice_ = _semisimple_slice()
        _check_field(slice_, _random_field(8, 2, 5), 3.0, 1.3)

    def test_ill_conditioned_names_the_first_mode(self, monkeypatch):
        slice_ = _named_slice("workhorse", 8)
        conds = slice_.conds
        limit = float(np.median(conds))
        monkeypatch.setattr(fields, "EXPANSION_COND_LIMIT", limit)
        first = int(slice_.basis.ns[np.flatnonzero(conds > limit)[0]])
        assert first != int(slice_.basis.ns[np.argmax(conds)]) or np.sum(conds > limit) == 1
        field = _random_field(1, 2, 8)
        with pytest.raises(IllConditioned) as got:
            expand_in_eigenbasis(field, slice_)
        with pytest.raises(IllConditioned) as ref:
            oracle.expand_in_eigenbasis(field, slice_)
        assert got.value.n == ref.value.n == first
        assert got.value.cond == ref.value.cond

    def test_mode_outside_the_slice_is_refused(self):
        expansion = EigenExpansion(dim=2, coefficients={9: np.array([1.0, 0.0j])})
        for call in (
            lambda s: observation_signal(expansion, s, ObservationChannel.DENSITY, 1.0),
            lambda s: adjoint_state(expansion, s, 1.0, 0.0),
            lambda s: reconstruct(expansion, s),
        ):
            with pytest.raises(DomainError, match="mode 9"):
                call(_named_slice("workhorse", 4))


class TestHandBuiltExpansions:
    @given(name=st.sampled_from(sorted(NAMED)), seed=st.integers(0, 2**32 - 1), T=st.floats(0.05, 6.0), frac=st.floats(0.0, 1.0))
    @settings(max_examples=40, **_SETTINGS)
    def test_subsets_in_any_order(self, name, seed, T, frac):
        slice_ = _named_slice(name, 6)
        _assert_consumers_agree(slice_, _random_expansion(seed, slice_), T, frac * T)

    def test_signed_zero_terms(self):
        # exact zeros, of either sign, among the coefficients: the same terms
        # are kept (a zero coefficient, +0 or -0, contributes none) and the
        # values agree with the oracle, which takes zeros of either sign as equal
        slice_ = _real_basis_slice()
        negative = complex(-2.0, -0.0)
        for rows in ({1: [negative, negative], 2: [negative, negative]}, {2: [complex(3.0, -0.0), -0.0j], 1: [0j, negative]}):
            expansion = EigenExpansion(dim=2, coefficients={n: np.array(r) for n, r in rows.items()})
            _assert_consumers_agree(slice_, expansion, 1.5, 0.5)
        # level-0 terms are the plain products in chain and other columns
        # alike, with no factor 0! = 1, so their -0 survives (the oracle's
        # division by 0! turns those of the chain columns into +0); only the
        # level-1 term is divided, by 1! = 1, which gives +0; mode 2's terms
        # come first (outermost mode first), then mode 1's chain
        expansion = EigenExpansion(dim=2, coefficients={1: np.array([negative, negative]), 2: np.array([negative, negative])})
        signal = observation_signal(expansion, slice_, ObservationChannel.DENSITY, 1.5)
        assert signal.degrees.tolist() == [0, 0, 0, 0, 1]
        assert np.signbit(signal.coefficients.imag).tolist() == [True, True, True, True, False]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_coefficients(self, bad):
        # a non-finite coefficient makes the same entries non-finite as in the
        # oracle (inf where the oracle's factor 0! = 1 gives NaN counts as
        # non-finite too), and the finite entries agree within the bound
        slice_ = _real_basis_slice()
        expansion = EigenExpansion(dim=2, coefficients={1: np.array([complex(bad, 0.0), 1.0]), 2: np.array([complex(0.0, bad), 1.0])})
        _assert_consumers_agree(slice_, expansion, 1.5, 0.5)
        rng = np.random.default_rng(int(np.signbit(bad)) + 2 * int(np.isnan(bad)))
        for name in sorted(NAMED):
            slice_ = _named_slice(name, 4)
            expansion = _random_expansion(int(rng.integers(2**32)), slice_)
            for row in expansion.coefficients.values():
                parts = row.view(float)
                parts[rng.random(parts.shape) < 0.3] = bad
            _assert_consumers_agree(slice_, expansion, 1.0, 0.3)

    def test_empty_expansion(self):
        slice_ = _named_slice("workhorse", 3)
        empty = EigenExpansion(dim=2, coefficients={})
        signal = observation_signal(empty, slice_, ObservationChannel.VELOCITY, 1.0)
        assert signal.terms == [] and signal.coefficients.shape == (0,)
        assert np.all(adjoint_state(empty, slice_, 1.0, 0.2).state.coeffs == 0.0)


class TestObservationValues:
    @given(params=st.one_of(BAROTROPIC, NONBAROTROPIC), seed=st.integers(0, 2**32 - 1), n=st.integers(-500, 500))
    @settings(max_examples=60, **_SETTINGS)
    def test_stacked_values_match_scalar_arithmetic(self, params, seed, n):
        # within the bound of each vector's observation; negative zeros compare equal
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(7, params.dim)) + 1j * rng.normal(size=(7, params.dim))
        parts = vectors.view(float)
        parts[rng.random(parts.shape) < 0.2] = -0.0
        for channel in _channels(params):
            got = evolution.observation_values(channel, vectors, n, params)
            ref = np.array([oracle.observation_value(channel, v, n, params) for v in vectors])
            assert all(_close(g, r) for g, r in zip(got, ref))
            assert all(_close(observation_value(channel, v, n, params), r) for v, r in zip(vectors, ref))

    @pytest.mark.parametrize("system", [BAROTROPIC, NONBAROTROPIC], ids=["two-field", "three-field"])
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, **_SETTINGS)
    def test_table_reading_matches_per_system_formulas_bit_for_bit(self, system, data, seed):
        # the table's terms summed in the per-system order: the diffusive
        # term right after the channel's own component, never last
        params = data.draw(system)
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(6, 3, params.dim)) + 1j * rng.normal(size=(6, 3, params.dim))
        parts = vectors.view(float)
        special = rng.random(parts.shape) < 0.2
        parts[special] = rng.choice([0.0, -0.0], size=int(special.sum()))
        ns = rng.integers(-500, 501, size=(6, 1))
        for channel in _channels(params):
            for n in (ns, int(ns[0, 0])):
                got = evolution.observation_values(channel, vectors, n, params)
                ref = oracle.observation_values(channel, vectors, n, params)
                assert got.shape == ref.shape
                assert [(z.real.hex(), z.imag.hex()) for z in got.ravel().tolist()] == [
                    (z.real.hex(), z.imag.hex()) for z in ref.ravel().tolist()
                ]


class TestSignalEvaluation:
    # terms of about 2.3 that cancel to 0.045 at t = T
    @example(name="shared_eigenvalue", seed=51043732, shape=())
    @given(name=st.sampled_from(sorted(NAMED)), seed=st.integers(0, 2**32 - 1), shape=st.sampled_from([(), (1,), (5,), (513,), (3, 4)]))
    @settings(max_examples=30, **_SETTINGS)
    def test_call_matches_term_loop(self, name, seed, shape):
        slice_ = _named_slice(name, 6)
        expansion = _random_expansion(seed, slice_)
        T = 1.7
        terms = oracle.observation_terms(expansion, slice_, ObservationChannel.DENSITY)
        signal = observation_signal(expansion, slice_, ObservationChannel.DENSITY, T)
        t = np.random.default_rng(seed).uniform(0.0, T, size=shape)
        # the production signal's terms agree with the oracle's within the
        # bound; the oracle's own terms evaluate bit for bit as in the loop
        assert _close(signal(t), oracle.signal_values(terms, T, t))
        assert _same(oracle.signal_from_terms(terms, T)(t), oracle.signal_values(terms, T, t))

    def test_terms_round_trip(self):
        slice_ = _named_slice("unit_barotropic", 4)
        expansion = expand_in_eigenbasis(_random_field(4, 2, 4), slice_)
        signal = observation_signal(expansion, slice_, ObservationChannel.VELOCITY, 1.0)
        again = oracle.signal_from_terms(signal.terms, 1.0)
        for field in ("coefficients", "rates", "degrees"):
            assert _same(getattr(again, field), getattr(signal, field))
        assert max(signal.degrees) == 1


#: Bound on a moment row's target against the oracle's, in units of
#: ``eps`` times the row's rounding scale (:func:`_target_scale`), plus an
#: absolute floor for rows whose scale lies near the subnormal range.  The
#: oracle pairs the datum with each chain vector and sums ``T**k / k!``
#: multiples of the pairings; production pairs it with the flowed unit
#: coordinate.  On 400 random sets of both systems (N 1-8, T 0.1-12, every
#: channel) the two differed by at most 2.02 of those units, and by at most
#: 2**-1059 where the scale lies below 2**-1000.
TARGET_EPS = 4.0
TARGET_FLOOR = 2.0**-1050


def _target_scale(U0: SpectralField, slice_, row, T: float) -> float:
    """``|e^{conj(nu) T}| sum_k T**k / k! * 2 pi sum_i w_i |U0_i| |v_{c-k, i}|`` of a row's target."""
    table = slice_.basis
    r = table.rows([row.n])[0]
    c = row.position + table.clusters[r].tolist().index(row.cluster_index)
    weighted = 2.0 * np.pi * np.array(slice_.params.coefficients.weights) * np.abs(U0.coeff(row.n))
    pairings = [T**k / math.factorial(k) * float(np.sum(weighted * np.abs(table.basis[r, :, c - k])))
                for k in range(int(table.levels[r, c]) + 1)]
    return float(abs(np.exp(row.rate * T))) * sum(pairings)


class TestControlRows:
    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_rows_match_the_clusters(self, name):
        slice_ = _named_slice(name, 8)
        self._assert_rows_equal(slice_, 6, _random_field(5, slice_.dim, 6), 2.5)

    def test_semisimple_cluster_rows(self):
        slice_ = _semisimple_slice()
        self._assert_rows_equal(slice_, 5, _random_field(5, slice_.dim, 5), 2.5)

    @given(params=st.one_of(BAROTROPIC, NONBAROTROPIC), N=st.integers(1, 8), T=st.floats(0.1, 12.0),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, **_SETTINGS)
    def test_rows_of_random_sets_match_the_clusters(self, params, N, T, seed):
        slice_ = build_slice(params, N + 1)
        self._assert_rows_equal(slice_, N, _random_field(seed, params.dim, N), T)

    @staticmethod
    def _assert_rows_equal(slice_, N, U0, T):
        # structure, rates and kernels bit for bit; targets within TARGET_EPS of their rounding scale
        eps = np.finfo(float).eps
        for channel in _channels(slice_.params):
            got = list(control._chain_rows(U0, channel, T, slice_, N))
            ref = list(oracle.chain_rows(U0, channel, T, slice_, N))
            assert [g.position for g in got] == [j for j, _ in ref]
            for g, (_, r) in zip(got, ref):
                assert (g.n, g.cluster_index, g.level) == (r.n, r.cluster_index, r.level)
                assert type(g.rate) is type(r.rate) and _same(g.rate, r.rate)
                assert [(k.degree, type(k.coef), type(k.rate)) for k in g.kernel] == [
                    (k.degree, type(k.coef), type(k.rate)) for k in r.kernel
                ]
                assert all(_same(a.coef, b.coef) and _same(a.rate, b.rate) for a, b in zip(g.kernel, r.kernel))
                scale = _target_scale(U0, slice_, g, T)
                assert abs(g.target - r.target) <= TARGET_EPS * eps * scale + TARGET_FLOOR


def record_witness_stages(monkeypatch) -> dict:
    """Spies on the stages of the witnesses of ``counterexamples``; the dict they fill is returned.

    ``slice``: the slice built.  ``coordinates``, ``ns`` and ``reports``:
    the eigen-coordinates and modes :func:`coordinate_quotients` receives and
    the reports it returns.  ``profiles``, ``hyp``, ``rates`` and ``gaps``:
    the filtered profiles by N, the hyperbolic values and transport rates
    ``_transport_gaps`` receives, and the gaps it returns.  Everything
    received is copied.
    """
    seen = {}
    build, quotients = counterexamples.build_slice, counterexamples.coordinate_quotients
    transport_gaps = counterexamples._transport_gaps

    def recording_build(params, N):
        seen["slice"] = build(params, N)
        return seen["slice"]

    def recording_quotients(coordinates, ns, *args):
        seen["coordinates"], seen["ns"] = coordinates.copy(), ns.copy()
        seen["reports"] = quotients(coordinates, ns, *args)
        return seen["reports"]

    def recording_gaps(profiles, hyp, rates, T):
        seen["profiles"] = {N: amp.copy() for N, amp in profiles.items()}
        seen["hyp"], seen["rates"] = hyp.copy(), rates.copy()
        seen["gaps"] = transport_gaps(profiles, hyp, rates, T)
        return seen["gaps"]

    monkeypatch.setattr(counterexamples, "build_slice", recording_build)
    monkeypatch.setattr(counterexamples, "coordinate_quotients", recording_quotients)
    monkeypatch.setattr(counterexamples, "_transport_gaps", recording_gaps)
    return seen


def _witness_lift(seen, params) -> np.ndarray:
    """The terminal data of the recorded coordinates as coefficient tables ``(k, 2N + 1, dim)``, through :func:`reconstruct`."""
    slice_ = seen["slice"]
    return np.stack([
        reconstruct(EigenExpansion(params.dim, dict(zip(seen["ns"].tolist(), coordinates))), slice_).coeffs
        for coordinates in seen["coordinates"]
    ])


def _transport_inputs(params, N_list, horizon, window):
    """``(T, profiles, slice, hyp, rates)`` of the transport comparison, built as the small-time witness builds them.

    The horizon is ``horizon`` times the transport time ``2 pi / u_bar``; the
    bump starts ``window[0]`` of the way from ``u_bar T`` to ``2 pi`` and
    spans ``window[1]`` of what is left.  The witness's quotients are not
    run: they may refuse to certify a draw's tiny energies.
    """
    T = horizon * 2.0 * np.pi / params.u_bar
    left = params.u_bar * T + window[0] * (2.0 * np.pi - params.u_bar * T)
    spec = counterexamples.BumpSpec(left, left + window[1] * (2.0 * np.pi - left))
    cutoff = counterexamples._CUTOFF_FACTOR * N_list[-1] + max(2 * N_list[-1], 48)
    ns = np.arange(-cutoff, cutoff + 1)
    bumps, _ = counterexamples.bump_coefficients(spec, cutoff, carrier=counterexamples._MODULATION_FACTOR * np.array(N_list))
    bumps[np.abs(ns) <= np.array(N_list)[:, None]] = 0.0
    slice_ = build_slice(params, cutoff)
    rates = 1j * params.u_bar * ns - params.coefficients.omega
    return T, dict(zip(N_list, bumps)), slice_, oracle.hyperbolic_values(slice_, cutoff), rates


class TestWitnessLoops:
    @given(cutoff=st.integers(1, 300), carrier=st.integers(0, 80), seed=st.one_of(st.none(), st.integers(0, 100)))
    @settings(max_examples=20, **_SETTINGS)
    def test_bump_gather(self, cutoff, carrier, seed):
        # The gather shifts the unmodulated spectrum; the oracle modulates the
        # samples, whose phases c*x round to about eps*c*2*pi.  Measured on
        # 1500 draws (cutoff 1-300, carrier 0-80, 1024 and 8192 samples): at
        # most 0.83*(carrier + 1)*eps*max|coeff|, max|coeff| taken over a
        # window that holds the carrier, and tails within 4.25 eps.
        spec = counterexamples.BumpSpec(x_left=3.2, x_right=5.8, seed=seed, jitter=0.05)
        got = counterexamples.bump_coefficients(spec, cutoff, samples=1024, carrier=carrier)
        ref = oracle.bump_coefficients(spec, cutoff, samples=1024, carrier=carrier)
        scale = np.max(np.abs(oracle.bump_coefficients(spec, cutoff + carrier, samples=1024, carrier=carrier)[0]))
        eps = np.finfo(float).eps
        assert got[0].shape == ref[0].shape and got[0][cutoff] == 0.0
        assert np.max(np.abs(got[0] - ref[0])) <= (carrier + 1) * eps * scale
        assert type(got[1]) is float and abs(got[1] - ref[1]) <= 16 * eps

    def test_bump_carriers_share_one_spectrum(self):
        spec = counterexamples.BumpSpec(x_left=3.2, x_right=5.8)
        carriers = np.array([24, 32, 48, 64])
        rows, tails = counterexamples.bump_coefficients(spec, 112, carrier=carriers)
        assert rows.shape == (4, 225) and tails.shape == (4,)
        for c, row, tail in zip(carriers, rows, tails):
            one, one_tail = counterexamples.bump_coefficients(spec, 112, carrier=int(c))
            assert _same(row, one) and tail == one_tail

    @pytest.mark.parametrize(
        "params,T,N_list,window",
        [
            (NAMED["workhorse"], 3.0, [6, 8, 12, 16], (3.2, 5.8)),
            (BarotropicParams(rho_bar=2.0, u_bar=1.3, mu0=0.7, b=0.8), 2.0, [5, 7, 12], (2.8, 6.0)),
            (GENERIC_THREE_FIELD, 3.0, [6, 8, 12, 16], (3.2, 5.8)),
            (THREE_FIELD_R2, 3.0, [8, 12], (3.2, 5.8)),
        ],
        ids=["workhorse", "barotropic-2.0-1.3-0.7-0.8", "three-field", "three-field-R=2"],
    )
    def test_transport_gap_against_direct_exponentials(self, monkeypatch, params, T, N_list, window):
        # The matrix products round each exponential twice and sum each
        # mode's difference as adjacent terms; the oracle takes one
        # exponential per (time, mode) and subtracts two sums of size
        # sum|amp|.  Measured at any of the 257 times, in eps*sum|amp|: at
        # most 0.89 on these two-field sets and 6.8 on these three-field
        # sets.  Against 40 digits at every 8th time of the coincidence-free
        # set both stay within 2.6: the three-field figure is the two paths
        # rounding rate*s apart, and it grows with |rate*T|: random
        # three-field draws are held to a bound that grows with it in
        # test_three_field_transport_gaps_against_direct_exponentials.
        seen = record_witness_stages(monkeypatch)
        report = counterexamples.small_time_witness(params, T, N_list, counterexamples.BumpSpec(*window))
        lifted, gaps = seen["profiles"], seen["gaps"]
        assert list(lifted) == N_list
        ref = oracle.transport_gaps(params, seen["slice"], lifted, T, report.metadata["cutoff"])
        bound = (4 if params.dim == 2 else 16) * np.finfo(float).eps
        for N, amp in lifted.items():
            assert report.transport_gap[N] == gaps[N].max()
            assert np.max(np.abs(gaps[N] - ref[N])) <= bound * np.sum(np.abs(amp))

    @given(
        params=st.one_of(BAROTROPIC, NONBAROTROPIC),
        N_list=st.lists(st.integers(2, 29), min_size=2, max_size=4, unique=True).map(sorted),
        horizon=st.floats(0.3, 0.9),
        window=st.tuples(st.floats(0.05, 0.6), st.floats(0.2, 0.95)),
    )
    @settings(max_examples=25, **_SETTINGS)
    def test_transport_gaps_against_the_per_time_difference(self, params, N_list, horizon, window):
        # The matrix products against the path they replaced, which formed
        # each (time, mode) difference of the multiplied-out tables and
        # summed the weighted rows.  Measured over 160 random draws of these
        # ranges: at most 0.68*eps*sum|amp| (two fields) and 0.46 (three
        # fields) at any of the 257 times.
        T, profiles, _, hyp, rates = _transport_inputs(params, N_list, horizon, window)
        got = counterexamples._transport_gaps(profiles, hyp, rates, T)
        ref = oracle.transport_gaps_per_time(profiles, hyp, rates, T)
        for N, amp in profiles.items():
            assert got[N].shape == ref[N].shape == (counterexamples._TRANSPORT_TIMES,)
            assert np.all(np.abs(got[N] - ref[N]) <= 2 * np.finfo(float).eps * np.sum(np.abs(amp)))

    @given(
        params=NONBAROTROPIC,
        N_list=st.lists(st.integers(2, 29), min_size=2, max_size=4, unique=True).map(sorted),
        horizon=st.floats(0.3, 0.9),
        window=st.tuples(st.floats(0.05, 0.6), st.floats(0.2, 0.95)),
    )
    @settings(max_examples=25, **_SETTINGS)
    def test_three_field_transport_gaps_against_direct_exponentials(self, params, N_list, horizon, window):
        # Each path rounds every rate*s to eps*|rate*s| before its
        # exponential, so the two may differ by eps*sum|amp|*max|rate|*T;
        # the bound takes half of that per path plus 4 for the sums.
        # Measured over 525 random draws of these ranges (max|rate|*T from
        # about 90 to 1000): at most 43*eps*sum|amp|, and at most
        # 0.135*eps*sum|amp|*max|rate|*T.
        T, profiles, slice_, hyp, rates = _transport_inputs(params, N_list, horizon, window)
        got = counterexamples._transport_gaps(profiles, hyp, rates, T)
        ref = oracle.transport_gaps(params, slice_, profiles, T, slice_.N)
        reach = max(np.max(np.abs(hyp)), np.max(np.abs(rates))) * T
        for N, amp in profiles.items():
            bound = (4.0 + 0.5 * reach) * np.finfo(float).eps * np.sum(np.abs(amp))
            assert np.max(np.abs(got[N] - ref[N])) <= bound

    def test_transport_gaps_per_profile(self, monkeypatch):
        # each profile's gaps are its own matrix product: the same bits
        # whether it is passed alone or among the others
        seen = record_witness_stages(monkeypatch)
        counterexamples.small_time_witness(NAMED["workhorse"], 3.0, [6, 8, 12, 16], counterexamples.BumpSpec(3.2, 5.8))
        for N, amp in seen["profiles"].items():
            alone = counterexamples._transport_gaps({N: amp}, seen["hyp"], seen["rates"], 3.0)
            assert list(alone) == [N] and _same(alone[N], seen["gaps"][N])

    @given(params=st.one_of(st.sampled_from(["workhorse", "unit_barotropic", "uc_failing"]).map(NAMED.get), BAROTROPIC))
    @settings(max_examples=20, **_SETTINGS)
    def test_hyperbolic_lift_and_values(self, params):
        # The witness writes each datum's eigen-coordinates: profile over
        # pinned density on the hyperbolic column, exact zeros elsewhere.
        # Reconstructed, they are the oracle's lift within a few ulps (the
        # two round the scaling in another order); the hyperbolic values the
        # transport comparison reads are the oracle's bit for bit.
        with pytest.MonkeyPatch.context() as monkeypatch:
            seen = record_witness_stages(monkeypatch)
            counterexamples.small_time_witness(params, 2.0, [2, 3], counterexamples.BumpSpec(x_left=3.2, x_right=5.8))
        slice_ = seen["slice"]
        assert _same(seen["ns"], slice_.basis.ns)
        assert np.all(seen["coordinates"][..., 1:] == 0.0)
        for amp, got in zip(seen["profiles"].values(), _witness_lift(seen, params)):
            ref = oracle.hyperbolic_lift(params, amp, slice_.N, slice_).coeffs
            assert np.all(np.abs(got - ref) <= 4 * np.finfo(float).eps * np.abs(ref))
        assert _same(seen["hyp"], oracle.hyperbolic_values(slice_, slice_.N))

    @pytest.mark.parametrize("params", [
        NAMED["workhorse"],
        GENERIC_THREE_FIELD,
        BarotropicParams(rho_bar=2.0, u_bar=1.3, mu0=0.7, b=0.8),
    ], ids=["workhorse", "generic-three-field", "barotropic-2.0-1.3-0.7-0.8"])
    def test_transport_rate_is_the_hyperbolic_anchor(self, monkeypatch, params):
        # the rate the transport comparison reads is spectrum._anchors' hyperbolic
        # column, the same bits as i*u_bar*n - omega, signed zeros included
        seen = record_witness_stages(monkeypatch)
        counterexamples.small_time_witness(params, 2.0, [5, 7], counterexamples.BumpSpec(x_left=2.8, x_right=6.0))
        ns = np.arange(-seen["slice"].N, seen["slice"].N + 1)
        assert _same(seen["rates"], 1j * params.u_bar * ns - params.coefficients.omega)

    @pytest.mark.parametrize("N", [4, 24, 96])
    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_first_basis_column_is_the_hyperbolic_eigenvector(self, name, N):
        # the invariant the witnesses' coordinates rest on: a 1 on column 0
        # is the hyperbolic eigenfunction, Jordan pairs and triples included
        table = _named_slice(name, N).basis
        assert _same(table.basis[:, :, 0], table.vectors[:, counterexamples._HYPERBOLIC])
