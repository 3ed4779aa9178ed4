"""The stacked eigenbasis consumers against the per-mode oracle.

Production expands a field by one stacked solve over the slice's basis
table, forms the observation signal and the adjoint state for all modes at
once and steps through the (column, chain level) pairs of
``evolution.chain_links``.  ``evolution_oracle`` keeps the per-mode solve,
the cluster-by-cluster evolution and the term-by-term signal.  The stacked
arithmetic is meant to reproduce the per-mode arithmetic exactly, so every
comparison below is bit for bit, signed zeros included.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import evolution_oracle as oracle
import spectrum_oracle
from cnslab import control, counterexamples, evolution, fields
from cnslab.errors import DomainError, IllConditioned
from cnslab.evolution import (
    ObservationChannel,
    ObservationSignal,
    adjoint_state,
    channel_dim_ok,
    observation_signal,
    observation_value,
)
from cnslab.fields import EigenExpansion, SpectralField, expand_in_eigenbasis, reconstruct
from cnslab.spectrum import Cluster, GeneralizedChain, ModeSpectrum, build_slice
from test_spectrum_fastpaths import BAROTROPIC, NAMED, NONBAROTROPIC, _same

_SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _channels(params):
    return [c for c in ObservationChannel if channel_dim_ok(c, params.dim)]


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


def _assert_expansions_equal(got: EigenExpansion, ref: EigenExpansion):
    assert list(got.coefficients) == list(ref.coefficients)
    for n, row in ref.coefficients.items():
        assert _same(got.coefficients[n], row)
    assert list(got.condition_numbers) == list(ref.condition_numbers)
    assert all(_same(got.condition_numbers[n], c) for n, c in ref.condition_numbers.items())


def _assert_signal_matches(got: ObservationSignal, terms):
    assert _same(got.coefficients, np.array([t.coefficient for t in terms], dtype=complex))
    assert _same(got.rates, np.array([t.rate for t in terms], dtype=complex))
    assert _same(got.degrees, np.array([t.poly_degree for t in terms], dtype=np.int64))


def _assert_consumers_match(slice_, expansion, T: float, t: float):
    for channel in _channels(slice_.params):
        got = observation_signal(expansion, slice_, channel, T)
        _assert_signal_matches(got, oracle.observation_terms(expansion, slice_, channel))
    for time in (t, 0.0, T):
        assert _same(adjoint_state(expansion, slice_, T, time).state.coeffs, oracle.adjoint_state(expansion, slice_, T, time).coeffs)


def _check_field(slice_, field, T: float, t: float):
    got = expand_in_eigenbasis(field, slice_)
    ref = oracle.expand_in_eigenbasis(field, slice_)
    _assert_expansions_equal(got, ref)
    _assert_consumers_match(slice_, ref, T, t)


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
    modes = {**slice_.modes, 3: ModeSpectrum(n=3, pairs=mode.pairs, clusters=(cluster,))}
    return dataclasses.replace(slice_, modes=modes)


def _real_basis_slice():
    """Workhorse slice with modes 1 and 2 hand-built on the real unit vectors.

    Mode 1 is one Jordan-chain cluster, mode 2 two singleton clusters.  A
    real coefficient with a negative-zero imaginary part then gives signal
    terms with exact zeros, whose signs tell a division by ``0! = 1`` (chain
    columns) from no division (other columns).
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
    return dataclasses.replace(slice_, modes=modes)


class TestBasisTable:
    def test_build_slice_leaves_the_table_unbuilt(self):
        slice_ = build_slice(NAMED["triple_root"], 8)
        assert "basis" not in vars(slice_)
        assert slice_.basis is slice_.basis

    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_table_matches_the_modes(self, name):
        slice_ = _named_slice(name, 12)
        table = slice_.basis
        assert table.ns.tolist() == sorted(slice_.modes) and not table.unchained
        for r, n in enumerate(table.ns.tolist()):
            mode = slice_.mode(n)
            assert _same(table.basis[r], np.column_stack(mode.basis_vectors()).astype(complex))
            assert _same(table.values[r], np.array([p.value for p in mode.pairs], dtype=complex))
            assert _same(table.vectors[r], np.array([p.vector for p in mode.pairs], dtype=complex))
        ref = spectrum_oracle.build_slice(NAMED[name], 12).basis
        for field in table._fields:
            assert _same(getattr(table, field), getattr(ref, field)), field

    def test_columns_follow_the_clusters(self):
        table = _named_slice("triple_root", 4).basis
        r = table.rows([1])[0]
        assert table.levels[r].tolist() == [0, 1, 2] and table.chained[r].all()
        unit = _named_slice("unit_barotropic", 4).basis
        r = unit.rows([2])[0]
        assert unit.levels[r].tolist() == [0, 1] and unit.clusters[r].tolist() == [0, 0]
        assert not unit.chained[unit.rows([1])[0]].any()

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
        conds = slice_.basis.conds
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

    def test_unchained_coincidence_is_refused(self):
        slice_ = build_slice(NAMED["unit_barotropic"], 3)
        mode = slice_.mode(2)
        truncated = dataclasses.replace(mode.clusters[0], vectors=mode.clusters[0].vectors[:1])
        slice_.modes[2] = dataclasses.replace(mode, clusters=(truncated,))
        field = _random_field(2, 2, 3)
        with pytest.raises(DomainError, match="unresolved coincidence"):
            oracle.expand_in_eigenbasis(field, slice_)
        with pytest.raises(DomainError, match="unresolved coincidence"):
            expand_in_eigenbasis(field, slice_)
        expansion = EigenExpansion(dim=2, coefficients={1: np.array([1.0, 0.5j])})
        with pytest.raises(DomainError, match="unresolved coincidence"):
            observation_signal(expansion, slice_, ObservationChannel.DENSITY, 1.0)
        with pytest.raises(DomainError, match="unresolved coincidence"):
            adjoint_state(expansion, slice_, 1.0, 0.5)
        with pytest.raises(DomainError, match="unresolved coincidence"):
            list(control._chain_rows(field, ObservationChannel.DENSITY, 1.0, slice_, 3))

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
        _assert_consumers_match(slice_, _random_expansion(seed, slice_), T, frac * T)

    def test_signed_zero_terms(self):
        slice_ = _real_basis_slice()
        negative = complex(-2.0, -0.0)
        for rows in ({1: [negative, negative], 2: [negative, negative]}, {2: [complex(3.0, -0.0), -0.0j], 1: [0j, negative]}):
            expansion = EigenExpansion(dim=2, coefficients={n: np.array(r) for n, r in rows.items()})
            _assert_consumers_match(slice_, expansion, 1.5, 0.5)
        # chain columns come out with +0, the others keep -0
        expansion = EigenExpansion(dim=2, coefficients={1: np.array([negative, negative]), 2: np.array([negative, negative])})
        signal = observation_signal(expansion, slice_, ObservationChannel.DENSITY, 1.5)
        assert np.signbit(signal.coefficients.imag).tolist() == [False, False, False, True, True]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_coefficients(self, bad):
        slice_ = _real_basis_slice()
        expansion = EigenExpansion(dim=2, coefficients={1: np.array([complex(bad, 0.0), 1.0]), 2: np.array([complex(0.0, bad), 1.0])})
        _assert_consumers_match(slice_, expansion, 1.5, 0.5)
        rng = np.random.default_rng(int(np.signbit(bad)) + 2 * int(np.isnan(bad)))
        for name in sorted(NAMED):
            slice_ = _named_slice(name, 4)
            expansion = _random_expansion(int(rng.integers(2**32)), slice_)
            for row in expansion.coefficients.values():
                parts = row.view(float)
                parts[rng.random(parts.shape) < 0.3] = bad
            _assert_consumers_match(slice_, expansion, 1.0, 0.3)

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
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(7, params.dim)) + 1j * rng.normal(size=(7, params.dim))
        parts = vectors.view(float)
        parts[rng.random(parts.shape) < 0.2] = -0.0
        for channel in _channels(params):
            got = evolution.observation_values(channel, vectors, n, params)
            ref = np.array([oracle.observation_value(channel, v, n, params) for v in vectors])
            assert _same(got, ref)
            assert all(_same(observation_value(channel, v, n, params), r) for v, r in zip(vectors, ref))


class TestSignalEvaluation:
    @given(name=st.sampled_from(sorted(NAMED)), seed=st.integers(0, 2**32 - 1), shape=st.sampled_from([(), (1,), (5,), (513,), (3, 4)]))
    @settings(max_examples=30, **_SETTINGS)
    def test_call_matches_term_loop(self, name, seed, shape):
        slice_ = _named_slice(name, 6)
        expansion = _random_expansion(seed, slice_)
        T = 1.7
        terms = oracle.observation_terms(expansion, slice_, ObservationChannel.DENSITY)
        signal = observation_signal(expansion, slice_, ObservationChannel.DENSITY, T)
        t = np.random.default_rng(seed).uniform(0.0, T, size=shape)
        assert _same(signal(t), oracle.signal_values(terms, T, t))
        assert _same(ObservationSignal(terms=terms, horizon=T)(t), oracle.signal_values(terms, T, t))
        assert _same(signal.value_at_terminal(), oracle.value_at_terminal(terms))

    def test_terms_round_trip(self):
        slice_ = _named_slice("unit_barotropic", 4)
        expansion = expand_in_eigenbasis(_random_field(4, 2, 4), slice_)
        signal = observation_signal(expansion, slice_, ObservationChannel.VELOCITY, 1.0)
        again = ObservationSignal(terms=signal.terms, horizon=1.0)
        for field in ("coefficients", "rates", "degrees"):
            assert _same(getattr(again, field), getattr(signal, field))
        assert max(signal.degrees) == 1


class TestControlRows:
    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_rows_match_the_clusters(self, name):
        slice_ = _named_slice(name, 8)
        self._assert_rows_equal(slice_, 6)

    def test_semisimple_cluster_rows(self):
        self._assert_rows_equal(_semisimple_slice(), 5)

    @staticmethod
    def _assert_rows_equal(slice_, N):
        U0 = _random_field(5, slice_.dim, N)
        for channel in _channels(slice_.params):
            got = list(control._chain_rows(U0, channel, 2.5, slice_, N))
            ref = list(oracle.chain_rows(U0, channel, 2.5, slice_, N))
            assert [j for j, _ in got] == [j for j, _ in ref]
            for (_, g), (_, r) in zip(got, ref):
                assert (g.n, g.cluster_index, g.level) == (r.n, r.cluster_index, r.level)
                assert type(g.rate) is type(r.rate) and _same(g.rate, r.rate)
                assert _same(g.target, r.target) and _same(g.observation, r.observation)
                assert [(k.degree, complex(k.coef), complex(k.rate)) for k in g.kernel] == [
                    (k.degree, complex(k.coef), complex(k.rate)) for k in r.kernel
                ]
                assert all(_same(a.coef, b.coef) for a, b in zip(g.kernel, r.kernel))


class TestWitnessLoops:
    @given(N=st.integers(0, 20), x=st.lists(st.floats(-300, 300), min_size=1, max_size=20))
    @settings(max_examples=60, **_SETTINGS)
    def test_pn_value_over_an_array(self, N, x):
        got = counterexamples.pn_value(N, np.array(x))
        assert _same(got, np.array([oracle.pn_value(N, v) for v in x]))
        assert counterexamples.pn_value(N, x[0]) == oracle.pn_value(N, x[0])

    @given(seed=st.integers(0, 2**32 - 1), N=st.integers(1, 12), cutoff=st.integers(1, 60), dim=st.integers(1, 3))
    @settings(max_examples=40, **_SETTINGS)
    def test_pn_filter(self, seed, N, cutoff, dim):
        field = _random_field(seed, dim, cutoff)
        assert _same(counterexamples.pn_filter(field, N).coeffs, oracle.pn_filter(field, N).coeffs)

    @given(cutoff=st.integers(1, 300), carrier=st.integers(0, 80), seed=st.one_of(st.none(), st.integers(0, 100)))
    @settings(max_examples=20, **_SETTINGS)
    def test_bump_gather(self, cutoff, carrier, seed):
        spec = counterexamples.BumpSpec(x_left=3.2, x_right=5.8, seed=seed, jitter=0.05)
        got = counterexamples.bump_coefficients(spec, cutoff, samples=1024, carrier=carrier)
        ref = oracle.bump_coefficients(spec, cutoff, samples=1024, carrier=carrier)
        assert _same(got[0], ref[0]) and _same(got[1], ref[1])

    @given(params=st.one_of(st.sampled_from(["workhorse", "unit_barotropic", "uc_failing"]).map(NAMED.get), BAROTROPIC), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, **_SETTINGS)
    def test_hyperbolic_lift_and_values(self, params, seed):
        slice_ = build_slice(params, 20)
        rng = np.random.default_rng(seed)
        filtered = rng.normal(size=41) + 1j * rng.normal(size=41)
        filtered[rng.random(41) < 0.3] = 0.0
        got = counterexamples._hyperbolic_lift(params, filtered, 20, slice_)
        assert _same(got.coeffs, oracle.hyperbolic_lift(params, filtered, 20, slice_).coeffs)
        hyp = np.zeros(41, dtype=complex)
        hyp[np.arange(-20, 21) != 0] = slice_.basis.values[:, counterexamples._HYPERBOLIC]
        assert _same(hyp, oracle.hyperbolic_values(slice_, 20))

    def test_transport_blocks(self, monkeypatch):
        params = NAMED["workhorse"]
        spec = counterexamples.BumpSpec(x_left=3.2, x_right=5.8)
        whole = counterexamples.small_time_witness(params, 3.0, [6, 8], spec)
        monkeypatch.setattr(counterexamples, "_TIME_BLOCK", 1)
        assert counterexamples.small_time_witness(params, 3.0, [6, 8], spec).to_dict() == whole.to_dict()
