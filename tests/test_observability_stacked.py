"""The stacked passes of ``observability_quotients`` against single fields.

``observability_quotients`` expands, observes and evolves a block of
terminal data at once; ``observability_quotient`` is its view on one field.
Each report must equal, bit for bit (signed zeros included), the report of
its field alone and the unstacked array path the stacked passes replaced
(``evolution_oracle.quotient_alone``), and agree with the per-mode oracle
within :data:`ORACLE_RTOL`.  A batch fails where a loop of single calls
fails, with the same error, and its memory does not grow with the number of
blocks.
"""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import evolution_oracle as oracle
from cnslab import cli, fields, kernels, observability
from cnslab.errors import CnsLabError, DimMismatch, DomainError, IllConditioned, QuadratureNotConverged, ZeroState
from cnslab.evolution import ObservationChannel
from cnslab.fields import NormSpec, SpectralField, sobolev_norm
from cnslab.observability import (
    observability_quotient,
    observability_quotients,
    observation_energy,
    standard_norm_spec,
)
from cnslab.spectrum import build_slice
from test_evolution_fastpaths import _channels, _named_slice, _random_field
from test_spectrum_fastpaths import BAROTROPIC, NAMED, NONBAROTROPIC

#: Relative gap allowed between a report's energy or norm and the per-mode
#: oracle's, which sums in another order.  The largest gaps seen were 7e-16
#: (energy) and 4.3e-16 (norm) on the named sets of ``test_named_sets``, and
#: 3.1e-15 (energy) on 300 random two- and three-field slices (N <= 7, four
#: fields each, standard and dual-order norms).
ORACLE_RTOL = 1e-12

_BLOCK = observability._TRIAL_BLOCK


def _bits(report) -> tuple:
    """Every field of a report, the floats by their bits (``float.hex`` tells -0.0 from 0.0)."""
    return (
        report.channel, report.metadata,
        *(float(x).hex() for x in (report.horizon, report.energy, report.energy_error, report.initial_norm,
                                   report.quotient)),
    )


def _outcome(call):
    """The call's result, or the type and message of the package error it raised."""
    try:
        return call()
    except CnsLabError as exc:
        return type(exc), str(exc)


def _batch(fields_, channel, T, norm_spec, slice_):
    return _outcome(lambda: observability_quotients(fields_, channel, T, norm_spec, slice_))


def _loop(fields_, channel, T, norm_spec, slice_):
    """The single calls in order; the first error ends the loop."""
    return _outcome(lambda: [observability_quotient(f, channel, T, norm_spec, slice_) for f in fields_])


def _check(fields_, channel, T, norm_spec, slice_):
    got = _batch(fields_, channel, T, norm_spec, slice_)
    ref = _loop(fields_, channel, T, norm_spec, slice_)
    if isinstance(ref, tuple):
        assert got == ref
        return
    assert [_bits(r) for r in got] == [_bits(r) for r in ref]
    spec = norm_spec or standard_norm_spec(channel, slice_.params)
    for field_, report in zip(fields_, got):
        alone = oracle.quotient_alone(field_, channel, T, spec, slice_)
        assert [x.hex() for x in alone] == [
            x.hex() for x in (report.energy, report.energy_error, report.initial_norm, report.quotient)
        ]
        expansion = oracle.expand_in_eigenbasis(field_, slice_)
        energy, _ = observation_energy(oracle.signal(expansion, slice_, channel, T))
        norm0 = sobolev_norm(oracle.adjoint_state(expansion, slice_, T, 0.0), spec)
        assert report.energy == pytest.approx(energy, rel=ORACLE_RTOL)
        assert report.initial_norm == pytest.approx(norm0, rel=ORACLE_RTOL)


def _fields(dim: int, cutoffs, seed: int = 0) -> list[SpectralField]:
    """Random fields with exact zeros of either sign, one per cutoff."""
    return [_random_field(seed + i, dim, cutoff) for i, cutoff in enumerate(cutoffs)]


class TestBitForBit:
    @given(
        params=st.one_of(BAROTROPIC, NONBAROTROPIC),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
        N=st.integers(2, 7),
        blocks=st.integers(1, 2),
        T=st.floats(0.5, 8.0),
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_random_slices(self, params, data, seed, N, blocks, T):
        slice_ = build_slice(params, N)
        channel = data.draw(st.sampled_from(_channels(params)), label="channel")
        s = data.draw(st.none() | st.floats(0.0, 1.5), label="dual order")
        norm_spec = None if s is None else NormSpec.dual_order(params, s)
        count = data.draw(st.integers((blocks - 1) * _BLOCK + 1, blocks * _BLOCK), label="fields")
        cutoffs = data.draw(st.lists(st.integers(1, N), min_size=count, max_size=count), label="cutoffs")
        _check(_fields(params.dim, cutoffs, seed % 2**31), channel, T, norm_spec, slice_)

    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_named_sets(self, name):
        # Jordan pairs (unit_barotropic, mode 2), a Jordan triple
        # (triple_root, mode 1), a shared eigenvalue across modes; more
        # fields than a block, cutoffs below the slice's N
        slice_ = _named_slice(name, 8)
        cutoffs = list(itertools.islice(itertools.cycle([8, 3, 5, 1]), _BLOCK + 3))
        for channel in _channels(slice_.params):
            for norm_spec in (None, NormSpec.dual_order(slice_.params, 1.0), NormSpec.dual_order(slice_.params, 0.5)):
                _check(_fields(slice_.dim, cutoffs, 11), channel, 2.5, norm_spec, slice_)

    @pytest.mark.parametrize("block", [1, 3])
    def test_block_size_does_not_change_the_reports(self, monkeypatch, block):
        slice_ = _named_slice("triple_root", 6)
        cutoffs = [6, 2, 6, 4, 1, 6, 3]
        ref = [_bits(r) for r in observability_quotients(_fields(3, cutoffs), ObservationChannel.TEMPERATURE, 3.0,
                                                         None, slice_)]
        monkeypatch.setattr(observability, "_TRIAL_BLOCK", block)
        got = observability_quotients(iter(_fields(3, cutoffs)), ObservationChannel.TEMPERATURE, 3.0, None, slice_)
        assert [_bits(r) for r in got] == ref

    def test_block_size_does_not_change_the_artifacts(self, tmp_path, monkeypatch):
        triple_root = NAMED["triple_root"]
        params = "".join(f"{k} = {getattr(triple_root, k)!r}\n"
                         for k in ("rho_bar", "u_bar", "theta_bar", "lambda0", "kappa0", "R", "c0"))
        config = tmp_path / "observe.ini"
        config.write_text("[run]\nsystem = nonbarotropic\ncommand = observe\n\n[params]\n" + params
                          + f"\n[observe]\nN = 5\nT = 4.0\nchannel = velocity\ntrials = {_BLOCK + 3}\n")
        assert cli.run(config, tmp_path / "default") == 0
        monkeypatch.setattr(observability, "_TRIAL_BLOCK", 3)
        assert cli.run(config, tmp_path / "three") == 0
        for name in ("observe.json", "manifest.json"):
            assert (tmp_path / "default" / name).read_bytes() == (tmp_path / "three" / name).read_bytes()

    def test_no_fields(self):
        assert observability_quotients([], ObservationChannel.DENSITY, 1.0, None, _named_slice("workhorse", 4)) == []


def _nan_field(N: int) -> SpectralField:
    """A field whose signal's energy is NaN, which does not certify."""
    field_ = _random_field(99, 2, N)
    field_.coeffs[N + 1, 0] = np.nan
    return field_


#: A field at position 2 of a batch on the workhorse slice at N = 6, and the error it raises.
FAULTS = {
    "zero": (lambda: SpectralField.zeros(2, 6), ZeroState),
    "uncertified": (lambda: _nan_field(6), QuadratureNotConverged),
    "dim": (lambda: _random_field(5, 3, 6), DimMismatch),
    "cutoff": (lambda: _random_field(5, 2, 7), DomainError),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestErrorOrder:
    """A batch fails at the first failing field in order, with the error a loop of single calls raises."""

    def _both(self, fields_, slice_=None):
        slice_ = slice_ or _named_slice("workhorse", 6)
        got = _batch(fields_, ObservationChannel.DENSITY, 2.0, None, slice_)
        assert got == _loop(fields_, ObservationChannel.DENSITY, 2.0, None, slice_)
        return got

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_fault_at_position_2(self, fault):
        make, error = FAULTS[fault]
        fields_ = _fields(2, [6] * 5)
        fields_[2] = make()
        assert self._both(fields_)[0] is error

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    @pytest.mark.parametrize("other", sorted(FAULTS))
    def test_the_earlier_of_two_faults_wins(self, fault, other):
        fields_ = _fields(2, [6] * 5)
        fields_[1], fields_[3] = FAULTS[fault][0](), FAULTS[other][0]()
        assert self._both(fields_)[0] is FAULTS[fault][1]

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_fault_in_a_later_block(self, fault):
        # the first block is reported before the second fails
        fields_ = _fields(2, [6] * (_BLOCK + 4))
        fields_[_BLOCK + 1] = FAULTS[fault][0]()
        fields_[_BLOCK + 2] = FAULTS["zero" if fault != "zero" else "dim"][0]()
        assert self._both(fields_)[0] is FAULTS[fault][1]

    def test_ill_conditioned_slice(self, monkeypatch):
        slice_ = _named_slice("workhorse", 6)
        monkeypatch.setattr(fields, "EXPANSION_COND_LIMIT", float(np.median(slice_.conds)))
        fields_ = _fields(2, [6] * (_BLOCK + 2))
        fields_[1] = SpectralField.zeros(2, 6)
        assert self._both(fields_, slice_)[0] is IllConditioned
        # a misfit first field fails before the slice is read
        fields_[0] = FAULTS["dim"][0]()
        assert self._both(fields_, slice_)[0] is DimMismatch

    def test_temperature_on_two_fields(self):
        slice_ = _named_slice("workhorse", 6)
        fields_ = _fields(2, [6] * 3)
        got = _batch(fields_, ObservationChannel.TEMPERATURE, 2.0, None, slice_)
        assert got == _loop(fields_, ObservationChannel.TEMPERATURE, 2.0, None, slice_)
        assert got[0] is DimMismatch

    def test_checks_of_the_states_come_after_the_first_energy(self):
        # a negative horizon fails the time check of the adjoint states and a
        # three-field norm the norm's, but the first energy fails before either
        slice_ = _named_slice("workhorse", 6)
        fields_ = _fields(2, [6] * 3)
        three_field = NormSpec.weighted_l2(NAMED["triple_root"])
        for T, norm_spec, error in ((-1.0, None, QuadratureNotConverged), (-1.0, three_field, QuadratureNotConverged),
                                    (2.0, three_field, DimMismatch)):
            got = _batch(fields_, ObservationChannel.DENSITY, T, norm_spec, slice_)
            assert got == _loop(fields_, ObservationChannel.DENSITY, T, norm_spec, slice_)
            assert got[0] is error

    @pytest.mark.parametrize("fault,code", [("zero", 2), ("uncertified", 3), ("dim", 2), ("cutoff", 2), ("ill", 2)])
    def test_exit_codes(self, tmp_path, monkeypatch, fault, code):
        # the codes of the error classes, as before the stacked pass: the
        # numerical-tolerance failure exits 3, the others 2
        config = tmp_path / "observe.ini"
        config.write_text("[run]\nsystem = barotropic\ncommand = observe\n\n[params]\nrho_bar = 1.0\nu_bar = 0.9\n"
                          "mu0 = 1.0\nb = 1.3\n\n[observe]\nN = 6\nT = 2.0\ntrials = 4\n")
        if fault == "ill":
            monkeypatch.setattr(fields, "EXPANSION_COND_LIMIT", 1.0)
        else:
            draws = itertools.count()
            random_field = cli._random_field

            def faulty(dim, N, rng, real=True):
                field_ = random_field(dim, N, rng, real)
                return FAULTS[fault][0]() if next(draws) == 2 else field_

            monkeypatch.setattr(cli, "_random_field", faulty)
        assert cli.main(["run", str(config), "--out", str(tmp_path / "out")]) == code


def test_memory_does_not_grow_with_the_blocks(monkeypatch):
    # the reports of four blocks are held to the end; the stacked arrays of
    # one block are not (unblocked, the four-block peak is 3.6 times the one-block peak)
    monkeypatch.setattr(kernels, "_pair_table", None)
    slice_ = build_slice(NAMED["workhorse"], 48)
    _ = slice_.conds  # computed on first read, outside the measured calls

    def peak(count: int) -> int:
        # full fields: every signal's terms are those of the held pair table
        fields_ = [cli._random_field(2, 48, np.random.default_rng(i), real=False) for i in range(count)]
        observability_quotients(fields_[:1], ObservationChannel.DENSITY, 8.0, None, slice_)  # the held pair table
        tracemalloc.start()
        try:
            observability_quotients(fields_, ObservationChannel.DENSITY, 8.0, None, slice_)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4 * _BLOCK) <= 1.2 * peak(_BLOCK)
