"""The batched spectrum slice and the broadcast Ingham audit against the per-mode oracle.

Production solves all modes of a window in one stacked pass, finds
coincidences by a sort on real parts and takes the Ingham pair minima by
broadcasting.  ``spectrum_oracle`` keeps the per-mode solves, the
all-pairs coincidence scan and the pair loops.  The batched arithmetic is
meant to reproduce the per-mode arithmetic exactly, so every comparison
below is bit for bit (signed zeros included) unless it says otherwise.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import spectrum_oracle as oracle
from cnslab import spectrum
from cnslab.cli import _json_default, main
from cnslab.errors import DegenerateWarning, DomainError
from cnslab.model import BarotropicParams, NonBarotropicParams
from cnslab.observability import ingham_audit
from cnslab.spectrum import MatrixKind, build_slice, export_spectrum_csv, riesz_closeness

WORKHORSE = BarotropicParams(rho_bar=1.0, u_bar=0.9, mu0=1.0, b=1.3)
# the coefficient sets of tests/conftest.py
NAMED = {
    "unit_barotropic": BarotropicParams(rho_bar=1.0, u_bar=1.0, mu0=1.0, b=1.0),
    "workhorse": WORKHORSE,
    "uc_failing": BarotropicParams(rho_bar=1.0, u_bar=1.0, mu0=1.0, b=1.25),
    "triple_root": NonBarotropicParams(rho_bar=1.0, u_bar=1.0, theta_bar=0.5, lambda0=1.0, kappa0=2.0, R=1.0, c0=1.0),
    "shared_eigenvalue": NonBarotropicParams(
        rho_bar=1.0, u_bar=1.0, theta_bar=1.0, lambda0=1.0, kappa0=2.0, R=1.0, c0=1.0
    ),
    "equal_diffusions": NonBarotropicParams(
        rho_bar=1.0, u_bar=1.0, theta_bar=1.0, lambda0=1.5, kappa0=1.5, R=1.0, c0=1.0
    ),
}

_COEF = st.floats(0.5, 2.0)
BAROTROPIC = st.builds(BarotropicParams, rho_bar=_COEF, u_bar=st.floats(0.3, 1.5), mu0=_COEF, b=_COEF)
NONBAROTROPIC = st.builds(
    NonBarotropicParams,
    rho_bar=_COEF,
    u_bar=st.floats(0.3, 1.5),
    theta_bar=_COEF,
    lambda0=_COEF,
    kappa0=_COEF,
    R=_COEF,
    c0=_COEF,
)


def _same(a, b) -> bool:
    """Equal bit for bit, including the sign of zero."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_pairs_equal(got, ref):
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert (g.n, g.branch, g.unclassified_by_paper) == (r.n, r.branch, r.unclassified_by_paper)
        assert type(g.value) is type(r.value) and type(g.nu_scaled) is type(r.nu_scaled)
        assert _same(g.value, r.value) and _same(g.nu_scaled, r.nu_scaled)
        assert _same(g.vector, r.vector)
        assert _same(g.residual, r.residual)


def _assert_slices_equal(got, ref):
    assert list(got.modes) == list(ref.modes)
    for n, mode in ref.modes.items():
        gmode = got.modes[n]
        _assert_pairs_equal(gmode.pairs, mode.pairs)
        assert len(gmode.clusters) == len(mode.clusters)
        for gc, rc in zip(gmode.clusters, mode.clusters):
            assert gc.branches == rc.branches
            assert _same(gc.value, rc.value)
            assert len(gc.vectors) == len(rc.vectors)
            assert all(_same(a, b) for a, b in zip(gc.vectors, rc.vectors))
            assert (gc.chain is None) == (rc.chain is None)
            if rc.chain is not None:
                assert gc.chain.algebraic_multiplicity == rc.chain.algebraic_multiplicity
                assert all(_same(a, b) for a, b in zip(gc.chain.chain_vectors, rc.chain.chain_vectors))
    assert got.coincidences == ref.coincidences


def _audit_json(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, default=_json_default)


def _assert_audits_equal(params, N):
    slice_ = build_slice(params, N)
    assert _audit_json(ingham_audit(slice_, params, 8.0)) == _audit_json(oracle.ingham_audit(slice_, params, 8.0))


@functools.lru_cache(maxsize=None)
def _oracle_slice(name: str, N: int):
    return oracle.build_slice(NAMED[name], N)


class TestSymbols:
    @given(params=st.one_of(BAROTROPIC, NONBAROTROPIC), n=st.integers(-5000, 5000))
    @settings(max_examples=100, deadline=None)
    def test_stacked_symbols_match_scalar_symbol(self, params, n):
        for kind in MatrixKind:
            assert _same(spectrum._symbols(params, [n], kind)[0], oracle._symbol(params, n, kind))

    @given(params=st.one_of(BAROTROPIC, NONBAROTROPIC), n=st.integers(-300, 300), value=st.complex_numbers(max_magnitude=1e5))
    @settings(max_examples=100, deadline=None)
    def test_classify_branch(self, params, n, value):
        assert spectrum.classify_branch(params, n, value) is oracle.classify_branch(params, n, value)


class TestBatchedSolve:
    @given(params=BAROTROPIC, N=st.integers(1, 40))
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_barotropic_slice(self, params, N):
        _assert_slices_equal(build_slice(params, N), oracle.build_slice(params, N))

    @given(params=NONBAROTROPIC, N=st.integers(1, 40))
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_nonbarotropic_slice(self, params, N):
        _assert_slices_equal(build_slice(params, N), oracle.build_slice(params, N))

    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_named_sets(self, name):
        _assert_slices_equal(build_slice(NAMED[name], 24), _oracle_slice(name, 24))

    def test_named_sets_have_the_degenerate_cases(self):
        # the sets above do exercise the defect logic: a Jordan pair, a
        # Jordan triple, a cross-mode coincidence and merged anchors
        unit = build_slice(NAMED["unit_barotropic"], 24)
        assert unit.mode(2).clusters[0].chain is not None
        triple = build_slice(NAMED["triple_root"], 24)
        assert triple.mode(1).clusters[0].chain.algebraic_multiplicity == 3
        assert any(c.cross_mode for c in build_slice(NAMED["shared_eigenvalue"], 24).coincidences)
        assert all(p.unclassified_by_paper for p in build_slice(NAMED["equal_diffusions"], 2).mode(1).pairs[1:])

    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_one_mode_views(self, name):
        params = NAMED[name]
        view = spectrum.eigen_barotropic if params.dim == 2 else spectrum.eigen_nonbarotropic
        reference = oracle.eigen_barotropic if params.dim == 2 else oracle.eigen_nonbarotropic
        for n in (-7, -2, -1, 1, 2, 3, 50):
            with warnings.catch_warnings(record=True) as got_warnings:
                warnings.simplefilter("always")
                got = view(params, n)
            with warnings.catch_warnings(record=True) as ref_warnings:
                warnings.simplefilter("always")
                ref = reference(params, n)
            _assert_pairs_equal(got, ref)
            assert [str(w.message) for w in got_warnings] == [str(w.message) for w in ref_warnings]

    @pytest.mark.parametrize("residual_tol", [0.0, 2e-16])
    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_fallback_vectors(self, monkeypatch, name, residual_tol):
        # no set above ever fails a closed form; with the tolerance at
        # round-off the pairs take the dense-eigenvector and kernel-vector
        # fallbacks, some of them both
        for module in (spectrum, oracle):
            monkeypatch.setattr(module, "EIGEN_RESIDUAL_TOL", residual_tol)
        _assert_slices_equal(build_slice(NAMED[name], 12), oracle.build_slice(NAMED[name], 12))

    def test_spectrum_csv_bytes(self, tmp_path):
        for name in sorted(NAMED):
            export_spectrum_csv(build_slice(NAMED[name], 24), tmp_path / "new.csv")
            export_spectrum_csv(_oracle_slice(name, 24), tmp_path / "old.csv")
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_mode_zero_rejected(self):
        with pytest.raises(DomainError):
            spectrum.eigen_nonbarotropic(NAMED["shared_eigenvalue"], 0)


class TestCoincidences:
    @given(
        params=st.sampled_from(sorted(NAMED)).map(NAMED.get),
        N=st.integers(1, 30),
        tol=st.sampled_from([1e-14, 1e-8, 1e-3, 0.05, 0.5]),
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_table_matches_all_pairs_scan(self, params, N, tol):
        # large tolerances put many slots in each other's reach, so the
        # neighbour scan and the order of its output are really exercised
        got = build_slice(params, N, clustering_tolerance=tol)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateWarning)
            ref = oracle.build_slice(params, N, clustering_tolerance=tol)
        assert got.coincidences == ref.coincidences

    @given(
        values=st.lists(
            st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.sampled_from([0.0, 1e-9, -3e-9, 0.4])),
            min_size=4,
            max_size=40,
        ),
        dim=st.sampled_from([2, 3]),
        scale=st.sampled_from([1e-3, 1.0, 1e4]),
        tol=st.sampled_from([1e-12, 1e-8, 0.05, 0.3]),
    )
    @settings(max_examples=200, deadline=None)
    def test_scan_on_crowded_values(self, values, dim, scale, tol):
        # values on a coarse lattice, many of them equal or within a rounding
        # unit: every slot has many candidates and ties in the real part
        K = len(values) // dim
        v = np.array([complex(a + e, b) * scale for a, b, e in values[: K * dim]]).reshape(K, dim)
        ns = np.repeat(np.arange(1, K // 2 + 2), 2)[:K] * np.tile([-1, 1], K)[:K]
        batch = spectrum._ModeBatch(ns, None, v, None, None, None, None)
        branches = spectrum._BRANCHES[dim]
        order = np.argsort(ns, kind="stable")
        slots = [(int(ns[k]), branches[b], complex(v[k, b])) for k in order for b in range(dim)]
        assert spectrum._coincidences(batch, branches, tol) == oracle.coincidence_table(slots, tol)

    def test_asymmetric_scale_is_kept(self):
        # |v_i - v_j| <= tol*max(1, |v_i|) with i the earlier slot: 100 and 99
        # are within 0.01*100 but not within 0.01*99
        branches = spectrum._BRANCHES[2]
        for first, second, expected in ((100.0, 99.0, 1), (99.0, 100.0, 0)):
            v = np.array([[first, -5.0], [second, 7.0]], dtype=complex)
            batch = spectrum._ModeBatch(np.array([-1, 1]), None, v, None, None, None, None)
            assert len(spectrum._coincidences(batch, branches, 0.01)) == expected


class TestInghamAudit:
    @given(params=st.one_of(BAROTROPIC, NONBAROTROPIC), N=st.integers(2, 30))
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_random_parameters(self, params, N):
        threshold = max(1, int(np.floor(params.n0)) + 1) if params.dim == 2 else 1
        N = max(N, threshold)
        _assert_audits_equal(params, N)

    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_named_sets(self, name):
        params = NAMED[name]
        for N in (4, 24, 96):
            _assert_audits_equal(params, N)

    def test_pair_blocks_cover_every_pair(self, monkeypatch):
        # blocks of a few rows: witnesses must still be the first minimum
        from cnslab import observability

        monkeypatch.setattr(observability, "_PAIR_BLOCK", 7)
        for name in ("shared_eigenvalue", "workhorse"):
            _assert_audits_equal(NAMED[name], 40)


class TestRieszCloseness:
    @pytest.mark.parametrize("name", ["workhorse", "shared_eigenvalue"])
    def test_closeness_csv_matches_per_mode_sums(self, tmp_path, name):
        params = NAMED[name]
        section = "\n".join(f"{f.name} = {getattr(params, f.name)!r}" for f in dataclasses.fields(params) if f.init)
        system = "barotropic" if params.dim == 2 else "nonbarotropic"
        cfg = tmp_path / "closeness.ini"
        cfg.write_text(f"[run]\nsystem = {system}\ncommand = closeness\n\n[params]\n{section}\n\n[closeness]\nN_start = 5\nN_end = 60\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        sums = oracle.riesz_closeness(params, 5, 60)
        expected = "N,partial_sum\n" + "".join(f"{5 + k},{format(float(s), '.17g')}\n" for k, s in enumerate(sums))
        assert (tmp_path / "out" / "closeness.csv").read_text() == expected

    @given(params=st.one_of(BAROTROPIC, NONBAROTROPIC), start=st.integers(0, 20), length=st.integers(0, 30))
    @settings(max_examples=40, deadline=None)
    def test_random_windows(self, params, start, length):
        threshold = max(1, int(np.floor(params.n0)) + 1) if params.dim == 2 else 1
        start = max(start, threshold)
        assert _same(riesz_closeness(params, start, start + length), oracle.riesz_closeness(params, start, start + length))
