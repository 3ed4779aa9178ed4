"""The batched spectrum slice and the windowed Ingham audit against the per-mode oracle.

Production solves all modes of a window in one stacked pass, finds
coincidences by a sorted window search and takes the Ingham pair minima on
sorted windows (the cross gaps in broadcast row blocks).  ``spectrum_oracle``
keeps the per-mode solves, the all-pairs coincidence scan, the pair loops
and the whole pair tables.  Both run plain floating
point arithmetic in different orders and kernels (numpy's vectorized complex
multiply and modulus, Python's complex division), so the numbers agree
within the bounds below, not bit for bit.  Every discrete output is
compared exactly: branch labels and ``unclassified_by_paper``, cluster
membership, chains and Jordan levels, coincidence pairs and the Ingham
``passed`` flags.  Where the rule behind a label or a witness is tied in
exact arithmetic, rounding decides it on either side; the tests then
assert the tie instead (:func:`_label_match`, :func:`_assert_audits_agree`).
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import spectrum_oracle as oracle
from cnslab import observability, spectrum
from cnslab.cli import main
from cnslab.errors import DegenerateWarning, DomainError
from cnslab.model import BarotropicParams, NonBarotropicParams
from cnslab.observability import ingham_audit
from cnslab.spectrum import BranchLabel, build_slice, export_spectrum_csv, riesz_closeness
from conftest import random_nonbarotropic

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

#: A three-field set without coincidences (the shared-eigenvalue set with u_bar = 0.9).
COINCIDENCE_FREE = NonBarotropicParams(rho_bar=1.0, u_bar=0.9, theta_bar=1.0, lambda0=1.0, kappa0=2.0, R=1.0, c0=1.0)

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


#: Bound on the drift between batched and per-mode arithmetic, relative to
#: the largest magnitude compared; eigen-residuals drift by at most this
#: much in absolute terms.  On the named sets at N = 16 and 96 the drift is
#: at most 4.9e-16 (condition numbers), 1.1e-16 for vectors and the basis,
#: and 1e-16 for the residuals; the three-field sets, whose vectors both
#: sides take from the same dense eigensolve, agree bit for bit except for
#: the residuals (at most 2e-30 apart).
RTOL = 1e-14
#: The bound for random coefficient sets: on 200 random sets with N <= 40
#: the values drifted by up to 1.1e-14 relative, the vectors and the basis
#: by 3.5e-16 and the residuals by 2.2e-14.  The bound is the residual at
#: which the solver itself stops accepting an eigenpair.
RANDOM_RTOL = spectrum.EIGEN_RESIDUAL_TOL
#: Largest eigen-residual of the three-field slices, whose vectors are the
#: backward-stable dense eigenvectors: at most 7.3e-15 on the named sets at
#: N = 96, and 6.6e-14 on the random sample of :func:`_random_three_field`.
NAMED_RESIDUAL = 1e-14
RANDOM_RESIDUAL = 1e-13
#: Relative distance of the three-field closed-form eigenvectors from the
#: production vectors: at most 1.2e-11 on the named sets at N = 96 and
#: 2.4e-11 on the random sample, where the closed forms lose digits to
#: cancellation.
CLOSED_FORM_RTOL = 1e-10
#: Largest share of all (row, column) pairs that the H1, P1, P3 and disjoint
#: windows may hold at N = 1024 on the three-field sets, set before the
#: first run (a window counts a triangle's pairs in both orders).
WINDOW_SHARE = 0.05


def _close(got, ref, rtol: float = RTOL, scale: float | None = None) -> bool:
    """Same shape, non-finite entries in the same places, and every finite
    entry within ``rtol * scale`` of ``ref``; ``scale`` defaults to the
    largest finite ``|ref|``.  Zeros of either sign are equal."""
    got, ref = np.asarray(got), np.asarray(ref)
    finite = np.isfinite(ref)
    if got.shape != ref.shape or not np.array_equal(np.isfinite(got), finite):
        return False
    if scale is None:
        scale = float(np.max(np.abs(ref[finite]), initial=0.0))
    return bool(np.all(np.abs(got[finite] - ref[finite]) <= rtol * scale))


def _label_match(params, n: int, got_values, ref_pairs, rtol: float) -> list[int]:
    """The oracle pair of each production value of mode ``n``, in branch order.

    Labels are the same, so the match is the identity, except at a tie of
    the labelling rule, where rounding picks the labels: the two parabolic
    values of a mode can be mirror images across their anchors' line, which
    gives two assignments the same anchor distance, and with equal
    diffusions two eigenvectors can have the same velocity/temperature
    ratio.  There the values may trade labels, and this asserts the tie.
    """
    got_values = np.array(got_values)
    ref_values = np.array([p.value for p in ref_pairs])
    if _close(got_values, ref_values, rtol):
        return list(range(len(ref_pairs)))
    match = [int(np.argmin(np.abs(ref_values - v))) for v in got_values]
    assert sorted(match) == list(range(len(ref_pairs))) and _close(got_values, ref_values[match], rtol)
    swapped = [ref_pairs[j] for i, j in enumerate(match) if i != j]
    if spectrum._degenerate_diffusions(params):
        assert all(p.unclassified_by_paper for p in swapped)
        ratios = [abs(p.vector[1]) / abs(p.vector[2]) for p in swapped]
        assert max(ratios) - min(ratios) <= rtol * max(ratios) or min(abs(r - 1.0) for r in ratios) <= rtol
    else:
        # total anchor distance of the oracle's values under either labelling
        anchors = dict(oracle._anchors(params, n))
        cost = lambda labels: sum(abs(p.value - anchors[b]) for p, b in zip(ref_pairs, labels))
        ref_cost = cost([p.branch for p in ref_pairs])
        assert abs(cost([ref_pairs[i].branch for i in np.argsort(match)]) - ref_cost) <= rtol * max(1.0, ref_cost)
    return match


def _assert_coincidences_agree(got, ref, scale: float, rtol: float = RTOL, relabel: dict | None = None):
    """The same ``(first, second)`` pairs in the same order, distances within
    ``rtol * scale``, ``scale`` the values' magnitude.  ``relabel`` maps the
    production slots that traded labels at a tie to the oracle's; the order
    is then compared as a set."""
    relabel = relabel or {}
    got_pairs = [(relabel.get(c.first, c.first), relabel.get(c.second, c.second), c.cross_mode, c.distance) for c in got]
    ref_pairs = [(c.first, c.second, c.cross_mode, c.distance) for c in ref]
    if relabel:
        got_pairs, ref_pairs = sorted(got_pairs, key=str), sorted(ref_pairs, key=str)
    assert [p[:3] for p in got_pairs] == [p[:3] for p in ref_pairs]
    assert _close([p[3] for p in got_pairs], [p[3] for p in ref_pairs], rtol, scale=scale)


def _assert_pairs_agree(params, got, ref, rtol: float = RTOL) -> list[int]:
    """The pairs of one mode; returns the label match of :func:`_label_match`.

    A pair that took a tied label is normalized for that label, so its
    vector is not compared.
    """
    match = _label_match(params, ref[0].n, [p.value for p in got], ref, rtol)
    for g, j in zip(got, match):
        r = ref[j]
        assert (g.n, g.unclassified_by_paper) == (r.n, r.unclassified_by_paper)
        assert abs(g.residual - r.residual) <= rtol
        assert g.branch is not r.branch or _close(g.vector, r.vector, rtol)
    assert _close([g.nu_scaled for g in got], [ref[j].nu_scaled for j in match], rtol)
    return match


def _assert_slices_agree(got, ref, rtol: float = RTOL):
    """Pairs, clusters and coincidences of two slices of the same window.

    Labels, flags, cluster membership, the cluster size of each pair
    (``basis.mult``), chains and coincidence pairs are the same, up to the
    labelling ties of :func:`_label_match`; the numbers agree within ``rtol``.
    """
    assert list(got.modes) == list(ref.modes)
    relabel = {}
    for n, mode in ref.modes.items():
        gmode = got.modes[n]
        match = _assert_pairs_agree(ref.params, gmode.pairs, mode.pairs, rtol)
        tied = {(n, g.branch): (n, mode.pairs[j].branch) for g, j in zip(gmode.pairs, match) if g.branch is not mode.pairs[j].branch}
        relabel.update(tied)
        sizes = {b: len(c.branches) for c in mode.clusters for b in c.branches}
        assert got.basis.mult[got.basis.rows([n])[0]].tolist() == [sizes[mode.pairs[j].branch] for j in match]
        assert len(gmode.clusters) == len(mode.clusters)
        for gc, rc in zip(gmode.clusters, mode.clusters):
            assert len(gc.vectors) == len(rc.vectors) and (gc.chain is None) == (rc.chain is None)
            if tied:
                continue
            assert gc.branches == rc.branches
            assert _close(gc.value, rc.value, rtol, scale=max(1.0, abs(rc.value)))
            assert all(_close(a, b, rtol) for a, b in zip(gc.vectors, rc.vectors))
            if rc.chain is not None:
                assert gc.chain.algebraic_multiplicity == rc.chain.algebraic_multiplicity
                assert all(_close(a, b, rtol) for a, b in zip(gc.chain.chain_vectors, rc.chain.chain_vectors))
    scale = max([1.0] + [abs(p.value) for p in ref.pairs()])
    _assert_coincidences_agree(got.coincidences, ref.coincidences, scale, rtol, relabel)


_PAIR_WITNESSES = {"H1", "P1", "P3", "relaxed"}


def _witness_value(slice_, name: str, witness):
    """The quantity a verdict's witness attains, from the slice's values in scalar arithmetic."""
    hyp = oracle.branch_values(slice_, BranchLabel.HYPERBOLIC)
    par = oracle._merged_parabolic(slice_)
    if name == "P2":
        v = par[witness]
        return -v.real / abs(v.imag) if v.imag != 0.0 else np.inf
    a, b = witness
    if name == "P4":
        return (abs(par[a]) / abs(a) ** 2) / (abs(par[b]) / abs(b) ** 2)
    if name == "H1":
        return abs(hyp[a] - hyp[b])
    if name == "disjoint":
        return abs(hyp[a] - par[b])
    gap = abs(par[a] - par[b])
    if name == "P3":
        return gap / abs(a**2 - b**2)
    return gap / abs(a - b) if name == "relaxed" else gap


def _assert_audits_agree(params, N):
    """Flags and window exact, values within ``RTOL``; a witness may be any
    pair that attains the oracle's extremum within ``RTOL`` (ties between
    conjugate modes are broken by rounding).  Against the same audit on
    whole pair tables (:func:`spectrum_oracle.first_minima` and the oracle's
    pair minima), whose arithmetic per entry is the same, the report is
    equal bit for bit."""
    slice_ = build_slice(params, N)
    got = ingham_audit(slice_).to_dict()
    with pytest.MonkeyPatch.context() as mp:
        _whole_tables(mp)
        assert repr(ingham_audit(slice_).to_dict()) == repr(got)
    ref = oracle.ingham_audit(slice_, params, 8.0).to_dict()
    assert got.keys() == ref.keys() and got["window"] == ref["window"]
    if "cross_gaps" in ref:
        assert got["cross_gaps"].keys() == ref["cross_gaps"].keys()
        assert all(_close(got["cross_gaps"][k], v) for k, v in ref["cross_gaps"].items())
    for name in ref.keys() - {"window", "cross_gaps"}:
        g, r = got[name], ref[name]
        assert g.keys() == r.keys() and g["passed"] == r["passed"], name
        assert all(_close(g[k], r[k]) for k in r.keys() - {"passed", "witness"}), name
        if r["witness"] is None:
            assert g["witness"] is None
            continue
        assert _close(_witness_value(slice_, name, g["witness"]), r["value"]), name
        if name in _PAIR_WITNESSES:
            assert g["witness"][0] < g["witness"][1]


def _whole_tables(mp: pytest.MonkeyPatch) -> None:
    """Point the audit's pair minima at the oracle's whole tables."""
    mp.setattr(observability, "_first_minima", oracle.first_minima)
    mp.setattr(observability, "_min_pairwise_gap", oracle.min_pairwise_gap)
    mp.setattr(observability, "_parabolic_minima", oracle.parabolic_minima)
    mp.setattr(observability, "_min_cross_gap", oracle.min_cross_gap)


def _values_table(ns, values) -> spectrum.BasisTable:
    """A table of modes and values only, all that the coincidence scan reads."""
    return spectrum.BasisTable(ns, values, *[None] * (len(spectrum.BasisTable._fields) - 2))


@functools.lru_cache(maxsize=None)
def _oracle_slice(name: str, N: int):
    return oracle.build_slice(NAMED[name], N)


@functools.lru_cache(maxsize=None)
def _random_three_field():
    """The slices at N = 40 of a fixed sample of 200 random three-field sets."""
    rng = np.random.default_rng(7)
    return [build_slice(random_nonbarotropic(rng), 40) for _ in range(200)]


def _closed_form_distance(slice_) -> float:
    """Largest relative distance of the closed-form eigenvectors, at the
    slice's values, from the slice's eigenvectors."""
    table = slice_.basis
    worst = 0.0
    for r, n in enumerate(table.ns.tolist()):
        for b, branch in enumerate(spectrum._BRANCHES[3]):
            closed = oracle._vector_nonbarotropic(slice_.params, n, branch, table.nu_scaled[r, b])
            vector = table.vectors[r, b]
            worst = max(worst, float(np.linalg.norm(closed - vector) / np.linalg.norm(vector)))
    return worst


class TestSymbols:
    @given(params=st.one_of(BAROTROPIC, NONBAROTROPIC), n=st.integers(-5000, 5000))
    @settings(max_examples=100, deadline=None)
    def test_stacked_symbols_match_scalar_symbol(self, params, n):
        assert _close(spectrum._symbols(params, [n])[0], oracle._symbol(params, n))

    @given(params=st.one_of(BAROTROPIC, NONBAROTROPIC), n=st.integers(-300, 300), value=st.complex_numbers(max_magnitude=1e5))
    @settings(max_examples=100, deadline=None)
    def test_classify_branch(self, params, n, value):
        assert spectrum.classify_branch(params, n, value) is oracle.classify_branch(params, n, value)


class TestBatchedSolve:
    @given(params=BAROTROPIC, N=st.integers(1, 40))
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_barotropic_slice(self, params, N):
        _assert_slices_agree(build_slice(params, N), oracle.build_slice(params, N), RANDOM_RTOL)

    @given(params=NONBAROTROPIC, N=st.integers(1, 40))
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_nonbarotropic_slice(self, params, N):
        _assert_slices_agree(build_slice(params, N), oracle.build_slice(params, N), RANDOM_RTOL)

    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_named_sets(self, name):
        _assert_slices_agree(build_slice(NAMED[name], 24), _oracle_slice(name, 24))

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
            assert _assert_pairs_agree(params, got, ref) == list(range(params.dim))
            assert [str(w.message) for w in got_warnings] == [str(w.message) for w in ref_warnings]

    @pytest.mark.parametrize("residual_tol", [0.0, 2e-16])
    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_fallback_vectors(self, monkeypatch, name, residual_tol):
        # at the default tolerance only the Jordan triple (triple_root, modes
        # +-1) takes the kernel-vector fallback; with the tolerance at
        # round-off many pairs of every set take it, and at 0 all of them
        for module in (spectrum, oracle):
            monkeypatch.setattr(module, "EIGEN_RESIDUAL_TOL", residual_tol)
        _assert_slices_agree(build_slice(NAMED[name], 12), oracle.build_slice(NAMED[name], 12))

    @pytest.mark.parametrize("N", [4, 24, 96])
    def test_spectrum_csv_bytes(self, tmp_path, N):
        # one buffered write, byte for byte the csv.writer rows of the views of
        # the same slice; against the per-mode slice n, branch and alg_mult are
        # exact, re, im within RTOL of the slice's largest value, residual within RTOL
        for name in sorted(NAMED):
            slice_ = build_slice(NAMED[name], N)
            export_spectrum_csv(slice_, tmp_path / "new.csv")
            oracle.export_spectrum_csv(slice_, tmp_path / "views.csv")
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "views.csv").read_bytes()
            if N != 24:
                continue
            oracle.export_spectrum_csv(_oracle_slice(name, 24), tmp_path / "old.csv")
            new, old = (list(csv.reader((tmp_path / f).read_text().splitlines())) for f in ("new.csv", "old.csv"))
            assert [r[:2] + r[4:5] for r in new] == [r[:2] + r[4:5] for r in old]
            got, ref = (np.array([[float(x) for x in r[2:4]] for r in rows[1:]]) for rows in (new, old))
            assert _close(got, ref)
            assert _close([float(r[5]) for r in new[1:]], [float(r[5]) for r in old[1:]], scale=1.0)

    def test_alg_mult_follows_the_pairs(self, tmp_path):
        # at this tolerance mode 1 clusters h with pk and leaves pl alone, so
        # the cluster of a pair is not that of the basis column of its index
        params = NonBarotropicParams(
            rho_bar=0.9547922439374674, u_bar=1.1802468342209773, theta_bar=0.7010625458707471,
            lambda0=1.1046694796706937, kappa0=0.8051828610142244, R=0.8934700106627742, c0=1.625547008945079,
        )
        slice_ = build_slice(params, 6, clustering_tolerance=0.5)
        h, pl, pk = spectrum._BRANCHES[3]
        assert [c.branches for c in slice_.mode(1).clusters] == [(h, pk), (pl,)]
        export_spectrum_csv(slice_, tmp_path / "new.csv")
        oracle.export_spectrum_csv(slice_, tmp_path / "views.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "views.csv").read_bytes()
        rows = {(r[0], r[1]): r[4] for r in csv.reader((tmp_path / "new.csv").read_text().splitlines())}
        assert [rows[("1", b)] for b in ("h", "pl", "pk")] == ["2", "1", "2"]

    def test_mode_zero_rejected(self):
        with pytest.raises(DomainError):
            spectrum.eigen_nonbarotropic(NAMED["shared_eigenvalue"], 0)


class TestOneTable:
    """``build_slice`` fills one table; the export reads it and nothing else."""

    def test_mult_holds_the_jordan_blocks(self):
        # the oracle comparison of _assert_slices_agree checks mult on every
        # slice; here the values themselves, on the Jordan pair and triple
        unit = build_slice(NAMED["unit_barotropic"], 24).basis
        triple = build_slice(NAMED["triple_root"], 24).basis
        assert unit.mult[unit.rows([-2, 2])].tolist() == [[2, 2], [2, 2]]
        assert triple.mult[triple.rows([-1, 1])].tolist() == [[3, 3, 3], [3, 3, 3]]
        assert (np.delete(unit.mult, unit.rows([-2, 2]), axis=0) == 1).all()

    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_table_is_read_only(self, name):
        table = build_slice(NAMED[name], 4).basis
        for array in table:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = array

    def test_export_does_not_recluster(self, tmp_path, monkeypatch):
        slice_ = build_slice(NAMED["unit_barotropic"], 24)
        calls = []
        clustered = spectrum._clustered_modes
        monkeypatch.setattr(spectrum, "_clustered_modes", lambda *args: calls.append(args) or clustered(*args))
        export_spectrum_csv(slice_, tmp_path / "spectrum.csv")
        assert calls == []
        rows = {(r[0], r[1]): r[4] for r in csv.reader((tmp_path / "spectrum.csv").read_text().splitlines())}
        assert [rows[(n, b)] for n in ("-2", "2") for b in ("h", "p")] == ["2"] * 4
        slice_.mode(2)  # the views do cluster, so the spy is live
        assert len(calls) == 1


class TestThreeFieldVectors:
    """The three-field eigenvectors are the dense eigenvectors rescaled to the
    pinned-component convention; the closed forms stay here as an identity."""

    @pytest.mark.parametrize("name", sorted(n for n, p in NAMED.items() if p.dim == 3))
    def test_named_sets_residual(self, name):
        assert build_slice(NAMED[name], 96).basis.residuals.max() <= NAMED_RESIDUAL

    def test_random_sets_residual(self):
        assert max(s.basis.residuals.max() for s in _random_three_field()) <= RANDOM_RESIDUAL

    @pytest.mark.parametrize("name", sorted(n for n, p in NAMED.items() if p.dim == 3))
    def test_named_sets_match_the_closed_forms(self, name):
        assert _closed_form_distance(build_slice(NAMED[name], 96)) <= CLOSED_FORM_RTOL

    def test_random_sets_match_the_closed_forms(self):
        assert max(_closed_form_distance(s) for s in _random_three_field()) <= CLOSED_FORM_RTOL


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
        scale = max([1.0] + [abs(p.value) for p in ref.pairs()])
        _assert_coincidences_agree(got.coincidences, ref.coincidences, scale)

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
        branches = spectrum._BRANCHES[dim]
        order = np.argsort(ns, kind="stable")
        slots = [(int(ns[k]), branches[b], complex(v[k, b])) for k in order for b in range(dim)]
        scale = max(1.0, float(np.abs(v).max()))
        _assert_coincidences_agree(spectrum._coincidences(_values_table(ns, v), branches, tol), oracle.coincidence_table(slots, tol), scale)

    def test_asymmetric_scale_is_kept(self):
        # |v_i - v_j| <= tol*max(1, |v_i|) with i the earlier slot: 100 and 99
        # are within 0.01*100 but not within 0.01*99
        branches = spectrum._BRANCHES[2]
        for first, second, expected in ((100.0, 99.0, 1), (99.0, 100.0, 0)):
            v = np.array([[first, -5.0], [second, 7.0]], dtype=complex)
            assert len(spectrum._coincidences(_values_table(np.array([-1, 1]), v), branches, 0.01)) == expected


class TestInghamAudit:
    @given(params=st.one_of(BAROTROPIC, NONBAROTROPIC), N=st.integers(2, 30))
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_random_parameters(self, params, N):
        threshold = max(1, int(np.floor(params.n0)) + 1) if params.dim == 2 else 1
        N = max(N, threshold)
        _assert_audits_agree(params, N)

    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_named_sets(self, name):
        params = NAMED[name]
        for N in (4, 24, 96):
            _assert_audits_agree(params, N)

    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_family_reductions_match_scalar_loops_bit_for_bit(self, name):
        # the oracle comparison above is within RTOL, so it would not see a
        # change in rounding; ingham.json must not see one either
        for N in (4, 24, 96):
            slice_ = build_slice(NAMED[name], N)
            got = ingham_audit(slice_).to_dict()
            ref = _scalar_family_reductions(slice_)
            assert (got["P2"]["value"].hex(), got["P2"]["witness"]) == (ref["P2"][0].hex(), ref["P2"][1])
            assert (got["P4"]["B0"].hex(), got["P4"]["witness"], got["P4"]["value"].hex()) == (
                ref["P4"][0].hex(), ref["P4"][1], ref["P4"][2].hex()
            )
            assert got["relaxed"]["c_hat"].hex() == ref["c_hat"].hex()
            assert got["relaxed"]["inv_abs_partial_sum"].hex() == ref["inv_abs_partial_sum"].hex()

    def test_pair_blocks_cover_every_pair(self, monkeypatch):
        # chunks and blocks of a few rows: witnesses must still be the first minimum
        monkeypatch.setattr(observability, "_PAIR_BLOCK", 7)
        for name in ("shared_eigenvalue", "workhorse"):
            _assert_audits_agree(NAMED[name], 40)

    def test_documented_p3_witness(self):
        # the example of ingham_audit's docstring: branch 2 at mode 2 and branch 1 at mode 3
        p3 = ingham_audit(build_slice(NAMED["shared_eigenvalue"], 3)).p3
        assert (p3.witness, p3.value.hex()) == ((4, 5), (0.26563989252457987).hex())

    @pytest.mark.parametrize("params", [NAMED["shared_eigenvalue"], COINCIDENCE_FREE],
                             ids=["shared_eigenvalue", "coincidence_free"])
    def test_windows_prune_at_scale(self, monkeypatch, params):
        # the H1, P1, P3 and disjoint windows of an N = 1024 audit keep under
        # WINDOW_SHARE of all pairs, in chunks of at most _PAIR_BLOCK pairs or one row
        calls = []
        monkeypatch.setattr(observability, "window_pairs", _recording_windows(calls))
        ingham_audit(build_slice(params, 1024))
        h1, p1, p3, relaxed, disjoint = calls
        for rows, cols, chunks in (h1, p1, p3, disjoint):
            assert sum(pairs for pairs, _ in chunks) < WINDOW_SHARE * rows * cols
        assert all(pairs <= observability._PAIR_BLOCK or rows == 1 for *_, chunks in calls for pairs, rows in chunks)


def _scalar_family_reductions(slice_) -> dict:
    """P2, P4, ``c_hat`` and ``inv_abs_partial_sum`` by scalar loops over the
    parabolic family as a dict in the audit's order: branch 1 in slice order,
    then branch 2, under the interleaved keys of the three-field system."""
    table = slice_.basis
    order = np.argsort(np.abs(table.ns), kind="stable")
    ns = table.ns[order].tolist()
    par = {}
    for b in range(1, slice_.dim):
        for n, v in zip(ns, table.values[order, b].tolist()):
            par[n if slice_.dim == 2 else 2 * n if b == 2 else 2 * n - 1 if n > 0 else 2 * n + 1] = v
    ratios = {n: (-v.real / abs(v.imag)) if v.imag != 0.0 else np.inf for n, v in par.items()}
    c_hat_n = min(ratios, key=ratios.get)
    mags = {n: abs(v) / abs(n) ** 2.0 for n, v in par.items()}
    b0 = max(mags.values())
    witness = (min(mags, key=mags.get), max(mags, key=mags.get))
    total = 0.0
    for v in par.values():  # not sum(): from Python 3.12 on it compensates
        total += 1.0 / abs(v)
    return {
        "P2": (float(ratios[c_hat_n]), c_hat_n),
        "P4": (b0, witness, min(mags.values()) / b0),
        "c_hat": min(-v.real / abs(v) for v in par.values()),
        "inv_abs_partial_sum": total,
    }


def _bits(minima) -> list:
    """Each ``(value, witness)`` with the value as its IEEE bytes."""
    return [(np.float64(value).tobytes(), witness) for value, witness in minima]


#: values with ties, infinities and NaN, so that the tables hold equal,
#: infinite and NaN entries
_PAIR_VALUES = st.one_of(
    st.sampled_from([0j, 1 + 1j, -2 + 0.5j, complex(np.inf, 0.0), complex(-np.inf, 1.0), complex(np.nan, 0.0)]),
    st.complex_numbers(max_magnitude=1e3),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
)


def _nudged(x: float, ulps: int) -> float:
    """``x`` moved by ``ulps`` units in the last place, toward -inf for negative ``ulps``."""
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, math.copysign(np.inf, ulps)))
    return x


@st.composite
def _roundoff_values(draw, size: int) -> list:
    """``size`` values 0-4 ulps from a few lattice anchors at one scale, some
    of them conjugated: gaps of a few rounding units, exact duplicates and
    conjugate pairs.  Anchors at 0 give subnormal gaps, and at the scale
    1e-300 the gaps are subnormal too."""
    scale = draw(st.sampled_from([1e-300, 1.0, 370.0, 1e15]))
    anchors = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=1, max_size=3))
    out = []
    for _ in range(size):
        a, b = draw(st.sampled_from(anchors))
        value = complex(_nudged(a * scale, draw(st.integers(-4, 4))), _nudged(b * scale, draw(st.integers(-4, 4))))
        out.append(value.conjugate() if draw(st.booleans()) else value)
    return out


def _unique_keys(data, size: int) -> np.ndarray:
    # keys of equal |n| give zero P3 denominators
    return np.array(data.draw(st.lists(st.integers(-40, 40).filter(bool), min_size=size, max_size=size, unique=True)))


def _pair_minima(keys, v, col_keys, cols) -> tuple:
    """Every pair minimum of the audit on one value set, and its cross gap to a second, as bytes."""
    return (
        _bits([observability._min_pairwise_gap(keys, v)]),
        _bits(observability._parabolic_minima(keys, v, 2.0)),
        _bits([observability._min_cross_gap(keys, v, col_keys, cols)]),
        np.float64(observability._min_squared_gap(keys, v, keys, v, 1.0, 1.0)).tobytes(),
        np.float64(observability._min_squared_gap(keys, v, keys, v, 1.0, 2.0)).tobytes(),
        np.float64(observability._min_squared_gap(keys, v, keys[::-1], v, 1.0, 2.0)).tobytes(),
    )


def _recording_windows(calls: list):
    """:func:`cnslab.spectrum.window_pairs`, appending ``(rows, columns, chunks)`` per
    call to ``calls``, with ``(pairs, distinct rows)`` per chunk."""

    def windows(rows, radius, sorts, block=None):
        chunks = []
        calls.append((rows.size, sorts[0][0].size, chunks))
        for i, j in spectrum.window_pairs(rows, radius, sorts, block):
            chunks.append((i.size, np.unique(i).size))
            yield i, j

    return windows


def _assert_minima_match_whole_tables(keys, v, col_keys, cols, block: int) -> None:
    """:func:`_pair_minima` equal bit for bit to the oracle's whole tables, with
    ``_PAIR_BLOCK`` set to ``block`` and every chunk and block within it."""
    calls, shapes = [], []
    gaps = observability._gaps

    def recording_gaps(a, b):
        if a.ndim == 2:
            shapes.append((a.shape[0], b.shape[1]))
        return gaps(a, b)

    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(observability, "_PAIR_BLOCK", block)
        mp.setattr(observability, "window_pairs", _recording_windows(calls))
        mp.setattr(observability, "_gaps", recording_gaps)
        got = _pair_minima(keys, v, col_keys, cols)
        # a window chunk holds at most _PAIR_BLOCK candidates, a block at
        # most _PAIR_BLOCK entries, or either one row
        assert all(pairs <= block or rows == 1 for *_, chunks in calls for pairs, rows in chunks)
        assert all(rows * width <= block or rows == 1 for rows, width in shapes)
        _whole_tables(mp)
        assert got == _pair_minima(keys, v, col_keys, cols)


class TestTriangularMinima:
    """The sorted windows and the row blocks against the whole tables of the oracle, bit for bit."""

    @given(
        values=st.lists(_PAIR_VALUES, min_size=1, max_size=60),
        cols=st.lists(_PAIR_VALUES, min_size=1, max_size=30),
        data=st.data(),
        block=st.sampled_from([1, 5, 64]),
    )
    @settings(max_examples=150, deadline=None)
    def test_pair_tables(self, values, cols, data, block):
        # block 1 and 5 split the tables into many chunks and blocks and end
        # the triangle on a row of width 0
        keys = _unique_keys(data, len(values))
        _assert_minima_match_whole_tables(
            keys, np.array(values, dtype=complex), np.arange(len(cols)), np.array(cols, dtype=complex), block
        )

    def test_subnormal_quotients(self):
        # a gap of one subnormal over the denominators 13 (P3) and 2 (relaxed)
        # rounds to 0, the minimum, though the pair lies 5e-324 apart: the
        # window's radius carries 2**-1074 per unit of the largest denominator
        keys = np.array([1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6, 7, -7])
        v = np.zeros(keys.size, dtype=complex)
        v[-1] = 5e-324j
        got = observability._parabolic_minima(keys, v, 2.0)
        assert [witness for _, witness in got] == [(-6, -5), (-7, -6), (-7, -5)]
        assert _bits(got) == _bits(oracle.parabolic_minima(keys, v, 2.0))

    @given(size=st.integers(1, 40), data=st.data(), block=st.sampled_from([1, 5, 64]))
    @settings(max_examples=150, deadline=None)
    def test_roundoff_gaps(self, size, data, block):
        # the columns are the values again, each moved by 1-4 ulps along one
        # axis: at scale 1 the rectangle's minimum is near 1e-16, as the
        # shared-eigenvalue set's disjoint gap (4.38e-16)
        v = np.array(data.draw(_roundoff_values(size)))
        cols = []
        for z in v.tolist():
            ulps = data.draw(st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]))
            cols.append(complex(_nudged(z.real, ulps), z.imag) if data.draw(st.booleans())
                        else complex(z.real, _nudged(z.imag, ulps)))
        _assert_minima_match_whole_tables(_unique_keys(data, size), v, np.arange(size)[::-1], np.array(cols), block)


class TestRieszCloseness:
    @pytest.mark.parametrize("name", ["workhorse", "shared_eigenvalue"])
    def test_closeness_csv_matches_per_mode_sums(self, tmp_path, name):
        params = NAMED[name]
        section = "\n".join(f"{f.name} = {getattr(params, f.name)!r}" for f in dataclasses.fields(params) if f.init)
        system = "barotropic" if params.dim == 2 else "nonbarotropic"
        cfg = tmp_path / "closeness.ini"
        cfg.write_text(f"[run]\nsystem = {system}\ncommand = closeness\n\n[params]\n{section}\n\n[closeness]\nN_start = 5\nN_end = 60\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        header, *rows = csv.reader((tmp_path / "out" / "closeness.csv").read_text().splitlines())
        assert header == ["N", "partial_sum"] and [int(r[0]) for r in rows] == list(range(5, 61))
        assert _close([float(r[1]) for r in rows], oracle.riesz_closeness(params, 5, 60))

    @given(params=st.one_of(BAROTROPIC, NONBAROTROPIC), start=st.integers(0, 20), length=st.integers(0, 30))
    @settings(max_examples=40, deadline=None)
    def test_random_windows(self, params, start, length):
        threshold = max(1, int(np.floor(params.n0)) + 1) if params.dim == 2 else 1
        start = max(start, threshold)
        got = np.diff(riesz_closeness(params, start, start + length), prepend=0.0)
        ref = np.diff(oracle.riesz_closeness(params, start, start + length), prepend=0.0)
        assert got.shape == ref.shape
        # increment by increment: a mode whose labelling is a tie (see
        # _label_match) measures its vectors against other targets
        tol = spectrum.DEFAULT_CLUSTERING_TOL
        for k, (g, r) in enumerate(zip(got, ref)):
            ns = (start + k, -start - k)
            values = spectrum._solve_modes(params, ns, tol)[0].values
            matches = [_label_match(params, n, v, oracle._mode_pairs(params, n, tol), RANDOM_RTOL) for n, v in zip(ns, values)]
            assert matches != [list(range(params.dim))] * 2 or _close(g, r, RANDOM_RTOL)
