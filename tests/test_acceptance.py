"""Acceptance criteria, one test per criterion.

Every assertion is exact (no tolerances anywhere); each criterion also
carries a wall-clock budget and prints a single pass line when it holds.
"""

import dataclasses
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from g2cert import suite, weyl
from g2cert.lie import derivation_algebra, killing_form, so_of_form, transporter_into
from g2cert.linalg import NormForm, Subspace, signature
from g2cert.octonion import DIM, SplitCayley, StructureConstantAlgebra, build_split_cayley
from g2cert.reps import (
    Intertwiner,
    InvariantForms,
    adjoint_module,
    bracket_span,
    hom_space,
    invariant_bilinear_forms,
    is_irreducible,
    killing_orthocomplement,
    module_isomorphism,
    restriction_module,
    wedge_so_isomorphism,
)
from g2cert.report import serialize
from g2cert.suite import (
    CheckOutcome,
    SuiteConfig,
    VerificationContext,
    check_maximality,
    check_metric_constants,
    run_all,
)
from g2cert.weyl import (
    cartan_type,
    dimension_census,
    root_system,
    simple_algebra_census,
    weyl_dimension,
)

from conftest import E3E4_DRIFT, SO7_ERRORS, basis_element, cayley_mutant, diagonal, form_norm, leibniz_rows, reference_rank, untimed


def _done(number: int, label: str, started: float, limit: float):
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.2f}s)"
    print(f"ACCEPTANCE {number:02d} PASS ({elapsed:.2f}s < {limit:g}s): {label}")


def test_criterion_01_cayley_certification(ctx):
    start = time.perf_counter()
    c = ctx.cayley
    for i in range(8):
        for j in range(8):
            a, b = basis_element(i), basis_element(j)
            assert form_norm(c.form, c.algebra.multiply(a, b)) == form_norm(c.form, a) * form_norm(c.form, b)
    assert signature(c.form.G) == (4, 4, 0)
    _, restricted = c.form.unit_facts(c.unit).imaginary
    assert signature(restricted.G) == (3, 4, 0)
    _done(1, "composition law and norm signatures", start, 1.0)


def test_criterion_02_derivation_algebra(ctx):
    start = time.perf_counter()
    der = derivation_algebra(ctx.cayley.algebra)
    assert der.dim == 14
    constraint = leibniz_rows(ctx.cayley.algebra)  # independent restatement of the derivation equations
    assert constraint.shape == (512, 64)
    assert reference_rank(constraint) == 50  # nullity 14 by rank-nullity
    kf = killing_form(der)
    assert kf.nondegenerate
    assert kf.signature == (8, 6, 0)
    assert is_irreducible(adjoint_module(der)).commutant_dim == 1
    _done(2, "derivation algebra: dim 14, simple, Killing (8,6,0)", start, 5.0)


def test_criterion_03_natural_module(ctx, natural_rep):
    start = time.perf_counter()
    assert len(hom_space(natural_rep, natural_rep)) == 1
    forms = invariant_bilinear_forms(natural_rep)
    assert forms.dim == 1
    assert forms.signature == (3, 4, 0)  # (4,3) is folded in by sign normalization
    _done(3, "7-dim module irreducible with a unique invariant form", start, 5.0)


def test_criterion_04_decomposition(ctx, natural_rep):
    start = time.perf_counter()
    v = killing_orthocomplement(ctx.so34, ctx.g2_image)
    assert v.dim == 7
    vmod = restriction_module(ctx.so34_as_g2_module, v)  # proves invariance
    iso = module_isomorphism(vmod, natural_rep)
    assert iso is not None and iso.is_invertible
    assert hom_space(adjoint_module(ctx.derivations), vmod) == []
    assert ctx.g2_image.sum(v).dim == 21
    assert ctx.g2_image.dim + v.dim - ctx.g2_image.sum(v).dim == 0  # dim(a ∩ b) = dim a + dim b - dim(a + b)
    _done(4, "so(3,4) = image + complement, complement is the natural module", start, 10.0)


def test_criterion_05_bracket_span(ctx):
    start = time.perf_counter()
    vv = bracket_span(ctx.so34, ctx.complement, ctx.complement)
    assert vv.dim == 21
    assert not ctx.g2_image.contains(vv)
    _done(5, "[V,V] fills so(3,4) and escapes the image", start, 5.0)


def test_criterion_06_wedge_so_isomorphism(ctx):
    start = time.perf_counter()
    iso = wedge_so_isomorphism(ctx.imaginary[1], ctx.so34)
    # the constructor has verified equivariance for all 21 generators on all
    # 21 basis wedges; bijectivity is the exact rank computation
    assert iso.T.shape == (21, 21)
    assert reference_rank(iso.T) == 21
    _done(6, "wedge square to so(3,4): bijective and equivariant", start, 5.0)


def test_criterion_07_weyl_dimensions():
    start = time.perf_counter()
    g2 = root_system(cartan_type("G2"))
    assert weyl_dimension(g2, (1, 0)) == 7
    assert weyl_dimension(g2, (0, 1)) == 14
    census = dimension_census(g2, 10)
    nontrivial_small = [(w, d) for w, d in census.entries if any(w) and d < 14]
    assert nontrivial_small == [((1, 0), 7)]
    assert all(d != 6 for _, d in census.entries)
    assert census.monotone
    _done(7, "type-G2 dimensions: 7 and 14 minimal, no dim 6, monotone grid", start, 2.0)


def test_criterion_08_simple_algebra_census():
    start = time.perf_counter()
    assert simple_algebra_census(21) == ["B3", "C3"]
    _done(8, "only B3 and C3 have dimension 21", start, 1.0)


def test_criterion_09_rigidity_kernel(ctx):
    start = time.perf_counter()
    kernel = transporter_into(ctx.so34, ctx.complement)
    assert kernel.dim == 0
    _done(9, "no element brackets all of so(3,4) into the complement", start, 5.0)


def test_criterion_10_maximality(ctx):
    start = time.perf_counter()
    outcome = check_maximality(ctx, SuiteConfig(seed=0, samples=100))
    assert outcome.status == "pass", outcome.witnesses
    assert outcome.witnesses["centralizer_dim"] == 0
    assert outcome.witnesses["basis_vectors"] == 7
    assert outcome.witnesses["random_samples"] == 100
    assert outcome.witnesses["closure_failures"] == 0
    assert outcome.witnesses["generation_failures"] == 0
    _done(10, "trivial centralizer; closure certificate for 7+100 vectors", start, 30.0)


def test_criterion_11_metric_constants(ctx):
    start = time.perf_counter()
    outcome = check_metric_constants(ctx, SuiteConfig(seed=0, samples=5))
    assert outcome.status == "pass", outcome.witnesses
    assert outcome.witnesses["c1"] == Fraction(5, 4)
    assert outcome.witnesses["c2"] == Fraction(-30)
    assert outcome.witnesses["killing_signature_so34"] == (12, 9, 0)
    assert outcome.witnesses["killing_signature_g2"] == (8, 6, 0)
    _done(11, "Killing restrictions: c1 = 5/4, c2 = -30, exact residuals", start, 10.0)


def test_criterion_12_determinism_and_negative_controls():
    cfg = SuiteConfig()  # seed 0, samples 100, census bound 10
    start = time.perf_counter()
    first = run_all(cfg)
    suite_elapsed = time.perf_counter() - start
    assert suite_elapsed < 60.0, f"full suite took {suite_elapsed:.1f}s"
    assert all(r.status == "pass" for r in first)

    second = run_all(cfg, ctx=VerificationContext())
    assert untimed(serialize(first, cfg)) == untimed(serialize(second, cfg))

    fast = SuiteConfig(samples=5)
    degenerate, seam = NormForm(diagonal([1, 1, 1, 1, 1, 1, 0])), suite.wedge_so_isomorphism
    # the mutant shares the pristine form and unit: beside the pristine derivations, only its cayley stage differs
    mutant = VerificationContext(cayley_candidate=cayley_mutant(E3E4_DRIFT), derivations_candidate=VerificationContext().derivations)
    flips = {
        "cayley": ("fail", mutant, None),
        "wedge-iso": ("error", VerificationContext(), lambda form, so_alg: seam(degenerate, so_alg)),
    }
    flipped = {}
    for target, (expected_status, corrupted_ctx, wedge_seam) in flips.items():
        with pytest.MonkeyPatch.context() as monkeypatch:
            if wedge_seam is not None:
                monkeypatch.setattr(suite, "wedge_so_isomorphism", wedge_seam)
            reports = run_all(fast, ctx=corrupted_ctx)
        by_id = {r.id: r for r in reports}
        assert by_id[target].status == expected_status, target
        flipped[target] = by_id[target].witnesses
        # no check is built on cayley or wedge-iso, so every other check passes
        others = [r for r in reports if r.id != target]
        assert all(r.status == "pass" for r in others), [(r.id, r.status) for r in others]
    assert flipped["cayley"]["composition_first_failure"] == "e3*e4"
    assert "composition_first_failure" in flipped["cayley"]["failed_expectations"]
    assert "precondition" in flipped["wedge-iso"]  # a degenerate form is a precondition error, not a fail
    # so(7) as the derivations reaches every stage built on them
    reports = run_all(fast, ctx=VerificationContext(derivations_candidate=so_of_form(NormForm(np.eye(7, dtype=int)))))
    by_id = {r.id: r for r in reports}
    assert by_id["derivations"].witnesses["derivation_dim"] == 21
    assert {r.id: r.status for r in reports} == {"cayley": "pass", "derivations": "fail", **dict.fromkeys(SO7_ERRORS, "error")}
    for cid, witnesses in SO7_ERRORS.items():
        assert by_id[cid].witnesses == witnesses, cid
    print(
        f"ACCEPTANCE 12 PASS ({suite_elapsed:.2f}s < 60s): deterministic suite, "
        "each corruption flips only the checks it reaches"
    )


# How many of the 1024 +-1 mutants of the Cayley structure constants each
# expectation of the cayley and derivations checks catches, at seed 0 and 5
# samples; the other expectations catch none
SWEEP_CAUGHT = {
    "conjugation_antiautomorphism": 1024,
    "sample_identities": 1024,
    "derivation_dim": 1024,
    "alternativity_basis_pairs": 888,
    "unit_is_identity": 448,
    "composition_first_failure": 64,
}


def test_criterion_12_every_structure_constant_mutant_is_rejected():
    """Mutant 2 * (64 i + 8 j + k) + s moves M[i, j, k] by +1 for s = 0 and
    by -1 for s = 1, beside the pristine form and unit.  Each of the 1024
    goes through derivation_algebra and the cayley and derivations checks:
    none passes, and each expectation catches exactly its count."""
    start = time.perf_counter()
    pristine = build_split_cayley()
    cfg = SuiteConfig(samples=5, checks=("cayley", "derivations"))
    caught, passed = Counter(), []
    for index in range(1024):
        i, rest = divmod(index // 2, 64)
        m = pristine.algebra.M.copy()
        m[(i, *divmod(rest, 8))] += 1 - 2 * (index % 2)
        cand = SplitCayley(StructureConstantAlgebra(DIM, m), pristine.form, pristine.unit)
        ctx = VerificationContext(cayley_candidate=cand, derivations_candidate=derivation_algebra(cand.algebra))
        reports = run_all(cfg, ctx=ctx)
        if all(r.status == "pass" for r in reports):
            passed.append(index)
        for r in reports:
            caught.update(r.witnesses.get("failed_expectations", ()))
    assert passed == []
    assert caught == SWEEP_CAUGHT
    _done(12, "every +-1 mutant of the structure constants is rejected", start, 20.0)


def _form_space_of_dim_2(ctx, monkeypatch):
    """The invariant forms with a second, non-invariant matrix (the identity)
    added to their space; the symmetric part and generator are the real ones."""
    real = ctx.natural_forms
    space = Subspace.from_vectors(49, np.vstack([real.space.basis, np.eye(7, dtype=int).reshape(1, 49)]))
    ctx._cache["natural_forms"] = InvariantForms(space=space, symmetric=real.symmetric, generator=real.generator)


def _no_complement_isomorphism(ctx, monkeypatch):
    ctx._cache["complement_isomorphism"] = None


def _zero_wedge_map(ctx, monkeypatch):
    # the zero map intertwines every pair of modules, so only the rank checks can catch it
    seam = suite.wedge_so_isomorphism

    def zero(form, so_alg):
        iso = seam(form, so_alg)
        return Intertwiner(source=iso.source, target=iso.target, T=np.zeros_like(iso.T))

    monkeypatch.setattr(suite, "wedge_so_isomorphism", zero)


def _image_basis_change_over_twice_its_denominator(ctx, monkeypatch):
    # halving the basis change quarters the image's Killing form: c1 reads 5, not 5/4
    x, den = ctx.image_basis_change
    ctx._cache["image_basis_change"] = (x, 2 * den)


def _census_off_by_one(ctx, monkeypatch):
    # this module's own name keeps the original census
    monkeypatch.setattr(weyl, "simple_algebra_census", lambda dim: simple_algebra_census(dim + 1))


def _closure_never_grows(ctx, monkeypatch):
    # generation that returns only the seed's line sends every sample to the closure
    monkeypatch.setattr(suite, "submodule_generated", lambda v, vecs: [Subspace.from_vectors(v.dim, vec[None]) for vec in vecs])
    monkeypatch.setattr(suite, "subalgebra_closure", lambda g, seed: seed)


# target: (a corruption of a fresh context, the expectations it must trip)
NEGATIVE_CONTROLS = {
    "invariant-form": (_form_space_of_dim_2, ("form_space_dim",)),
    "wedge-iso": (_zero_wedge_map, ("phi_rank", "bijective")),
    "decomposition": (_no_complement_isomorphism, ("iso_to_natural_exists",)),
    "recognition": (_census_off_by_one, ("census_dim21",)),
    "maximality": (_closure_never_grows, ("closure_failures",)),
    "metric-constants": (_image_basis_change_over_twice_its_denominator, ("c1",)),
}


@pytest.mark.parametrize("target", sorted(NEGATIVE_CONTROLS))
def test_criterion_12_negative_control_flips_only_its_target(target, monkeypatch):
    """A corrupted cache entry or a drifted callee fails its target check
    (not an error) on every named expectation; every check that does not
    depend on the target still passes."""
    corrupt, expectations = NEGATIVE_CONTROLS[target]
    ctx = VerificationContext()
    corrupt(ctx, monkeypatch)
    by_id = {r.id: r for r in run_all(SuiteConfig(samples=5), ctx=ctx)}
    assert by_id[target].status == "fail"
    assert set(expectations) <= set(by_id[target].witnesses["failed_expectations"])
    untouched = [r for r in by_id.values() if r.id != target and target not in _dependency_closure(r.id)]
    assert all(r.status == "pass" for r in untouched), [(r.id, r.status) for r in untouched]


def _dependency_closure(check_id: str) -> set:
    by_id = {c.id: c for c in suite.CHECKS}
    seen = set()
    stack = [check_id]
    while stack:
        cid = stack.pop()
        for dep in by_id[cid].deps:
            if dep not in seen:
                seen.add(dep)
                stack.append(dep)
    return seen


def test_check_table_lists_every_dependency_first():
    """run_all closes a selection in one backward pass over CHECKS, which is
    exact because each check's deps come earlier in the table."""
    for i, c in enumerate(suite.CHECKS):
        assert set(c.deps) <= set(suite.CHECK_IDS[:i]), c.id


@pytest.mark.parametrize("checks", [(cid,) for cid in suite.CHECK_IDS] + [("cayley", "maximality")])
def test_selection_is_the_ids_and_their_transitive_deps(checks, monkeypatch):
    """With every check stubbed, so that no proof runs, a run reports exactly
    the selected ids and their transitive deps (the stack closure above), and
    runs them in table order."""
    want = set(checks).union(*map(_dependency_closure, checks))
    ran = []
    stubbed = tuple(dataclasses.replace(c, fn=lambda ctx, cfg, cid=c.id: ran.append(cid) or CheckOutcome()) for c in suite.CHECKS)
    monkeypatch.setattr(suite, "CHECKS", stubbed)
    reports = run_all(SuiteConfig(checks=checks))
    assert ran == [cid for cid in suite.CHECK_IDS if cid in want]
    assert [r.id for r in reports] == sorted(want) and {r.status for r in reports} == {"pass"}
