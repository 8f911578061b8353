import functools
import hashlib
import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import g2cert.linalg as linalg
from g2cert import lie, octonion, reps, suite, weyl
from g2cert.lie import derivation_algebra, killing_form, so_of_form
from g2cert.linalg import Exact, NormForm, Subspace, int_cleared, int_einsum
from g2cert.octonion import SplitCayley, build_split_cayley
from g2cert.reps import LieModule
from g2cert.report import exit_code, render_text, serialize, summarize
from g2cert.suite import (
    CHECK_IDS,
    MAX_SAMPLES,
    CheckReport,
    SuiteConfig,
    CheckOutcome,
    VerificationContext,
    _draws,
    _proportionality,
    check_cayley,
    check_invariant_form,
    check_maximality,
    check_metric_constants,
    run_all,
)

from conftest import (
    E3E4_DRIFT,
    basis_element,
    basis_twin,
    cayley_in_basis,
    cayley_mutant,
    compact_octonions,
    conjugate,
    coordinates_of,
    form_bilinear,
    form_norm,
    gram,
    indexed_mutant,
    leading_one_basis,
    loop_product,
    reference_kernel,
    reference_signature,
    reference_span,
    spin_contract,
    untimed,
)

FAST = SuiteConfig(seed=0, samples=5)


@pytest.fixture(scope="module")
def full_run(ctx):
    return run_all(FAST, ctx=ctx)


@pytest.fixture(scope="module")
def twin_ctx():
    """The VerificationContext of each basis twin, made on first use and
    shared by this module's tests, which only read its stages."""
    return functools.cache(lambda seed: VerificationContext(cayley_candidate=basis_twin(seed)))


def test_determinism_two_runs(ctx):
    cfg = SuiteConfig(seed=7, samples=3)
    a = serialize(run_all(cfg, ctx=ctx), cfg)
    b = serialize(run_all(cfg, ctx=VerificationContext()), cfg)
    assert untimed(a) == untimed(b)


def test_shared_objects_built_once_per_run(monkeypatch):
    """A full run builds the adjoint module of so(3,4) once, solves for the
    natural module's invariant forms once and takes the G2 weight census once,
    at ``CENSUS_BOUND``; Killing forms are cached.  Every module of a run is
    built by lemma, through ``LieModule._raw``."""
    built = []
    raw = LieModule._raw.__func__

    def counting_raw(cls, algebra, A, *args, **kwargs):
        built.append((algebra, A))
        return raw(cls, algebra, A, *args, **kwargs)

    forms_calls = []
    forms = suite.invariant_bilinear_forms

    def counting_forms(v):
        forms_calls.append(v)
        return forms(v)

    census_bounds = []
    census = weyl.dimension_census
    monkeypatch.setattr(LieModule, "_raw", classmethod(counting_raw))
    monkeypatch.setattr(suite, "invariant_bilinear_forms", counting_forms)
    monkeypatch.setattr(weyl, "dimension_census", lambda rs, bound: census_bounds.append(bound) or census(rs, bound))
    ctx = VerificationContext()
    reports = run_all(SuiteConfig(samples=5), ctx=ctx)
    assert [r.status for r in reports] == ["pass"] * 8
    assert census_bounds == [suite.CENSUS_BOUND]
    so34 = ctx.so34
    ad_stack = so34.C.transpose(0, 2, 1)
    assert sum(alg is so34 and np.array_equal(a, ad_stack) for alg, a in built) == 1
    assert len(forms_calls) == 1
    assert killing_form(so34) is killing_form(so34)


def _digest(x) -> str:
    values = np.asarray(x, dtype=object)
    return hashlib.sha256(repr((values.shape, values.tolist())).encode()).hexdigest()


def _input_spy(monkeypatch, owner, name: str) -> list[str]:
    """Rebind owner.name in every g2cert module that holds it to a spy that
    records a digest of the values of its first argument."""
    calls, original = [], getattr(owner, name)

    def spy(x, *args, **kwargs):
        calls.append(_digest(x))
        return original(x, *args, **kwargs)

    for mod in (linalg, lie, octonion, reps, suite, weyl):
        for attr, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, attr, spy)
    return calls


def _spied_run(monkeypatch, ctx):
    """The reports of one default run on ctx, the digests of the inputs of
    each exact primitive in it (of the vectors, for
    ``Subspace.from_vectors``), and each spin basis made, beside its stack."""
    weyl.cartan_type.cache_clear()  # so that this run validates G2, for the census and the weight census both
    primitives = ((linalg, "int_inverse"), (reps, "_spin_basis"), (linalg, "kernel_basis"), (linalg, "signature"), (linalg, "independent_rows"))
    spies = {name: _input_spy(monkeypatch, owner, name) for owner, name in primitives}
    spies["from_vectors"], from_vectors = [], Subspace.from_vectors.__func__
    monkeypatch.setattr(Subspace, "from_vectors", classmethod(lambda cls, n, v: spies["from_vectors"].append(_digest(v)) or from_vectors(cls, n, v)))
    spins, spin = [], reps._spin_basis
    monkeypatch.setattr(reps, "_spin_basis", lambda a: spins.append((a, *spin(a))) or spins[-1][1:])
    return run_all(SuiteConfig(), ctx=ctx), spies, spins


@pytest.fixture(scope="module")
def spied_run():
    """``_spied_run`` on a fresh pristine context, which passes every check:
    that context, the input digests and the spin bases."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        ctx = VerificationContext()
        reports, spies, spins = _spied_run(monkeypatch, ctx)
    assert {r.status for r in reports} == {"pass"}
    return ctx, spies, spins


def test_each_exact_input_is_solved_once_per_run(spied_run):
    """In a full run, int_inverse, the spin basis, kernel_basis, signature
    and independent_rows each see every distinct input at most once.  The
    allowed repeats: a signature of two equal 7 x 7 Gram matrices held by
    different owners, the natural module's invariant form and the norm form
    restricted to the imaginary subspace; and two spans, each taken by two
    checks: the sum of the g2 image and its complement (decomposition and
    maximality), and the rank of the Killing form restricted to the image
    (the premise of killing_orthocomplement and a metric-constants witness)."""
    ctx, spies, _ = spied_run
    assert all(spies.values())
    invariant, restricted_norm = ctx.natural_forms.generator.G, ctx.imaginary[1].G
    assert np.array_equal(invariant, restricted_norm)
    image, complement = ctx.g2_image.basis, ctx.complement.basis
    restricted_killing = image @ killing_form(ctx.so34).G.astype(object) @ image.T
    repeats = {name: {d: n for d, n in Counter(calls).items() if n > 1} for name, calls in spies.items()}
    assert repeats == {
        "int_inverse": {},
        "_spin_basis": {},
        "kernel_basis": {},
        "signature": {_digest(invariant): 2},
        "independent_rows": {},
        "from_vectors": {_digest(np.concatenate([image, complement])): 2, _digest(restricted_killing): 2},
    }


def test_spin_bases_keep_their_contract(spied_run, monkeypatch):
    """Every spin basis of a default run, and of the run on one basis twin,
    keeps ``spin_contract``; each has one seed, as every module spun there
    is cyclic on e_0."""
    twin = _spied_run(monkeypatch, VerificationContext(cayley_candidate=basis_twin(2)))[2]
    for spins, count in ((spied_run[2], 4), (twin, 6)):
        assert len(spins) == count
        assert [spin_contract(a, basis, origins) for a, basis, origins in spins] == [1] * count


def test_embedding_keeps_the_realization_denominator(twin_ctx):
    """In a unimodular basis, so(3,4)'s realization (a, d_r) has d_r != 1.
    The embedding's coordinates are against a / d_r, so E is still a Lie map:
    so34_as_g2_module checks that before building by lemma, and the checking
    constructor accepts the module it builds.  With the first embedding row
    doubled E is no Lie map, and the stage raises instead."""
    ctx = twin_ctx(2)
    assert ctx.cayley is basis_twin(2) and ctx.so34.realization.den != 1
    module = ctx.so34_as_g2_module
    LieModule(ctx.derivations, module.A, module.den)
    ctx = VerificationContext()
    e, den = ctx.embedding
    ctx._cache["embedding"] = Exact(np.vstack([2 * e[:1], e[1:]]), den)
    with pytest.raises(ValueError, match="not a Lie map"):
        ctx.so34_as_g2_module


@pytest.mark.parametrize("seed", [None, 2, 4])
def test_image_basis_change_writes_the_image_basis_in_derivation_coordinates(ctx, twin_ctx, seed):
    """(x, d) = image_basis_change, in lowest terms, gives the image's
    basis b / s as x / d times the embedding rows e / e_den: d e_den b = s x e.
    The pristine embedding rows are that basis, so the stage is (I, 1); in a
    unimodular basis (seed) they are not, and d != 1."""
    if seed is not None:
        ctx = twin_ctx(seed)
    x, d = ctx.image_basis_change
    e, e_den = ctx.embedding
    b, s = ctx.g2_image.basis, ctx.g2_image.den
    assert np.array_equal(int_einsum(",ij->ij", d * e_den, b).ints, int_einsum(",ik,kj->ij", s, x, e).ints)
    assert math.gcd(d, *map(int, x.flat)) == 1
    if seed is None:
        assert (x.tolist(), d) == (np.eye(14, dtype=int).tolist(), 1)
    else:
        assert d != 1  # the new basis reached the stage


def _by_id(reports):
    return {r.id: r for r in reports}


def _changed_witnesses(pristine, other):
    """Every (check, witness) whose value differs between two runs, mapped to
    the other run's value (None where it has none)."""
    return {
        (cid, k): other[cid].witnesses.get(k)
        for cid, r in pristine.items()
        for k in r.witnesses.keys() | other[cid].witnesses.keys()
        if r.witnesses.get(k) != other[cid].witnesses.get(k)
    }


def _is_rational_square(q: Fraction) -> bool:
    return q > 0 and all(math.isqrt(n) ** 2 == n for n in (q.numerator, q.denominator))


# Seeded unimodular bases; so(3,4)'s realization denominator d_r is 112, 2, 48 and 24 in them
TWIN_SEEDS = (2, 4, 5, 6)


@pytest.mark.parametrize("seed", TWIN_SEEDS)
def test_basis_twin_keeps_every_verdict_but_c2(full_run, twin_ctx, seed):
    """The split Cayley algebra in a seeded unimodular basis is the same
    algebra, so every witness and status is the pristine run's except two
    that name the presentation: the basis word of nonassociativity_witness,
    and c2, whose frozen -30 belongs to the pristine basis's leading-1
    isomorphism onto the natural module; any other isomorphism is a scalar
    multiple of it, so c2 is -30 times a nonzero rational square."""
    ctx = twin_ctx(seed)
    twin = _by_id(run_all(FAST, ctx=ctx))
    assert ctx.so34.realization.den != 1  # the new basis reached so(3,4)'s realization
    changed = _changed_witnesses(_by_id(full_run), twin)
    assert changed.keys() <= {("cayley", "nonassociativity_witness"), ("metric-constants", "c2"), ("metric-constants", "failed_expectations")}
    assert changed[("metric-constants", "failed_expectations")] == ["c2"]
    assert _is_rational_square(Fraction(changed[("metric-constants", "c2")]) / -30)
    assert {cid: r.status for cid, r in twin.items()} == {cid: "fail" if cid == "metric-constants" else "pass" for cid in CHECK_IDS}


def test_compact_octonions_flip_exactly_the_form_dependent_witnesses(full_run):
    """The compact octonions differ from the split ones only in the real form:
    every signature flips to definite, and every witness that does not depend
    on the form, c1 and c2 among them, is the split run's."""
    ctx = VerificationContext(cayley_candidate=compact_octonions())
    compact = _by_id(run_all(FAST, ctx=ctx))
    assert compact["invariant-form"].witnesses == {"skipped": "dependency 'derivations' did not pass"}
    changed = {k: v for k, v in _changed_witnesses(_by_id(full_run), compact).items() if k[0] != "invariant-form"}
    assert changed.pop(("cayley", "nonassociativity_witness")) is not None
    assert changed == {
        ("cayley", "norm_signature"): [8, 0, 0],
        ("cayley", "imag_signature"): [7, 0, 0],
        ("cayley", "failed_expectations"): ["norm_signature", "imag_signature"],
        ("derivations", "killing_signature"): [0, 14, 0],
        ("derivations", "failed_expectations"): ["killing_signature"],
        ("recognition", "form_signature_pair"): [0, 7],
        ("recognition", "failed_expectations"): ["form_signature_pair"],
        ("metric-constants", "killing_signature_so34"): [0, 21, 0],
        ("metric-constants", "killing_signature_g2"): [0, 14, 0],
        ("metric-constants", "failed_expectations"): ["killing_signature_so34", "killing_signature_g2"],
    }
    assert (compact["metric-constants"].witnesses["c1"], compact["metric-constants"].witnesses["c2"]) == ("5/4", -30)
    # run past its dependency, the invariant-form check fails on the signature alone
    direct = check_invariant_form(ctx, FAST)
    assert (direct.failed, direct.witnesses["signature"]) == (["signature"], (0, 7, 0))


def test_derivations_are_the_stabilizer_of_the_three_form(ctx):
    """g2 is the stabilizer in gl(7) of phi(x, y, z) = B(xy, z) on the
    imaginary subspace (Bryant, Ann. of Math. 126, 1987): X phi = 0 is 343
    equations in the 49 entries of X, a system independent of the one
    derivation_algebra solves, and its kernel is the natural module's span."""
    c = ctx.cayley
    b = ctx.imaginary[0].basis
    phi = int_einsum("ai,bj,ijk,kl,cl->abc", b, b, c.algebra.M, c.form.G, b)
    eye = np.eye(7, dtype=np.int64)
    # coefficient of X[d, e] in (X phi)(a, b, c) = phi(Xa, b, c) + phi(a, Xb, c) + phi(a, b, Xc)
    system = int_einsum("ea,dbc->abcde", eye, phi).ints + int_einsum("eb,adc->abcde", eye, phi).ints + int_einsum("ec,abd->abcde", eye, phi).ints
    stabilizer = reference_kernel(system.reshape(343, 49))
    nat = ctx.natural_rep
    assert stabilizer.dim == 14
    assert stabilizer == reference_span(49, nat.A.reshape(len(nat.A), 49).tolist())


def test_filtered_run_single_check(ctx):
    reports = run_all(SuiteConfig(samples=3, checks=("cayley",)), ctx=ctx)
    assert [r.id for r in reports] == ["cayley"]


def test_filtered_run_includes_dependencies(ctx):
    reports = run_all(SuiteConfig(samples=3, checks=("recognition",)), ctx=ctx)
    assert [r.id for r in reports] == ["decomposition", "recognition"]
    assert all(r.status == "pass" for r in reports)


def test_unknown_check_id_rejected(ctx):
    with pytest.raises(KeyError, match="unknown check ids: a, nope'"):
        run_all(SuiteConfig(checks=("nope", "cayley", "a")), ctx=ctx)


def test_seed_variation_leaves_check_reports_identical(ctx):
    """The identities hold for every sample, so only the recorded seed in the
    envelope differs between seeds."""
    a = run_all(SuiteConfig(seed=1, samples=4, checks=("cayley",)), ctx=ctx)[0]
    b = run_all(SuiteConfig(seed=99, samples=4, checks=("cayley",)), ctx=ctx)[0]
    assert a.witnesses == b.witnesses
    assert a.status == b.status == "pass"


def test_maximality_basis_only(ctx):
    from g2cert.suite import check_maximality

    outcome = check_maximality(ctx, SuiteConfig(samples=0))
    assert outcome.status == "pass"
    assert outcome.witnesses["random_samples"] == 0
    assert outcome.witnesses["basis_vectors"] == 7


def _closure_spy(monkeypatch) -> list:
    """Count the closures check_maximality runs; each call appends its seed."""
    seeds = []
    real = suite.subalgebra_closure

    def spy(g, seed):
        seeds.append(seed)
        return real(g, seed)

    monkeypatch.setattr(suite, "subalgebra_closure", spy)
    return seeds


def test_pristine_maximality_runs_no_closure(ctx, monkeypatch):
    """Every sample generates V and image + V is all of so(3,4), so the
    closure is everything by proof and never runs."""
    seeds = _closure_spy(monkeypatch)
    outcome = check_maximality(ctx, FAST)
    assert outcome.status == "pass"
    assert seeds == []


def test_failed_generation_falls_back_to_the_closure(ctx, monkeypatch):
    """A submodule_generated that returns only the seed's line fails every
    generation; each of the 7 + samples seeds then runs the real closure,
    which still reaches all of so(3,4)."""
    seeds = _closure_spy(monkeypatch)
    monkeypatch.setattr(suite, "submodule_generated", lambda v, vecs: [Subspace.from_vectors(v.dim, vec[None]) for vec in vecs])
    outcome = check_maximality(ctx, FAST)
    assert outcome.witnesses["generation_failures"] == 7 + FAST.samples
    assert outcome.witnesses["closure_failures"] == 0
    assert outcome.failed == ["generation_failures"]
    assert len(seeds) == 7 + FAST.samples


def test_complement_inside_the_image_flips_maximality():
    """With the image itself cached as the complement, every sample generates
    its V (the adjoint module of a simple algebra is irreducible), but image +
    V is only 14-dimensional: the closures run and stay inside the image."""
    ctx = VerificationContext()
    ctx._cache["complement"] = ctx.g2_image
    outcome = check_maximality(ctx, FAST)
    assert outcome.witnesses["basis_vectors"] == 14
    assert outcome.witnesses["generation_failures"] == 0
    assert outcome.witnesses["closure_failures"] == 14 + FAST.samples
    assert outcome.failed == ["closure_failures"]


@pytest.mark.parametrize("seed, samples", [(0, 20), (7, 20), (123, 20), (7, 300)])
def test_maximality_matches_the_always_close_path(ctx, monkeypatch, seed, samples):
    """The generation shortcut gives the same witnesses as running the
    closure on every sample.  A sum that falls short of so(3,4) breaks the
    lemma's premise, so every sample runs the closure whatever its
    generation."""
    cfg = SuiteConfig(seed=seed, samples=samples)
    shortcut = check_maximality(ctx, cfg)
    seeds = _closure_spy(monkeypatch)
    monkeypatch.setattr(Subspace, "sum", lambda self, other: self)
    always_close = check_maximality(ctx, cfg)
    assert len(seeds) == 7 + samples
    assert all(s.dim == 15 for s in seeds)  # the image and one vector of V
    assert shortcut.witnesses == always_close.witnesses
    assert shortcut.status == always_close.status == "pass"


@pytest.mark.parametrize("seed", [0, 1, 7, 123, 2**64 - 1])
def test_draws_are_the_randint_draws(seed):
    """_draws(rng, count) is [rng.randint(-9, 9) for _ in range(count)] value
    for value, and leaves rng in the same state, at the lengths of both call
    sites: 2 * 8 * samples for the cayley samples, 7 per maximality seed."""
    for tag, count in (("cayley", 2 * 8 * 5), ("cayley", 2 * 8 * 100), ("maximality", 7), ("maximality", 0)):
        rng, ref = Random(f"{seed}/{tag}"), Random(f"{seed}/{tag}")
        for _ in range(3):
            assert _draws(rng, count) == [ref.randint(-9, 9) for _ in range(count)]
            assert rng.getstate() == ref.getstate()


class _ZeroFirst(Random):
    """A Random whose first eight five-bit draws are scripted: seven 9s, so
    that randint(-9, 9) first yields the zero vector of length 7, then 31, a
    value randint rejects and draws again."""

    def __init__(self, x):
        self.script = [9] * 7 + [31]
        super().__init__(x)

    def getrandbits(self, k):
        return self.script.pop(0) if self.script else super().getrandbits(k)


def test_maximality_redraws_the_zero_vector_as_randint_does(ctx, monkeypatch):
    """The maximality samples are the randint loop's, a zero vector redrawn:
    the seeds handed to submodule_generated after the 7 basis vectors equal a
    loop of randint(-9, 9) on the same source, whose first draw is zero."""
    ref, expected, redrawn = _ZeroFirst("4/maximality"), [], 0
    while len(expected) < 5:
        coords = [ref.randint(-9, 9) for _ in range(7)]
        if any(coords):
            expected.append(coords)
        else:
            redrawn += 1
    assert redrawn == 1
    seen, real = [], suite.submodule_generated
    monkeypatch.setattr(suite, "Random", _ZeroFirst)
    monkeypatch.setattr(suite, "submodule_generated", lambda v, vecs: seen.append(vecs.tolist()) or real(v, vecs))
    assert check_maximality(ctx, SuiteConfig(seed=4, samples=5)).status == "pass"
    assert seen[0][7:] == expected


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(seed=-1)
    with pytest.raises(ValueError):
        SuiteConfig(seed=2**64)
    with pytest.raises(ValueError):
        SuiteConfig(samples=-1)
    SuiteConfig(samples=MAX_SAMPLES)
    with pytest.raises(ValueError):
        SuiteConfig(samples=MAX_SAMPLES + 1)
    with pytest.raises(TypeError):  # the census bound is the constant suite.CENSUS_BOUND
        SuiteConfig(census_bound=10)


@pytest.mark.parametrize(
    "fields",
    [
        {"seed": 1.5},
        {"seed": True},
        {"seed": np.int64(1)},
        {"samples": 2.5},
        {"samples": "5"},
        {"checks": "cayley"},
        {"checks": ["cayley"]},
        {"checks": ("cayley", 1)},
    ],
)
def test_config_rejects_values_of_the_wrong_type(fields):
    """A float seed would reach the report, which holds no floats; a string
    of checks would be read letter by letter."""
    with pytest.raises(ValueError):
        SuiteConfig(**fields)


def _forbid_fraction_elimination(monkeypatch):
    def forbidden(*_):
        raise AssertionError("a Fraction inverse or rref was reached")

    monkeypatch.setattr(linalg.Matrix, "inverse", forbidden)
    monkeypatch.setattr(linalg, "rref", forbidden)


def test_a_run_makes_no_fraction_inverse(monkeypatch):
    _forbid_fraction_elimination(monkeypatch)
    assert {r.status for r in run_all(SuiteConfig())} == {"pass"}


def test_a_mutant_makes_no_fraction_inverse(monkeypatch):
    """The reject path of the mutation sweep: the derivations of a mutant, then
    the cayley and derivations checks on it."""
    _forbid_fraction_elimination(monkeypatch)
    cand = cayley_mutant({(2, 3, 0): 1})
    ctx = VerificationContext(cayley_candidate=cand, derivations_candidate=derivation_algebra(cand.algebra))
    reports = run_all(SuiteConfig(samples=5, checks=("cayley", "derivations")), ctx=ctx)
    assert [(r.id, r.status) for r in reports] == [("cayley", "fail"), ("derivations", "fail")]
    assert reports[1].witnesses["derivation_dim"] == 3


def _spy_on_bracket_builds(monkeypatch) -> list:
    """Every algebra whose deferred bracket is built, once per build: the
    bracket of a from_matrix_basis algebra is built on its first read, which
    reaches ``LieAlgebra.__getattr__`` only while it is unset."""
    built, unset = [], lie.LieAlgebra.__getattr__

    def spy(g, name):
        value = unset(g, name)
        built.append(g)
        return value

    monkeypatch.setattr(lie.LieAlgebra, "__getattr__", spy)
    return built


def test_a_mutant_is_rejected_without_a_bracket(monkeypatch):
    """The reject path reads a mutant's derivation algebra for its dimension
    alone, so none of one in every eight of the 1024 +-1 mutants (mutant
    2 * (64 i + 8 j + k) + s moves mul[i][j][k] by +1 for s = 0 and -1 for
    s = 1; staggered, so that both signs occur) builds a bracket.  The
    pristine algebra on the same path builds its derivations' bracket."""
    built = _spy_on_bracket_builds(monkeypatch)
    cfg = SuiteConfig(samples=5, checks=("cayley", "derivations"))
    for t in range(128):
        cand = indexed_mutant(8 * t + t % 8)
        ctx = VerificationContext(cayley_candidate=cand, derivations_candidate=derivation_algebra(cand.algebra))
        reports = run_all(cfg, ctx=ctx)
        assert reports[0].status != "pass" and reports[1].witnesses["derivation_dim"] != 14
    assert built == []
    pristine = VerificationContext()
    assert {r.status for r in run_all(cfg, ctx=pristine)} == {"pass"}
    assert built == [pristine.derivations]


def test_a_run_builds_each_bracket_once(monkeypatch):
    """A full run builds two brackets, each once: the derivation algebra's and
    so(3,4)'s."""
    built = _spy_on_bracket_builds(monkeypatch)
    ctx = VerificationContext()
    assert {r.status for r in run_all(SuiteConfig(), ctx=ctx)} == {"pass"}
    assert sorted(map(id, built)) == sorted(map(id, (ctx.derivations, ctx.so34)))


def test_form_and_unit_facts_are_built_once_per_form(monkeypatch):
    """n, K and the unit's membership verdict depend on the form and the unit
    alone: eight mutants sharing the pristine pair build that record once,
    through derivation_algebra and the cayley and derivations checks.  A
    basis twin and the compact octonions, each with its own form, build their
    own, and their cayley witnesses are the loop reference's (which decides
    membership itself)."""
    built, record = [], linalg.UnitFacts
    monkeypatch.setattr(linalg, "UnitFacts", lambda *fields: built.append(record(*fields)) or built[-1])
    membership, contains = [], Subspace.contains
    monkeypatch.setattr(Subspace, "contains", lambda sub, other: membership.append(other) or contains(sub, other))
    base, cfg = build_split_cayley(), SuiteConfig(samples=5, checks=("cayley", "derivations"))
    for changes in ({(2, 3, 0): 1}, {(0, 0, 0): -1}, {(2, 3, 7): 1}, {(2, 3, 7): -1}, {(0, 1, 0): 1}, {(5, 6, 2): 1}, {(7, 7, 1): -1}, {(3, 2, 4): 1}):
        cand = SplitCayley(cayley_mutant(changes).algebra, base.form, base.unit)
        ctx = VerificationContext(cayley_candidate=cand, derivations_candidate=derivation_algebra(cand.algebra))
        assert [r.status for r in run_all(cfg, ctx=ctx)] == ["fail", "fail"]
    assert len(built) == len(membership) == 1
    facts = built[0]
    assert (int(facts.n.ints), facts.n.den, facts.u.den, facts.inside) == (2, 2, 1, False) and facts.u.ints.tolist() == list(base.unit)
    assert facts.K.ints.tolist() == (2 * np.outer(base.unit, base.form.G @ base.unit) - 2 * np.eye(8, dtype=int)).tolist() and facts.K.den == 2
    assert not facts.K.ints.flags.writeable and base.form.unit_facts(base.unit).imaginary is facts.imaginary
    twin = basis_twin(2)  # with a form of its own, whose unit facts this test builds
    for other in (SplitCayley(twin.algebra, NormForm(twin.form.G, twin.form.den), twin.unit), compact_octonions()):
        got = check_cayley(VerificationContext(cayley_candidate=other), SuiteConfig(seed=3, samples=5))
        want = reference_check_cayley(other, SuiteConfig(seed=3, samples=5))
        assert _typed(got.witnesses) == _typed(want.witnesses) and got.failed == want.failed
        assert built[-1] is other.form.unit_facts(other.unit)
    assert len(built) == 3


def reference_check_cayley(c, cfg):
    """check_cayley as Fraction loops over the ``mul`` view and the nonzero
    Gram entries (conftest's form_bilinear and conjugate): the witness code
    the tensor contractions replaced, kept as the reference."""
    from itertools import product
    from random import Random

    def name(i):
        return f"e{i + 1}"

    multiply, e = loop_product(c.algebra.mul), c.unit
    bilinear, norm = functools.partial(form_bilinear, c.form), functools.partial(form_norm, c.form)
    basis = [basis_element(i) for i in range(8)]
    out = CheckOutcome()
    out.expect("unit_norm", norm(e), Fraction(1))
    out.expect(
        "unit_is_identity",
        all(multiply(e, b) == b and multiply(b, e) == b for b in basis),
        True,
    )
    first_failure = next(
        (f"{name(i)}*{name(j)}" for i, j in product(range(8), repeat=2)
         if norm(multiply(basis[i], basis[j])) != norm(basis[i]) * norm(basis[j])),
        None,
    )
    out.record("composition_basis_pairs", 64)
    out.expect("composition_first_failure", first_failure, None)
    alt_ok = all(
        multiply(multiply(a, a), b) == multiply(a, multiply(a, b))
        and multiply(b, multiply(a, a)) == multiply(multiply(b, a), a)
        for a in basis
        for b in basis
    )
    out.expect("alternativity_basis_pairs", alt_ok, True)
    conj_ok = all(
        conjugate(c, multiply(a, b)) == multiply(conjugate(c, b), conjugate(c, a))
        for a in basis
        for b in basis
    ) and all(conjugate(c, conjugate(c, a)) == a for a in basis)
    out.expect("conjugation_antiautomorphism", conj_ok, True)

    rng = Random(f"{cfg.seed}/cayley")
    sample_ok = True
    for _ in range(cfg.samples):
        a = tuple(Fraction(rng.randint(-9, 9)) for _ in range(8))
        b = tuple(Fraction(rng.randint(-9, 9)) for _ in range(8))
        ab = multiply(a, b)
        na = norm(a)
        if norm(ab) != na * norm(b):
            sample_ok = False
        if multiply(a, multiply(a, b)) != multiply(multiply(a, a), b):
            sample_ok = False
        if multiply(a, conjugate(c, a)) != tuple(na * x for x in e):
            sample_ok = False
    out.record("sample_size", cfg.samples)
    out.expect("sample_identities", sample_ok, True)

    witness = next(
        (f"{name(i)}*{name(j)}*{name(k)}" for i, j, k in product(range(8), repeat=3)
         if multiply(multiply(basis[i], basis[j]), basis[k])
         != multiply(basis[i], multiply(basis[j], basis[k]))),
        None,
    )
    out.expect("nonassociativity_witness_found", witness is not None, True)
    out.record("nonassociativity_witness", witness)

    out.expect("norm_signature", reference_signature(gram(c)), (4, 4, 0))
    sub = reference_kernel(int_cleared([[bilinear(b, e) for b in basis]])[0])
    restricted = [[bilinear(x, y) for y in leading_one_basis(sub)] for x in leading_one_basis(sub)]
    out.expect("imaginary_dim", sub.dim, 7)
    out.expect("imag_signature", reference_signature(restricted), (3, 4, 0))
    out.expect("unit_outside_imaginary", coordinates_of(sub, e) is not None, False)
    return out


# f1 = 2**70 e1 + e2, f3 = 2/3 e3 + 5 e6, f5 = e4 + e5 and f8 = e8 / 7: the
# structure constants pass 2**63 and the new basis vectors are not isotropic.
BIG_BASIS = [[int(i == j) for j in range(8)] for i in range(8)]
BIG_BASIS[0][0], BIG_BASIS[1][0] = 2**70, 1
BIG_BASIS[2][2], BIG_BASIS[5][2] = Fraction(2, 3), 5
BIG_BASIS[3][4], BIG_BASIS[7][7] = 1, Fraction(1, 7)

# One +-1 change to mul[i][j][k] per witness pattern of the sweep over all 1024:
# unit_is_identity False or True, composition_first_failure set or None, and
# alternativity_basis_pairs True or False.
PARITY_MUTANTS = (
    (0, 0, 0, 1),   # not a unit, composition holds on basis pairs, alternativity fails
    (0, 0, 1, 1),   # not a unit, composition fails at e1*e1
    (0, 1, 0, 1),   # not a unit, alternativity holds on basis pairs
    (2, 2, 0, 1),   # unit intact, composition holds on basis pairs, alternativity fails
    (2, 3, 4, 1),   # unit intact, composition fails at e3*e4
    (2, 3, 7, 1),   # unit intact, composition and alternativity hold on basis pairs
    (2, 3, 7, -1),  # the same, with the opposite sign
    (0, 2, 0, 1),   # e*e3 != e3 while e3*e = e3
    (2, 0, 0, -1),  # e3*e != e3 while e*e3 = e3
)


def _typed(witnesses):
    return [(k, v, type(v)) for k, v in witnesses.items()]


@pytest.mark.parametrize(
    "label, cayley, samples",
    [("pristine", build_split_cayley(), 100), ("e3*e4 drift", cayley_mutant(E3E4_DRIFT), 5)]
    + [(f"mul[{i}][{j}][{k}]{d:+d}", cayley_mutant({(i, j, k): d}), 5) for i, j, k, d in PARITY_MUTANTS]
    + [("big basis", cayley_in_basis(BIG_BASIS), 5)],
)
def test_check_cayley_matches_loop_reference(label, cayley, samples):
    cfg = SuiteConfig(seed=3, samples=samples)
    got = check_cayley(VerificationContext(cayley_candidate=cayley), cfg)
    want = reference_check_cayley(cayley, cfg)
    assert _typed(got.witnesses) == _typed(want.witnesses), label
    assert (got.status, got.failed) == (want.status, want.failed), label


def test_check_cayley_on_python_ints():
    """The basis change by 2**70 puts the structure tensor itself past int64."""
    c = cayley_in_basis(BIG_BASIS)
    assert c.algebra.M.dtype == object
    assert check_cayley(VerificationContext(cayley_candidate=c), SuiteConfig(samples=5)).status == "pass"


def test_dependency_skip_reports_error_not_pass():
    """A check whose dependency errored must be skipped as an error."""
    degenerate_everything = VerificationContext(derivations_candidate=so_of_form(NormForm(np.eye(7, dtype=int))))
    reports = run_all(
        SuiteConfig(samples=3, checks=("invariant-form",)), ctx=degenerate_everything
    )
    by_id = {r.id: r for r in reports}
    assert by_id["derivations"].status == "fail"
    assert by_id["invariant-form"].status == "error"


def test_report_matches_golden(full_run):
    """The entire serialized report (timing zeroed) is pinned to a golden file,
    so any drift in statuses, witnesses, wording, or check or key order is
    caught; a failing check names itself first."""
    assert {r.id: r.status for r in full_run} == dict.fromkeys(CHECK_IDS, "pass")
    import pathlib

    golden = json.loads(
        (pathlib.Path(__file__).parent / "data" / "report_golden.json").read_text()
    )
    assert json.loads(untimed(serialize(full_run, FAST))) == golden


_FRACTION_RE = re.compile(r"^-?[0-9]+/[1-9][0-9]*$")


def parse_witness_value(value):
    """Inverse of normalize_witnesses for values that encode rationals."""
    if isinstance(value, str) and _FRACTION_RE.match(value):
        num, den = value.split("/")
        return Fraction(int(num), int(den))
    if isinstance(value, list):
        return [parse_witness_value(v) for v in value]
    if isinstance(value, dict):
        return {k: parse_witness_value(v) for k, v in value.items()}
    return value


@dataclass(frozen=True)
class ParsedReport:
    version: int
    seed: int
    checks: tuple
    summary: dict


def parse_report(data: bytes) -> ParsedReport:
    doc = json.loads(data.decode("ascii"))
    checks = tuple(
        CheckReport(
            id=c["id"],
            title=c["title"],
            claim=c["claim"],
            status=c["status"],
            witnesses=c["witnesses"],
            elapsed_ms=c["elapsed_ms"],
        )
        for c in doc["checks"]
    )
    return ParsedReport(
        version=doc["version"], seed=doc["seed"], checks=checks, summary=doc["summary"]
    )


def test_json_round_trip(full_run):
    payload = serialize(full_run, FAST)
    parsed = parse_report(payload)
    assert parsed.version == 1
    assert parsed.seed == FAST.seed
    assert list(parsed.checks) == list(full_run)
    assert parsed.summary == summarize(full_run)


def test_witness_rationals_render_as_strings(full_run):
    doc = json.loads(serialize(full_run, FAST))
    c1 = next(c for c in doc["checks"] if c["id"] == "metric-constants")["witnesses"]["c1"]
    assert c1 == "5/4"
    assert parse_witness_value(c1) == Fraction(5, 4)


def test_text_and_json_agree_on_ids_and_statuses(full_run):
    text = render_text(full_run, FAST)
    doc = json.loads(serialize(full_run, FAST))
    for check in doc["checks"]:
        assert f"[{check['status'].upper():5s}] {check['id']}" in text


statuses = st.lists(st.sampled_from(("pass", "fail", "error")), max_size=8)


@given(statuses)
def test_exit_code_contract(status_list):
    reports = [
        CheckReport(id=f"c{i}", title="", claim="", status=s, witnesses={}, elapsed_ms=0)
        for i, s in enumerate(status_list)
    ]
    expected = 0 if all(s == "pass" for s in status_list) else 1
    assert exit_code(reports) == expected
    s = summarize(reports)
    assert s["total"] == len(status_list)
    assert s["passed"] + s["failed"] + s["errored"] == len(status_list)


@given(statuses)
def test_empty_or_mixed_serialization_valid(status_list):
    reports = [
        CheckReport(id=f"c{i}", title="t", claim="c", status=s, witnesses={"k": 1}, elapsed_ms=0)
        for i, s in enumerate(status_list)
    ]
    doc = json.loads(serialize(reports, SuiteConfig()))
    assert doc["summary"]["total"] == len(status_list)
    assert doc["version"] == 1


# -- the proportionality behind c1 and c2 -----------------------------------

_G = np.array([[2, 1, 0], [1, 0, -3], [0, -3, 5]])


@pytest.mark.parametrize(
    "a, b, expected",
    [
        (NormForm(-3 * _G), NormForm(_G), Fraction(-3)),
        (NormForm(5 * _G, 4), NormForm(_G), Fraction(5, 4)),
        (NormForm(_G, 3), NormForm(-2 * _G, 7), Fraction(-7, 6)),
        (NormForm(_G.astype(object) * 2**70, 3), NormForm(_G.astype(object) * 2**66), Fraction(16, 3)),
        (NormForm(0 * _G), NormForm(_G), Fraction(0)),
        (NormForm(_G + np.eye(3, dtype=int)), NormForm(_G), None),  # not proportional
        (NormForm(np.diag([1, 2, 3])), NormForm(np.diag([2, 4, 5])), None),  # the first two entries agree
        (NormForm(_G), NormForm(0 * _G), None),  # zero reference
        (NormForm(_G), NormForm(np.eye(2, dtype=int)), None),  # shape mismatch
    ],
)
def test_proportionality_is_exact_and_can_fail(a, b, expected):
    assert _proportionality(a, b) == expected


def test_metric_constant_residuals_can_fail(ctx, monkeypatch):
    """A sheared image basis on the g2 side and a sheared isomorphism make
    the Killing restrictions non-proportional: c1 and c2 become None and
    their residual expectations fail."""
    change, den = ctx.image_basis_change
    sheared_change = change.copy()
    sheared_change[0] = sheared_change[0] + sheared_change[1]
    iso = ctx.complement_isomorphism
    sheared_iso = iso.T.copy()
    sheared_iso[:, 0] = sheared_iso[:, 0] + sheared_iso[:, 1]
    monkeypatch.setattr(VerificationContext, "image_basis_change", property(lambda self: (sheared_change, den)))
    monkeypatch.setattr(
        VerificationContext, "complement_isomorphism", property(lambda self: SimpleNamespace(T=sheared_iso, den=iso.den))
    )
    out = check_metric_constants(ctx, FAST)
    assert out.witnesses["c1"] is None and out.witnesses["c2"] is None
    assert {"c1", "c1_residual_zero", "c2", "c2_residual_zero"} <= set(out.failed)
