"""Composite verifiers: each check assembles the lower-level operations into a
named, reportable certificate with explicit witnesses.

Every check compares computed witnesses against expected values frozen in the
check definition; a report passes only if every expectation matches.  Checks
are deterministic functions of the configuration, and a check whose declared
dependency did not pass is reported as an error (skipped), never as a pass.
``CHECKS`` lists every check after its dependencies, so the table order is the
dependency order: ``run_all`` closes a selection in one backward pass over it
and runs the checks in table order.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import PreconditionError
from .lie import (
    LieAlgebra,
    centralizer,
    derivation_algebra,
    killing_form,
    so_of_form,
    subalgebra_closure,
    transporter_into,
)
from .linalg import Exact, NormForm, Subspace, int_einsum, int_inverse, rank
from .octonion import SplitCayley, build_split_cayley
from .reps import (
    Intertwiner,
    InvariantForms,
    LieModule,
    adjoint_module,
    bracket_span,
    hom_space,
    invariant_bilinear_forms,
    is_irreducible,
    killing_orthocomplement,
    module_isomorphism,
    natural_module,
    restriction_module,
    submodule_generated,
    wedge_so_isomorphism,
    wedge_square,
)
from .report import normalize_witnesses


# Cap on the sample count, checked before any work starts.  On one x86-64
# Xeon core a maximality sample costs 0.017 ms in the batched generation, and
# at worst 1.4 ms (an exact generation and a closure), so MAX_SAMPLES bounds
# that loop at 0.2 s (14 s at worst) and its one-step systems (10,007 x 15 x 7
# int64, 8.4 MB) at a 25 MB peak.
MAX_SAMPLES = 10_000

# Coefficient bound of the G2 weight census.  The Weyl dimension strictly
# increases in each coefficient (Humphreys 1972, 24.3), and (2,0) and (0,2)
# have dimensions 27 and 77, so every weight outside a grid of bound >= 1 has
# dimension at least 27: any such bound gives the same verdicts below 27.
CENSUS_BOUND = 10


class SuiteConfig:
    """Everything a run depends on; equal configs give byte-identical reports."""

    __slots__ = ("seed", "samples", "checks")

    def __init__(self, seed: int = 0, samples: int = 100, checks: Optional[tuple[str, ...]] = None):
        if any(type(v) is not int for v in (seed, samples)):
            raise ValueError("seed and samples must be ints")
        if checks is not None and not (type(checks) is tuple and all(type(c) is str for c in checks)):
            raise ValueError("checks must be None or a tuple of check ids")
        if not (0 <= seed < 2**64):
            raise ValueError("seed must fit in 64 unsigned bits")
        if not (0 <= samples <= MAX_SAMPLES):
            raise ValueError(f"samples must be between 0 and {MAX_SAMPLES}")
        self.seed, self.samples, self.checks = seed, samples, checks


class CheckReport(NamedTuple):
    id: str
    title: str
    claim: str
    status: str  # pass | fail | error
    witnesses: dict
    elapsed_ms: int


def _stage(build: Callable) -> property:
    """A context property that builds its construction on first access and
    caches it under the builder's name."""
    key = build.__name__

    @functools.wraps(build)
    def get(self):
        if key not in self._cache:
            self._cache[key] = build(self)
        return self._cache[key]

    return property(get)


class VerificationContext:
    """Canonical constructions shared by the checks, each built once on first
    use and cached under its name.

    The *candidate* keywords seed the cayley and the derivations stage with
    another input (a mutant, a negative control, the algebra in another
    basis); every construction and every check reads the stages, so the whole
    run is built from that input.
    """

    def __init__(self, cayley_candidate: Optional[SplitCayley] = None, derivations_candidate: Optional[LieAlgebra] = None):
        self._cache: dict[str, object] = {}
        if cayley_candidate is not None:
            self._cache["cayley"] = cayley_candidate
        if derivations_candidate is not None:
            self._cache["derivations"] = derivations_candidate

    @_stage
    def cayley(self) -> SplitCayley:
        return build_split_cayley()

    @_stage
    def derivations(self) -> LieAlgebra:
        return derivation_algebra(self.cayley.algebra)

    @property
    def imaginary(self) -> tuple[Subspace, NormForm]:
        c = self.cayley
        return c.form.unit_facts(c.unit).imaginary

    @_stage
    def g2_census(self):
        """The Weyl dimension census of type G2 up to ``CENSUS_BOUND``."""
        from .weyl import cartan_type, dimension_census, root_system

        return dimension_census(root_system(cartan_type("G2")), CENSUS_BOUND)

    @_stage
    def natural_rep(self) -> LieModule:
        """The 7-dimensional module: the derivations on the imaginary subspace."""
        return restriction_module(natural_module(self.derivations), self.imaginary[0])

    @_stage
    def natural_forms(self) -> InvariantForms:
        """The invariant bilinear forms on the natural module."""
        return invariant_bilinear_forms(self.natural_rep)

    @_stage
    def so34(self) -> LieAlgebra:
        return so_of_form(self.imaginary[1])

    @_stage
    def embedding(self) -> Exact:
        """so(3,4)-coordinates of each derivation-algebra basis element, as
        the rows of one value E in lowest terms."""
        nat = self.natural_rep
        x = self.so34.realization_coordinates(nat.action.reshape(len(nat.A), -1))
        if x is None:
            raise ValueError("restricted derivation escaped so(3,4)")
        return Exact.held(*x)

    @_stage
    def g2_image(self) -> Subspace:
        return Subspace.from_vectors(self.so34.dim, self.embedding.ints)

    @_stage
    def so34_as_g2_module(self) -> LieModule:
        """so(3,4) under the embedded derivation algebra: with E the
        embedding coordinates, A[i] = sum_j E[i, j] ad(x_j)."""
        so34, der, e = self.so34, self.derivations, self.embedding
        a = int_einsum("ij,jlk->ikl", e, so34.bracket)
        # Lemma: ad o E is a module when E is a Lie map; its premise E [x_i, x_j] = ad(E x_i) E x_j is checked here on every basis pair
        if int_einsum("ijk,kr->ijr", der.bracket, e) != int_einsum("irp,jp->ijr", a, e):
            raise ValueError("the embedding is not a Lie map")
        return LieModule._raw(der, *a)

    @_stage
    def complement(self) -> Subspace:
        return killing_orthocomplement(self.so34, self.g2_image)

    @_stage
    def complement_module(self) -> LieModule:
        return restriction_module(self.so34_as_g2_module, self.complement)

    @_stage
    def complement_isomorphism(self) -> Optional[Intertwiner]:
        return module_isomorphism(self.complement_module, self.natural_rep)

    @_stage
    def image_basis_change(self) -> Exact:
        """Canonical basis of the embedded image expressed in derivation
        coordinates, as the rows of one value in lowest terms, so Killing
        forms can be compared in one basis."""
        # Lemma: the embedding rows E span the image (its basis b is their canonical basis), so they have
        # coordinates y, E = y b, and b = y^-1 E; y = x / d has the inverse d x^-1.
        x, d = self.g2_image.coordinates(self.embedding)
        return Exact.held(*int_einsum(",ij->ij", d, int_inverse(x)))


class CheckOutcome:
    """Accumulates witnesses and expectation results for one check."""

    def __init__(self):
        self.witnesses: dict = {}
        self.failed: list[str] = []

    def expect(self, name: str, actual, expected) -> bool:
        self.witnesses[name] = actual
        ok = actual == expected
        if not ok:
            self.failed.append(name)
        return ok

    def record(self, name: str, value):
        self.witnesses[name] = value

    @property
    def status(self) -> str:
        return "pass" if not self.failed else "fail"


def _first_word(mask: np.ndarray) -> Optional[str]:
    """The basis word e_i*e_j*... of the first True entry of mask in row-major
    (``itertools.product``) order, or None."""
    bad = np.argwhere(mask)
    return "*".join(f"e{int(i) + 1}" for i in bad[0]) if len(bad) else None


def _draws(rng: Random, count: int) -> list[int]:
    """count draws of ``rng.randint(-9, 9)``, value for value, as CPython draws them: getrandbits(5) until below 19, minus 9."""
    bits, out = rng.getrandbits, []
    for _ in range(count):
        while (r := bits(5)) >= 19:
            pass
        out.append(r - 9)
    return out


def check_cayley(ctx: VerificationContext, cfg: SuiteConfig) -> CheckOutcome:
    """Every identity equates two contractions, each at its own scale, of the
    structure constants m, the Gram matrix g and the form's ``UnitFacts`` of
    the unit e: e, N(e) and K = 2 e B(e, .) - N(e) I, so that conjugation
    x -> 2 B(x, e) / N(e) e - x is K / N(e)."""
    out = CheckOutcome()
    c = ctx.cayley
    m, g = c.algebra.structure, c.form.gram
    u, n, k, (sub, restricted), unit_inside = c.form.unit_facts(c.unit)

    out.expect("unit_norm", n.fractions(), Fraction(1))
    eye = Exact(np.eye(c.algebra.dim, dtype=np.int64), 1, 1)
    out.expect("unit_is_identity", int_einsum("i,ijk->jk", u, m) == eye and int_einsum("j,ijk->ik", u, m) == eye, True)

    # N(e_i e_j) = N(e_i) N(e_j)
    broken = int_einsum("ijl,ijl->ij", int_einsum("ijk,kl->ijl", m, g), m).differs(int_einsum("ii,jj->ij", g, g))
    out.record("composition_basis_pairs", 64)
    out.expect("composition_first_failure", _first_word(broken), None)

    # (e_i e_j) e_k != e_i (e_j e_k); the right side runs on M with axes 0, 1 swapped (faster), as [j, k, i]
    mt = Exact(np.ascontiguousarray(m.ints.transpose(1, 0, 2)), m.den, m.bound)
    right = int_einsum("jkm,mil->jkil", m, mt).transpose(2, 0, 1, 3)
    assoc = np.any(int_einsum("ijm,mkl->ijkl", m, m).differs(right), axis=3)
    # (aa)b = a(ab) and b(aa) = (ba)a on basis pairs are the associator's entries [a, a, b] and [b, a, a]
    r = np.arange(c.algebra.dim)
    out.expect("alternativity_basis_pairs", not (assoc[r, r].any() or assoc[:, r, r].any()), True)

    # conj(ab) = conj(b) conj(a) on basis pairs, both sides times N(e)^2.  conj^2 = 1
    # needs no check: K depends only on e and the form, and K / N(e) is a reflection.
    conj_ok = int_einsum(",kl,abl->abk", n, k, m) == int_einsum("pb,pak->abk", k, int_einsum("qa,pqk->pak", k, m))
    out.expect("conjugation_antiautomorphism", conj_ok, True)

    draws = _draws(Random(f"{cfg.seed}/cayley"), 2 * c.algebra.dim * cfg.samples)
    x, y = (Exact(z, 1, 9) for z in np.array(draws, dtype=np.int64).reshape(cfg.samples, 2, c.algebra.dim).transpose(1, 0, 2))
    xy = int_einsum("si,sj,ijk->sk", x, y, m)
    nx = int_einsum("si,ij,sj->s", x, g, x)
    # N(xy) = N(x) N(y); x(xy) = (xx)y; x conj(x) = N(x) e, both sides times N(e)
    sample_ok = (
        int_einsum("sk,kl,sl->s", xy, g, xy) == int_einsum("s,si,ij,sj->s", nx, y, g, y)
        and int_einsum("si,sk,ikl->sl", x, xy, m) == int_einsum("sk,sj,kjl->sl", int_einsum("si,sj,ijk->sk", x, x, m), y, m)
        and int_einsum("si,sj,ijk->sk", x, int_einsum("ij,sj->si", k, x), m) == int_einsum(",s,k->sk", n, nx, u)
    )
    out.record("sample_size", cfg.samples)
    out.expect("sample_identities", sample_ok, True)

    witness = _first_word(assoc)
    out.expect("nonassociativity_witness_found", witness is not None, True)
    out.record("nonassociativity_witness", witness)

    out.expect("norm_signature", c.form.signature, (4, 4, 0))
    out.expect("imaginary_dim", sub.dim, 7)
    out.expect("imag_signature", restricted.signature, (3, 4, 0))
    out.expect("unit_outside_imaginary", unit_inside, False)
    return out


def check_derivations(ctx: VerificationContext, cfg: SuiteConfig) -> CheckOutcome:
    out = CheckOutcome()
    der = ctx.derivations
    if not out.expect("derivation_dim", der.dim, 14):
        return out  # wrong algebra: nothing downstream is meaningful

    kf = killing_form(der)
    out.expect("killing_signature", kf.signature, (8, 6, 0))
    out.expect("killing_nondegenerate", kf.nondegenerate, True)

    adj = adjoint_module(der)
    out.expect("adjoint_commutant_dim", is_irreducible(adj).commutant_dim, 1)

    nat = ctx.natural_rep
    out.expect("natural_dim", nat.dim, 7)
    out.expect("natural_commutant_dim", is_irreducible(nat).commutant_dim, 1)

    # D e = 0 and D^T G + G D = 0 for every derivation D of the realization
    c = ctx.cayley
    ga = int_einsum("ik,dkj->dij", c.form.gram, der.realization).ints
    unit_images = int_einsum("dij,j->di", der.realization, c.form.unit_facts(c.unit).u).ints
    linear_ok = not np.any(unit_images) and not np.any(ga + ga.transpose(0, 2, 1))
    out.expect("derivations_kill_unit_and_are_skew", linear_ok, True)

    census = ctx.g2_census
    dims = dict(census.entries)
    out.expect("fundamental_dims", (dims[(1, 0)], dims[(0, 1)]), (7, 14))
    out.record("census_bound", CENSUS_BOUND)
    below = [(list(w), d) for w, d in census.entries if d < 14 and any(w)]
    out.expect("nontrivial_dims_below_14", below, [([1, 0], 7)])
    out.expect("census_monotone", census.monotone, True)
    return out


def check_invariant_form(ctx: VerificationContext, cfg: SuiteConfig) -> CheckOutcome:
    out = CheckOutcome()
    forms = ctx.natural_forms
    out.expect("form_space_dim", forms.dim, 1)
    out.expect("symmetric_dim", forms.symmetric.dim, 1)
    gen = forms.generator
    if gen is None:
        return out
    out.expect("signature", forms.signature, (3, 4, 0))
    out.expect("nondegenerate", rank(gen.G), 7)
    # uniqueness up to scale: a rescaled generator sits on the same line
    ratio = _proportionality(NormForm(*int_einsum(",ij->ij", 5, gen.gram)), gen)
    out.expect("scale_recovery", ratio, Fraction(5))
    return out


def check_wedge_iso(ctx: VerificationContext, cfg: SuiteConfig) -> CheckOutcome:
    out = CheckOutcome()
    iso = wedge_so_isomorphism(ctx.imaginary[1], ctx.so34)  # verifies so(E)-equivariance
    out.expect("ambient_equivariant", True, True)
    out.expect("phi_rank", iso.rank, 21)
    out.expect("bijective", iso.is_invertible, True)
    # the same matrix intertwines the restricted actions of the embedded image
    wedge_g2 = wedge_square(ctx.natural_rep)
    Intertwiner(source=wedge_g2, target=ctx.so34_as_g2_module, T=iso.T, den=iso.den)
    out.expect("subalgebra_equivariant", True, True)
    return out


def check_decomposition(ctx: VerificationContext, cfg: SuiteConfig) -> CheckOutcome:
    out = CheckOutcome()
    g2img = ctx.g2_image
    out.expect("image_dim", g2img.dim, 14)
    v = ctx.complement
    out.expect("complement_dim", v.dim, 7)
    vmod = ctx.complement_module  # construction proves invariance exactly
    out.expect("complement_invariant", vmod.dim == 7, True)

    iso = ctx.complement_isomorphism
    out.expect("iso_to_natural_exists", iso is not None, True)
    if iso is not None:
        out.expect("iso_invertible", iso.is_invertible, True)

    adj = adjoint_module(ctx.derivations)
    out.expect("hom_adjoint_to_complement_dim", len(hom_space(adj, vmod)), 0)

    s = g2img.sum(v)
    out.expect("sum_dim", s.dim, 21)
    out.expect("intersection_dim", g2img.dim + v.dim - s.dim, 0)  # dim(a ∩ b) = dim a + dim b - dim(a + b)

    vv = bracket_span(ctx.so34, v, v)
    out.expect("bracket_span_dim", vv.dim, 21)
    out.expect("bracket_span_inside_image", g2img.contains(vv), False)
    gv = bracket_span(ctx.so34, g2img, v)
    out.expect("image_bracket_complement_is_complement", gv == v, True)
    return out


def check_recognition(ctx: VerificationContext, cfg: SuiteConfig) -> CheckOutcome:
    from .weyl import simple_algebra_census

    out = CheckOutcome()
    rigid = transporter_into(ctx.so34, ctx.complement)
    out.expect("rigidity_kernel_dim", rigid.dim, 0)

    census = simple_algebra_census(21)
    out.expect("census_dim21", census, ["B3", "C3"])
    out.expect("census_dim21_rank3", [x for x in census if int(x[1:]) <= 3], ["B3", "C3"])

    six = [list(w) for w, d in ctx.g2_census.entries if d == 6]
    out.expect("six_dim_weights", six, [])

    forms = ctx.natural_forms
    pair = None if forms.signature is None else sorted(forms.signature[:2])
    out.expect("form_signature_pair", pair, [3, 4])
    return out


def check_maximality(ctx: VerificationContext, cfg: SuiteConfig) -> CheckOutcome:
    out = CheckOutcome()
    out.expect("centralizer_dim", centralizer(ctx.so34, ctx.g2_image).dim, 0)

    v = ctx.complement
    vmod = ctx.complement_module
    g2img = ctx.g2_image
    so34 = ctx.so34

    # Lemma: the subalgebra generated by the image and v holds every
    # ad(image)-iterate of v, so when those span V (vmod is ad(image) on V)
    # it holds image + V.  Premise, decided here: image + V = so(3,4).
    # Only samples where generation fails need the closure.
    spans = g2img.sum(v).dim == so34.dim

    def certify(coords_in_v: tuple[int, ...], generated: Subspace) -> tuple[bool, bool]:
        if spans and generated.dim == vmod.dim:
            return True, True
        # v's one den maps coordinates c to a multiple of sum c_i v_i
        ambient = int_einsum("i,ij->j", coords_in_v, v.canonical).ints
        seed = Subspace.from_vectors(so34.dim, np.vstack([g2img.basis, ambient]))
        closure = subalgebra_closure(so34, seed)
        return generated.dim == vmod.dim, closure.dim == so34.dim

    seeds = [tuple(int(i == k) for i in range(v.dim)) for k in range(v.dim)]
    rng = Random(f"{cfg.seed}/maximality")
    for _ in range(cfg.samples):
        while not any(coords := tuple(_draws(rng, v.dim))):
            pass
        seeds.append(coords)
    # every seed's generation in one call: a batched rank mod p, exact only where it falls short
    outcomes = [certify(c, g) for c, g in zip(seeds, submodule_generated(vmod, np.array(seeds, dtype=np.int64)))]
    gen_failures = sum(not g_ok for g_ok, _ in outcomes)
    closure_failures = sum(not c_ok for _, c_ok in outcomes)
    out.record("basis_vectors", v.dim)
    out.record("random_samples", cfg.samples)
    out.expect("generation_failures", gen_failures, 0)
    out.expect("closure_failures", closure_failures, 0)
    return out


def _proportionality(a: NormForm, b: NormForm) -> Optional[Fraction]:
    """The exact constant c with a = c * b, if it exists, read off b's first
    nonzero entry; None for a shape mismatch, a zero b or a pair that is not
    proportional."""
    nonzero = np.flatnonzero(b.G) if a.G.shape == b.G.shape else ()
    if not len(nonzero):
        return None
    c = Fraction(int(a.G.flat[nonzero[0]]), a.den) / Fraction(int(b.G.flat[nonzero[0]]), b.den)
    return c if a.gram == int_einsum(",ij->ij", Exact(np.array(c.numerator), c.denominator), b.gram) else None


def check_metric_constants(ctx: VerificationContext, cfg: SuiteConfig) -> CheckOutcome:
    out = CheckOutcome()
    so34 = ctx.so34
    der = ctx.derivations
    k_so = killing_form(so34)
    k_g2 = killing_form(der)
    out.expect("killing_signature_so34", k_so.signature, (12, 9, 0))
    out.expect("killing_signature_g2", k_g2.signature, (8, 6, 0))

    # both Gram matrices in the canonical (leading-1) basis of the image
    restricted = k_so.restricted(*ctx.g2_image.canonical)
    out.expect("restriction_to_image_nondegenerate", rank(restricted.G), 14)
    c1 = _proportionality(restricted, k_g2.restricted(*ctx.image_basis_change))
    out.expect("c1", c1, Fraction(5, 4))
    out.expect("c1_residual_zero", c1 is not None, True)

    restricted_v = k_so.restricted(*ctx.complement.canonical)
    out.expect("restriction_to_complement_nondegenerate", rank(restricted_v.G), 7)
    iso = ctx.complement_isomorphism
    if out.expect("complement_isomorphism_exists", iso is not None, True):
        # T^T gram T, with T the leading-1 isomorphism onto the natural module
        pullback = ctx.imaginary[1].restricted(iso.T.T, iso.den)
        c2 = _proportionality(restricted_v, pullback)
        out.expect("c2", c2, Fraction(-30))
        out.expect("c2_residual_zero", c2 is not None, True)

    adj = adjoint_module(so34)
    out.expect("adjoint_commutant_dim", is_irreducible(adj).commutant_dim, 1)
    return out


@dataclass(frozen=True)
class CheckDef:
    id: str
    title: str
    claim: str
    deps: tuple[str, ...]
    fn: Callable[[VerificationContext, SuiteConfig], CheckOutcome]


CHECKS: tuple[CheckDef, ...] = (
    CheckDef(
        id="cayley",
        title="split Cayley algebra",
        claim=(
            "The 8-dimensional split Cayley algebra over the rationals is a "
            "composition algebra (N(xy) = N(x)N(y)); its norm form has "
            "signature (4,4) and restricts to the unit's orthogonal "
            "complement with signature (3,4)."
        ),
        deps=(),
        fn=check_cayley,
    ),
    CheckDef(
        id="derivations",
        title="derivation algebra and its smallest modules",
        claim=(
            "The derivation algebra of the split Cayley algebra has dimension "
            "14, is simple, and acts irreducibly on the 7-dimensional "
            "imaginary subspace; by the Weyl dimension formula for type G2, "
            "7 and 14 are the only nontrivial irreducible dimensions below 15."
        ),
        deps=(),
        fn=check_derivations,
    ),
    CheckDef(
        id="invariant-form",
        title="uniqueness of the invariant scalar product",
        claim=(
            "The space of invariant bilinear forms on the 7-dimensional "
            "module is one-dimensional; the invariant scalar product is "
            "unique up to scale, with signature (3,4) up to overall sign."
        ),
        deps=("derivations",),
        fn=check_invariant_form,
    ),
    CheckDef(
        id="wedge-iso",
        title="wedge square versus skew endomorphisms",
        claim=(
            "u^w -> <.,u>w - <.,w>u is an equivariant bijection from the "
            "wedge square of the 7-dimensional space onto so(3,4), hence an "
            "isomorphism of modules for every subalgebra of so(3,4)."
        ),
        deps=(),
        fn=check_wedge_iso,
    ),
    CheckDef(
        id="decomposition",
        title="decomposition of so(3,4) under the embedded algebra",
        claim=(
            "so(3,4) splits as the embedded 14-dimensional image plus a "
            "7-dimensional invariant complement isomorphic to the natural "
            "module; the complement brackets back onto all of so(3,4) and "
            "not into the image, so the pair is not symmetric."
        ),
        deps=(),
        fn=check_decomposition,
    ),
    CheckDef(
        id="recognition",
        title="rigidity kernel and dimension census",
        claim=(
            "No nonzero element of so(3,4) brackets the whole algebra into "
            "the complement; B3 and C3 are the only simple complex types of "
            "dimension 21; type G2 has no 6-dimensional representation; the "
            "invariant form signature forces {3,4}."
        ),
        deps=("decomposition",),
        fn=check_recognition,
    ),
    CheckDef(
        id="maximality",
        title="maximality of the embedded subalgebra",
        claim=(
            "The embedded image has trivial centralizer in so(3,4), and "
            "together with any nonzero vector of the complement it generates "
            "the full algebra under brackets."
        ),
        deps=("decomposition",),
        fn=check_maximality,
    ),
    CheckDef(
        id="metric-constants",
        title="proportionality constants of the invariant metrics",
        claim=(
            "The Killing form of so(3,4) restricts to the embedded image as "
            "exactly 5/4 times the image's own Killing form, and to the "
            "complement as an exact rational multiple of the pulled-back "
            "invariant scalar product; the adjoint module of so(3,4) is "
            "irreducible."
        ),
        deps=("decomposition",),
        fn=check_metric_constants,
    ),
)

CHECK_IDS = tuple(c.id for c in CHECKS)


def run_all(cfg: SuiteConfig, ctx: Optional[VerificationContext] = None) -> list[CheckReport]:
    """Run the selected checks (with their dependencies) in table order, which
    is dependency order; the returned list is sorted by check id."""
    selected = set(CHECK_IDS if cfg.checks is None else cfg.checks)
    unknown = selected.difference(CHECK_IDS)
    if unknown:
        raise KeyError(f"unknown check ids: {', '.join(sorted(unknown))}")
    for cdef in reversed(CHECKS):  # every dep comes earlier in the table
        if cdef.id in selected:
            selected.update(cdef.deps)
    if ctx is None:
        ctx = VerificationContext()
    reports: dict[str, CheckReport] = {}
    for cdef in CHECKS:
        if cdef.id not in selected:
            continue
        bad_dep = next((d for d in cdef.deps if reports[d].status != "pass"), None)
        start = time.perf_counter()
        if bad_dep is not None:
            status, witnesses = "error", {"skipped": f"dependency '{bad_dep}' did not pass"}
        else:
            try:
                outcome = cdef.fn(ctx, cfg)
                status, witnesses = outcome.status, dict(outcome.witnesses)
                if outcome.failed:
                    witnesses["failed_expectations"] = list(outcome.failed)
            except PreconditionError as exc:
                status, witnesses = "error", {"precondition": str(exc)}
            except Exception as exc:  # noqa: BLE001 - reported, never swallowed
                status, witnesses = "error", {"exception": f"{type(exc).__name__}: {exc}"}
        elapsed = int(round((time.perf_counter() - start) * 1000))
        reports[cdef.id] = CheckReport(
            id=cdef.id,
            title=cdef.title,
            claim=cdef.claim,
            status=status,
            witnesses=normalize_witnesses(witnesses),
            elapsed_ms=elapsed,
        )
    return sorted(reports.values(), key=lambda r: r.id)
