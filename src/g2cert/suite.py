"""Composite verifiers: each check assembles the lower-level operations into a
named, reportable certificate with explicit witnesses.

Every check compares computed witnesses against expected values frozen in the
check definition; a report passes only if every expectation matches.  Checks
are deterministic functions of the configuration, and a check whose declared
dependency did not pass is reported as an error (skipped), never as a pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable, Optional

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
from .linalg import Matrix, Subspace, signature
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
    restricted_action,
    restriction_module,
    submodule_generated,
    wedge_so_isomorphism,
    wedge_square,
)
from .report import normalize_witnesses


@dataclass(frozen=True)
class SuiteConfig:
    """Everything a run depends on; equal configs give byte-identical reports."""

    seed: int = 0
    samples: int = 100
    census_bound: int = 10
    checks: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.samples < 0:
            raise ValueError("samples must be >= 0")
        if self.census_bound < 1:
            raise ValueError("census bound must be >= 1")


@dataclass
class CheckReport:
    id: str
    title: str
    claim: str
    status: str  # pass | fail | error
    witnesses: dict
    elapsed_ms: int


class VerificationContext:
    """Canonical constructions shared by the checks, built lazily and cached.

    The *candidate* keywords are injection points for negative-control
    fixtures; each one is consumed only by the check it targets, so a
    corrupted run flips exactly that check (dependents of a failed check are
    skipped by the runner, which is the dependency contract, not a flip).
    """

    def __init__(
        self,
        cayley_candidate: Optional[SplitCayley] = None,
        derivations_candidate: Optional[LieAlgebra] = None,
        wedge_gram: Optional[Matrix] = None,
    ):
        self._cayley_candidate = cayley_candidate
        self._derivations_candidate = derivations_candidate
        self._wedge_gram = wedge_gram
        self._cache: dict[str, object] = {}

    def _get(self, key: str, build: Callable):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    @property
    def cayley(self) -> SplitCayley:
        return self._get("cayley", build_split_cayley)

    @property
    def cayley_candidate(self) -> SplitCayley:
        return self._cayley_candidate if self._cayley_candidate is not None else self.cayley

    @property
    def derivations(self) -> LieAlgebra:
        return self._get("der", lambda: derivation_algebra(self.cayley.algebra))

    @property
    def derivations_candidate(self) -> LieAlgebra:
        if self._derivations_candidate is not None:
            return self._derivations_candidate
        return self.derivations

    @property
    def imaginary(self) -> tuple[Subspace, Matrix]:
        return self._get("imag", self.cayley.imaginary_subspace)

    @property
    def wedge_gram(self) -> Matrix:
        if self._wedge_gram is not None:
            return self._wedge_gram
        return self.imaginary[1]

    @property
    def has_gram_override(self) -> bool:
        return self._wedge_gram is not None

    def imaginary_module(self, der: LieAlgebra, name: str = "") -> LieModule:
        """A derivation algebra restricted to the imaginary subspace, in that
        subspace's coordinates."""
        return LieModule(der, restricted_action(der.realization, self.imaginary[0]), name=name)

    @property
    def natural_rep(self) -> LieModule:
        """The 7-dimensional module of the derivation algebra."""
        return self._get("natural", lambda: self.imaginary_module(self.derivations, "r34"))

    @property
    def natural_forms(self) -> InvariantForms:
        """The invariant bilinear forms on the natural module."""
        return self._get("forms", lambda: invariant_bilinear_forms(self.natural_rep))

    @property
    def so34(self) -> LieAlgebra:
        return self._get("so34", lambda: so_of_form(self.imaginary[1]))

    @property
    def embedding(self) -> tuple[tuple[Fraction, ...], ...]:
        """so(3,4)-coordinates of each derivation-algebra basis element."""

        def build():
            out = []
            for m in self.natural_rep.action:
                coords = self.so34.realization_coordinates(m)
                if coords is None:
                    raise ValueError("restricted derivation escaped so(3,4)")
                out.append(coords)
            return tuple(out)

        return self._get("embedding", build)

    @property
    def g2_image(self) -> Subspace:
        return self._get(
            "g2img", lambda: Subspace.from_vectors(self.so34.dim, self.embedding)
        )

    @property
    def so34_as_g2_module(self) -> LieModule:
        return self._get(
            "so34g2",
            lambda: LieModule(
                self.derivations,
                [self.so34.ad(v) for v in self.embedding],
                name="so34|g2",
            ),
        )

    @property
    def complement(self) -> Subspace:
        return self._get(
            "complement",
            lambda: killing_orthocomplement(self.so34, self.g2_image),
        )

    @property
    def complement_module(self) -> LieModule:
        return self._get(
            "vmod",
            lambda: restriction_module(self.so34_as_g2_module, self.complement, name="V"),
        )

    @property
    def complement_isomorphism(self) -> Optional[Intertwiner]:
        return self._get(
            "viso", lambda: module_isomorphism(self.complement_module, self.natural_rep)
        )

    @property
    def image_basis_change(self) -> Matrix:
        """Canonical basis of the embedded image expressed in derivation
        coordinates (rows), so Killing forms can be compared in one basis."""

        def build():
            emb = Matrix(self.embedding).transpose()  # 21 x 14
            rows = []
            for b in self.g2_image.basis:
                aug = Matrix([list(r) + [v] for r, v in zip(emb.rows, b)])
                from .linalg import rref

                rr = rref(aug)
                if emb.ncols in rr.pivots:
                    raise ValueError("image basis vector outside the embedding")
                x = [Fraction(0)] * emb.ncols
                for row, p in zip(rr.reduced.rows, rr.pivots):
                    x[p] = row[emb.ncols]
                rows.append(x)
            return Matrix(rows)

        return self._get("imgchange", build)


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


def _basis_name(i: int) -> str:
    return f"e{i + 1}"


def check_cayley(ctx: VerificationContext, cfg: SuiteConfig) -> CheckOutcome:
    out = CheckOutcome()
    c = ctx.cayley_candidate
    e = c.unit
    basis = [c.basis_element(i) for i in range(8)]

    out.expect("unit_norm", c.norm(e), Fraction(1))
    out.expect(
        "unit_is_identity",
        all(c.multiply(e, b) == b and c.multiply(b, e) == b for b in basis),
        True,
    )

    first_failure = None
    for i in range(8):
        for j in range(8):
            a, b = basis[i], basis[j]
            if c.norm(c.multiply(a, b)) != c.norm(a) * c.norm(b):
                first_failure = f"{_basis_name(i)}*{_basis_name(j)}"
                break
        if first_failure:
            break
    out.record("composition_basis_pairs", 64)
    out.expect("composition_first_failure", first_failure, None)

    alt_ok = all(
        c.multiply(c.multiply(a, a), b) == c.multiply(a, c.multiply(a, b))
        and c.multiply(b, c.multiply(a, a)) == c.multiply(c.multiply(b, a), a)
        for a in basis
        for b in basis
    )
    out.expect("alternativity_basis_pairs", alt_ok, True)

    conj_ok = all(
        c.conjugate(c.multiply(a, b)) == c.multiply(c.conjugate(b), c.conjugate(a))
        for a in basis
        for b in basis
    ) and all(c.conjugate(c.conjugate(a)) == a for a in basis)
    out.expect("conjugation_antiautomorphism", conj_ok, True)

    rng = Random(f"{cfg.seed}/cayley")
    sample_ok = True
    for _ in range(cfg.samples):
        a = c.random_element(rng)
        b = c.random_element(rng)
        ab = c.multiply(a, b)
        na = c.norm(a)
        if c.norm(ab) != na * c.norm(b):
            sample_ok = False
        if c.multiply(a, c.multiply(a, b)) != c.multiply(c.multiply(a, a), b):
            sample_ok = False
        if c.multiply(a, c.conjugate(a)) != tuple(na * x for x in e):
            sample_ok = False
    out.record("sample_size", cfg.samples)
    out.expect("sample_identities", sample_ok, True)

    witness = None
    for i in range(8):
        for j in range(8):
            for k in range(8):
                lhs = c.multiply(c.multiply(basis[i], basis[j]), basis[k])
                rhs = c.multiply(basis[i], c.multiply(basis[j], basis[k]))
                if lhs != rhs:
                    witness = f"{_basis_name(i)}*{_basis_name(j)}*{_basis_name(k)}"
                    break
            if witness:
                break
        if witness:
            break
    out.expect("nonassociativity_witness_found", witness is not None, True)
    out.record("nonassociativity_witness", witness)

    out.expect("norm_signature", signature(c.form.gram), (4, 4, 0))
    sub, restricted = c.imaginary_subspace()
    out.expect("imaginary_dim", sub.dim, 7)
    out.expect("imag_signature", signature(restricted), (3, 4, 0))
    out.expect("unit_outside_imaginary", sub.contains_vector(e), False)
    return out


def check_derivations(ctx: VerificationContext, cfg: SuiteConfig) -> CheckOutcome:
    from .weyl import cartan_type, dimension_census, root_system, weyl_dimension

    out = CheckOutcome()
    der = ctx.derivations_candidate
    if not out.expect("derivation_dim", der.dim, 14):
        return out  # wrong algebra: nothing downstream is meaningful

    kf = killing_form(der)
    out.expect("killing_signature", kf.signature, (8, 6, 0))
    out.expect("killing_nondegenerate", kf.nondegenerate, True)

    adj = adjoint_module(der)
    out.expect("adjoint_commutant_dim", is_irreducible(adj).commutant_dim, 1)

    nat = ctx.natural_rep if der is ctx.derivations else ctx.imaginary_module(der)
    out.expect("natural_dim", nat.dim, 7)
    out.expect("natural_commutant_dim", is_irreducible(nat).commutant_dim, 1)

    c = ctx.cayley
    linear_ok = all(
        all(x == 0 for x in d.apply(c.unit))
        and (d.transpose() * c.form.gram + c.form.gram * d).is_zero()
        for d in der.realization
    )
    out.expect("derivations_kill_unit_and_are_skew", linear_ok, True)

    rs = root_system(cartan_type("G2"))
    out.expect("fundamental_dims", (weyl_dimension(rs, (1, 0)), weyl_dimension(rs, (0, 1))), (7, 14))
    census = dimension_census(rs, cfg.census_bound)
    out.record("census_bound", cfg.census_bound)
    below = [
        (list(w), d)
        for w, d in census.entries
        if d < 14 and any(w)
    ]
    out.expect("nontrivial_dims_below_14", below, [([1, 0], 7)])
    out.expect("census_monotone", census.monotone, True)
    return out


def check_invariant_form(ctx: VerificationContext, cfg: SuiteConfig) -> CheckOutcome:
    out = CheckOutcome()
    forms = ctx.natural_forms
    out.expect("form_space_dim", forms.dim, 1)
    out.expect("symmetric_dim", len(forms.symmetric_basis), 1)
    if forms.generator is None:
        return out
    out.expect("signature", forms.signature, (3, 4, 0))
    out.expect("nondegenerate", forms.generator.rank(), 7)
    # uniqueness up to scale: a rescaled generator sits on the same line
    scaled = forms.generator.scale(5)
    ratio = _proportionality(scaled, forms.generator)
    out.expect("scale_recovery", ratio, Fraction(5))
    return out


def check_wedge_iso(ctx: VerificationContext, cfg: SuiteConfig) -> CheckOutcome:
    out = CheckOutcome()
    gram = ctx.wedge_gram
    so_alg = None if ctx.has_gram_override else ctx.so34
    iso = wedge_so_isomorphism(gram, so_alg=so_alg)  # verifies so(E)-equivariance
    out.expect("ambient_equivariant", True, True)
    out.expect("phi_rank", iso.matrix.rank(), 21)
    out.expect("bijective", iso.is_invertible, True)
    # the same matrix intertwines the restricted actions of the embedded image
    wedge_g2 = wedge_square(ctx.natural_rep)
    Intertwiner(source=wedge_g2, target=ctx.so34_as_g2_module, matrix=iso.matrix)
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

    out.expect("sum_dim", g2img.sum(v).dim, 21)
    out.expect("intersection_dim", g2img.intersection(v).dim, 0)

    vv = bracket_span(ctx.so34, v, v)
    out.expect("bracket_span_dim", vv.dim, 21)
    out.expect("bracket_span_inside_image", g2img.contains(vv), False)
    gv = bracket_span(ctx.so34, g2img, v)
    out.expect("image_bracket_complement_is_complement", gv == v, True)
    return out


def check_recognition(ctx: VerificationContext, cfg: SuiteConfig) -> CheckOutcome:
    from .weyl import cartan_type, dimension_census, root_system, simple_algebra_census

    out = CheckOutcome()
    rigid = transporter_into(ctx.so34, ctx.complement)
    out.expect("rigidity_kernel_dim", rigid.dim, 0)

    out.expect("census_dim21", simple_algebra_census(21, 8), ["B3", "C3"])
    out.expect("census_dim21_rank3", simple_algebra_census(21, 3), ["B3", "C3"])

    rs = root_system(cartan_type("G2"))
    census = dimension_census(rs, cfg.census_bound)
    six = [list(w) for w, d in census.entries if d == 6]
    out.expect("six_dim_weights", six, [])

    forms = ctx.natural_forms
    pair = None
    if forms.signature is not None:
        pair = sorted(forms.signature[:2])
    out.expect("form_signature_pair", pair, [3, 4])
    return out


def check_maximality(ctx: VerificationContext, cfg: SuiteConfig) -> CheckOutcome:
    out = CheckOutcome()
    out.expect("centralizer_dim", centralizer(ctx.so34, ctx.g2_image).dim, 0)

    v = ctx.complement
    vmod = ctx.complement_module
    g2img = ctx.g2_image
    so34 = ctx.so34

    def certify(coords_in_v: tuple) -> tuple[bool, bool]:
        generated = submodule_generated(vmod, coords_in_v)
        ambient = tuple(
            sum((c * b[j] for c, b in zip(coords_in_v, v.basis) if c), Fraction(0))
            for j in range(so34.dim)
        )
        seed = Subspace.from_vectors(so34.dim, list(g2img.basis) + [ambient])
        closure = subalgebra_closure(so34, seed)
        return generated.dim == vmod.dim, closure.dim == so34.dim

    def unit_vector(k: int) -> tuple:
        return tuple(Fraction(1 if i == k else 0) for i in range(v.dim))

    gen_failures = 0
    closure_failures = 0
    for k in range(v.dim):
        g_ok, c_ok = certify(unit_vector(k))
        gen_failures += not g_ok
        closure_failures += not c_ok
    out.record("basis_vectors", v.dim)

    rng = Random(f"{cfg.seed}/maximality")
    for _ in range(cfg.samples):
        while True:
            coords = tuple(Fraction(rng.randint(-9, 9)) for _ in range(v.dim))
            if any(coords):
                break
        g_ok, c_ok = certify(coords)
        gen_failures += not g_ok
        closure_failures += not c_ok
    out.record("random_samples", cfg.samples)
    out.expect("generation_failures", gen_failures, 0)
    out.expect("closure_failures", closure_failures, 0)
    return out


def _proportionality(a: Matrix, b: Matrix) -> Optional[Fraction]:
    """The exact constant c with a = c*b, if it exists."""
    if a.shape != b.shape:
        return None
    c = None
    for ra, rb in zip(a.rows, b.rows):
        for xa, xb in zip(ra, rb):
            if xb:
                c = xa / xb
                break
        if c is not None:
            break
    if c is None:
        return None
    return c if (a - b.scale(c)).is_zero() else None


def check_metric_constants(ctx: VerificationContext, cfg: SuiteConfig) -> CheckOutcome:
    out = CheckOutcome()
    so34 = ctx.so34
    der = ctx.derivations
    k_so = killing_form(so34)
    k_g2 = killing_form(der)
    out.expect("killing_signature_so34", k_so.signature, (12, 9, 0))
    out.expect("killing_signature_g2", k_g2.signature, (8, 6, 0))

    b_img = Matrix(ctx.g2_image.basis)
    restricted = b_img * k_so.gram * b_img.transpose()
    out.expect("restriction_to_image_nondegenerate", restricted.rank(), 14)
    change = ctx.image_basis_change
    k_g2_in_image_basis = change * k_g2.gram * change.transpose()
    c1 = _proportionality(restricted, k_g2_in_image_basis)
    out.expect("c1", c1, Fraction(5, 4))
    out.expect("c1_residual_zero", c1 is not None, True)

    b_v = Matrix(ctx.complement.basis)
    restricted_v = b_v * k_so.gram * b_v.transpose()
    out.expect("restriction_to_complement_nondegenerate", restricted_v.rank(), 7)
    iso = ctx.complement_isomorphism
    if out.expect("complement_isomorphism_exists", iso is not None, True):
        pullback = iso.matrix.transpose() * ctx.imaginary[1] * iso.matrix
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
_BY_ID = {c.id: c for c in CHECKS}


def _closure_with_deps(ids: tuple[str, ...]) -> set[str]:
    seen: set[str] = set()
    stack = list(ids)
    while stack:
        cid = stack.pop()
        if cid in seen:
            continue
        seen.add(cid)
        stack.extend(_BY_ID[cid].deps)
    return seen


def run_all(cfg: SuiteConfig, ctx: Optional[VerificationContext] = None) -> list[CheckReport]:
    """Run the selected checks (with their dependencies) in dependency order;
    the returned list is sorted by check id."""
    if cfg.checks is not None:
        unknown = [c for c in cfg.checks if c not in _BY_ID]
        if unknown:
            raise KeyError(f"unknown check ids: {', '.join(sorted(unknown))}")
        selected = _closure_with_deps(tuple(cfg.checks))
    else:
        selected = set(CHECK_IDS)
    if ctx is None:
        ctx = VerificationContext()
    reports: dict[str, CheckReport] = {}
    for cdef in CHECKS:
        if cdef.id not in selected:
            continue
        bad_dep = next(
            (d for d in cdef.deps if d not in reports or reports[d].status != "pass"),
            None,
        )
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
