"""Scenario runner: JSON in, verification suites out, exit codes for CI.

A scenario file pins a state, a coupling family, and a weight kernel;
the runner executes the requested verification suites in dependency
order and writes a machine-readable report next to the input.  Exit
code 0 means every suite passed, 1 means at least one suite recorded a
failure, 2 means the input could not be used at all or the output could
not be written.

Scenario schema (JSON object):

    name          string
    dim           int, 2 <= dim <= 32
    state         "tracial"
                  | {"gibbs": {"hamiltonian": MATRIX, "beta": number}}
                  | {"density": MATRIX}
    coefficients  [MATRIX, ...]
                  | {"random": {"kind": "hermitian"|"ginibre"|"balanced_pair",
                                "count": int >= 1, "seed": int >= 0}}
    kernel        "f0" | {"cauchy": {"scale": s}} | {"signed_f0": {"alpha": a}},
                  1/4 < s <= (largest double / pi)^{1/2}, about 7.56e153
    suites        optional subset of SUITES (default: all)
    seed          optional int >= 0 (sampling seed; --seed wins)
    negative_control  optional bool: the scenario is expected to break
                      Markovianity, and the semigroup suite passes only
                      if violations are observed

    MATRIX        row-major nested lists of [re, im] pairs

A file nested deeper than MAX_JSON_DEPTH = 32 arrays and objects is not
valid JSON here, whoever calls the runner; the schema itself nests 6 deep
(state.gibbs.hamiltonian).

Every gate reads its bar from the pinned table TOLERANCES; no scenario
key moves a bar or the dim ceiling.

Scenarios are independent and reports deterministic for a fixed
scenario + seed, so a corpus can be farmed out or diffed freely.
"""

import argparse
import contextlib
import ctypes
import json
import operator
import os
import re
import sys
import time
from dataclasses import dataclass, replace
from functools import cache, cached_property

import numpy as np

from . import __version__
from .dirichlet import (
    crosscheck_engines,
    dirichlet_operator,
    split_self_adjoint,
    verify_boundary_shift,
    verify_dirichlet,
)
from .errors import (
    NotAdmissible,
    NotFaithful,
    NotAState,
    QuadratureNotConverged,
    SchemaError,
    finite_number,
)
from .kernels import CauchyKernel, F0Kernel, kernel_from_descriptor
from .linalg import (
    dagger,
    ginibre,
    ginibre_from_normals,
    hermitian_from_ginibre,
    hs_inner,
    hs_norm,
    min_eigenvalue,
    random_hermitian,
)
from .lindblad import (
    check_balance_condition,
    drift_criterion,
    general_f_embedding_residual,
    induced_adjoint_shifted,
    induced_operator,
    induced_operator_shifted,
    kms_symmetry_residual,
    lindblad_superop,
    selfadjoint_component_decomposition,
    spec_from_couplings,
    y_reconstruction_residual,
)
from .modular import apply_I0, modular_map, sigma, smear, smear_quadrature, superop_sigma, T_MAP
from .semigroup import INTERVAL_TOL, markovianity_report, spectral_gap
from .standard_form import (
    SuperOperator,
    build_standard_form,
    gibbs_state,
    jordan_decompose,
    project_order_interval,
    symmetric_embed,
    symmetric_unembed,
    tracial_state,
)

SUITES = (
    "standard_form",
    "modular",
    "dirichlet",
    "lindblad",
    "semigroup",
    "proof_regression",
)

KINDS = ("hermitian", "ginibre", "balanced_pair")

MAX_DIM = 32

#: deepest nesting of arrays and objects a scenario file may have
MAX_JSON_DEPTH = 32

#: the gate bars a tolerance key names, pinned
TOLERANCES = {
    "algebraic": 1e-10,
    "integral": 1e-8,
    "cross_engine": 1e-7,
    "decomposition": 1e-7,
    "psd": 1e-9,
}


# ---------------------------------------------------------------------------
# JSON codecs and schema validation
# ---------------------------------------------------------------------------

def matrix_to_json(A):
    """Row-major nested lists of [re, im] pairs."""
    A = np.asarray(A, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in A]


def matrix_from_json(obj, path, n):
    """Decode a MATRIX; SchemaError names the offending entry, e.g. ``m[0][1][0]``.

    ``json.load`` parses ``NaN`` and ``Infinity``, so every number is also
    checked to be finite.
    """
    if not isinstance(obj, list) or not obj:
        raise SchemaError(f"{path}: expected a nonempty list of rows")
    if len(obj) != n:
        raise SchemaError(f"{path}: expected {n} rows, got {len(obj)}")
    out = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(f"{path}[{i}]: expected a row of {n} entries")
        for j, entry in enumerate(row):
            if not isinstance(entry, list) or len(entry) != 2:
                raise SchemaError(f"{path}[{i}][{j}]: expected an [re, im] number pair")
            parts = (finite_number(v, f"{path}[{i}][{j}][{c}]") for c, v in enumerate(entry))
            out[i, j] = complex(*parts)
    return out


def _plain(value):
    """Recursively convert report values to JSON-encodable plain types."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return matrix_to_json(value)
    return value


def _integer(value, path, least):
    """``value`` if an int (not a bool) of at least ``least``; else SchemaError at ``path``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise SchemaError(f"{path}: expected an integer >= {least}")
    return value


def _suite_order(names, path):
    """Suite names (the ``suites`` key or ``--suites``) checked and put in dependency order."""
    if not isinstance(names, list) or not names:
        raise SchemaError(f"{path}: expected a nonempty list")
    for s in names:
        if s not in SUITES:
            raise SchemaError(f"{path}: unknown suite {s!r} (known: {', '.join(SUITES)})")
    return tuple(s for s in SUITES if s in names)


@dataclass(frozen=True, eq=False)
class Scenario:
    """A decoded scenario: the values the run uses, and the JSON object it echoes."""

    sf: object
    xs: tuple
    kernel: object
    suites: tuple
    seed: int
    negative_control: bool
    raw: dict


def _decode_state(state, dim):
    if state == "tracial":
        return tracial_state(dim)
    if isinstance(state, dict) and set(state) == {"gibbs"}:
        g = state["gibbs"]
        if not isinstance(g, dict) or set(g) - {"hamiltonian", "beta"}:
            raise SchemaError("state.gibbs: expected {hamiltonian, beta}")
        h = matrix_from_json(g.get("hamiltonian"), "state.gibbs.hamiltonian", dim)
        beta = finite_number(g.get("beta", 1.0), "state.gibbs.beta")
        if beta <= 0:
            raise SchemaError("state.gibbs.beta: expected a positive number")
        return gibbs_state(h, beta)
    if isinstance(state, dict) and set(state) == {"density"}:
        return build_standard_form(matrix_from_json(state["density"], "state.density", dim))
    raise SchemaError('state: expected "tracial", {"gibbs": ...}, or {"density": ...}')


def _decode_coefficients(coeffs, dim):
    """The couplings: decoded matrices, or a random family drawn from its own seed."""
    if isinstance(coeffs, list) and coeffs:
        return tuple(matrix_from_json(m, f"coefficients[{i}]", dim) for i, m in enumerate(coeffs))
    if not (isinstance(coeffs, dict) and set(coeffs) == {"random"}):
        raise SchemaError('coefficients: expected a list of matrices or {"random": {...}}')
    r = coeffs["random"]
    if not isinstance(r, dict) or set(r) - {"kind", "count", "seed"}:
        raise SchemaError("coefficients.random: expected {kind, count, seed}")
    kind = r.get("kind")
    if kind not in KINDS:
        raise SchemaError("coefficients.random.kind: expected hermitian | ginibre | balanced_pair")
    count = _integer(r.get("count", 1), "coefficients.random.count", 1)
    rng = np.random.default_rng(_integer(r.get("seed", 0), "coefficients.random.seed", 0))
    out = []
    for _ in range(count):
        if kind == "hermitian":
            out.append(random_hermitian(dim, rng))
        elif kind == "ginibre":
            out.append(ginibre(dim, rng))
        else:  # balanced_pair
            g = ginibre(dim, rng)
            out.extend([g, dagger(g)])
    return tuple(out)


def _decode_kernel(desc, negative_control):
    """The kernel, certified once unless the scenario is a negative control."""
    try:
        kernel = kernel_from_descriptor(desc)
    except NotAdmissible as exc:
        raise SchemaError(f"kernel: {exc}") from exc
    if not negative_control:
        cert = kernel.certificate()
        if not cert.granted:
            hint = "" if cert.positivity_ok else "; signed weights require negative_control: true"
            raise SchemaError(f"kernel: weight {kernel.name!r} is not admissible: "
                              f"{', '.join(cert.failures)} failed{hint}")
    return kernel


def parse_scenario(obj):
    """Decode a scenario JSON object once, into a Scenario; SchemaError points at offending keys.

    A state that is not one (or not faithful) raises NotAState (NotFaithful).
    """
    if not isinstance(obj, dict):
        raise SchemaError("scenario: expected a JSON object")
    for key in obj:
        if key not in ("name", "dim", "state", "coefficients", "kernel", "suites", "seed",
                       "negative_control"):
            raise SchemaError(f"{key}: unknown scenario key")
    name = obj.get("name")
    if not isinstance(name, str) or not name:
        raise SchemaError("name: expected a nonempty string")
    dim = _integer(obj.get("dim"), "dim", 2)
    if dim > MAX_DIM:
        raise SchemaError(f"dim: {dim} exceeds the maximum {MAX_DIM}")
    sf = _decode_state(obj.get("state"), dim)
    xs = _decode_coefficients(obj.get("coefficients"), dim)
    negative_control = obj.get("negative_control", False)
    if not isinstance(negative_control, bool):
        raise SchemaError("negative_control: expected a boolean")
    return Scenario(
        sf=sf,
        xs=xs,
        kernel=_decode_kernel(obj.get("kernel", "f0"), negative_control),
        suites=_suite_order(obj.get("suites", list(SUITES)), "suites"),
        seed=_integer(obj.get("seed", 0), "seed", 0),
        negative_control=negative_control,
        raw=obj,
    )


class ScenarioContext:
    """The operators and residuals the suites of one scenario share, each built once.

    ``parts``, the Dirichlet operators H_k of the couplings, is built up
    front: a coupling whose operator overflows is a ``SchemaError``,
    whatever the suites.  Every other member is built on first use.
    The kernel was certified once by :func:`parse_scenario` (or is a
    negative control), so no build here certifies it again.
    ``boundary_shift`` caches a failed oracle too, and raises that one
    failure on every use.  Suites never mutate a member.
    """

    def __init__(self, scenario, seed):
        self.sf, self.xs, self.kernel = scenario.sf, scenario.xs, scenario.kernel
        self.seed = seed
        self.negative_control = scenario.negative_control
        with np.errstate(over="ignore", invalid="ignore"):
            self.parts = [dirichlet_operator(self.sf, x, self.kernel, check_kernel=False)
                          for x in self.xs]
        for i, Hk in enumerate(self.parts):
            if not np.isfinite(Hk.mat).all():
                raise SchemaError(f"coefficients[{i}]: too large, its Dirichlet operator overflows")

    @cached_property
    def H(self):
        return sum(self.parts[1:], self.parts[0])

    @cached_property
    def spec(self):
        return spec_from_couplings(self.sf, self.xs)

    @cached_property
    def generator(self):
        return lindblad_superop(self.spec)

    @cached_property
    def induced(self):
        return induced_operator(self.sf, self.generator)

    @cached_property
    def induced_shifted(self):
        return induced_operator_shifted(self.sf, self.spec)

    @cached_property
    def induced_adjoint(self):
        return induced_adjoint_shifted(self.sf, self.spec)

    @cached_property
    def balance(self):
        return check_balance_condition(self.sf, self.xs)

    @cached_property
    def criterion(self):
        return drift_criterion(self.sf, self.spec)

    @cached_property
    def assembly_gap(self):
        return (self.induced - self.induced_shifted).hs_norm()

    @cached_property
    def criterion_gap(self):
        """The drift criterion against H - H* of the flow-shifted assemblies: zero to rounding."""
        return (self.criterion - (self.induced_shifted - self.induced_adjoint)).hs_norm()

    @cached_property
    def decomposition(self):
        """|| induced H - sum_k H_k ||_HS, the H_k the f0 Dirichlet operators of the couplings.

        Pinned to f0: only there does the plain generator shape match the
        Dirichlet sum (the boundary combination degenerates to a delta).
        """
        if type(self.kernel) is F0Kernel:
            return (self.induced - self.H).hs_norm()
        f0_parts = [dirichlet_operator(self.sf, x, F0Kernel()) for x in self.xs]
        return (self.induced - sum(f0_parts[1:], f0_parts[0])).hs_norm()

    @cached_property
    def _boundary_shift_outcome(self):
        try:
            value = verify_boundary_shift(self.sf, self.xs, self.kernel)
        except QuadratureNotConverged as exc:
            return None, exc
        return value, None

    @property
    def boundary_shift(self):
        """The boundary-shift residual; a failed oracle raises the one cached failure."""
        value, failure = self._boundary_shift_outcome
        if failure is not None:
            raise failure
        return value

    @cached_property
    def general_weight_embedding(self):
        return max(
            general_f_embedding_residual(self.sf, x, self.kernel, Hk)
            for x, Hk in zip(self.xs, self.parts)
        )


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

_OPS = {"<": operator.lt, ">": operator.gt, "==": operator.eq}


def _holds(value, op, bound):
    return bool(_OPS[op](value, bound))


class _Gates:
    """One suite's residuals and the gates that decide it.

    ``gate`` records a checked residual with its bound, a key of
    ``TOLERANCES`` or a fixed number; ``info`` records a residual no
    gate reads.  The suite passes when every gate holds.  Under a
    negative control the Markovianity gates (``markov=True``) are
    informational, except in the suite that judges the control: it
    needs at least one to fail.
    """

    def __init__(self, ctx, judges_control=False):
        self.markov_info = ctx.negative_control and not judges_control
        self.expect_violation = ctx.negative_control and judges_control
        self.residuals, self.gates, self.markov = {}, {}, []

    def info(self, key, value):
        self.residuals[key] = value

    def gate(self, key, value, op, bound, markov=False):
        if markov and self.markov_info:
            return self.info(key, value)
        self.residuals[key] = value
        self.gates[key] = (op, TOLERANCES[bound] if isinstance(bound, str) else bound)
        if markov:
            self.markov.append(key)

    def report(self, notes, violations=None):
        holds = {k: _holds(self.residuals[k], *gate) for k, gate in self.gates.items()}
        structural = all(ok for k, ok in holds.items() if k not in self.markov)
        markovian = all(holds[k] for k in self.markov)
        passed = structural and markovian != self.expect_violation
        out = {"passed": passed, "residuals": self.residuals, "gates": self.gates, "notes": notes}
        if violations is not None:
            out["violations"] = violations
        return out


def _gate_oracle(rec, violations, key, residual, bound):
    """Gate ``residual()`` below ``bound``; an unconverged quadrature is inf and a violation."""
    try:
        value = residual()
    except QuadratureNotConverged as exc:
        violations.append({"kind": "quadrature_not_converged", "detail": str(exc)})
        value = float("inf")
    rec.gate(key, value, "<", bound)


def _hs_norms(X):
    """Hilbert-Schmidt norm of each member of a stack (k, n, n)."""
    return np.linalg.norm(X, axis=(-2, -1))


def _suite_standard_form(ctx):
    sf = ctx.sf
    rng = np.random.default_rng(ctx.seed)
    rec = _Gates(ctx)
    rec.gate("state_min_eigenvalue", float(sf.eigenvalues[-1]), ">", 0.0)
    rec.gate("xi0_normalization", abs(hs_norm(sf.xi0) - 1.0), "<", "algebraic")
    rec.gate("j_fixes_xi0", hs_norm(dagger(sf.xi0) - sf.xi0), "<", "algebraic")
    rec.gate("flow_fixes_xi0", hs_norm(sigma(sf, sf.xi0, -1.0j) - sf.xi0), "<", "algebraic")
    n = sf.dim
    G = ginibre(n, rng, (20, 2))
    a, h = G[:, 0], hermitian_from_ginibre(G[:, 1])
    worst_embed = float(_hs_norms(symmetric_unembed(sf, symmetric_embed(sf, a)) - a).max())
    plus, minus = jordan_decompose(sf, h)
    worst_jordan = float(max(
        _hs_norms((plus - minus) - h).max(), np.abs(hs_inner(plus, minus)).max()
    ))
    ps = project_order_interval(sf, h)
    worst_proj = float(_hs_norms(project_order_interval(sf, ps) - ps).max())
    worst_member = max(0.0, -float(min_eigenvalue(np.concatenate([ps, sf.xi0 - ps])).min()))
    rec.gate("embedding_roundtrip", worst_embed, "<", "integral")
    rec.gate("jordan_split", worst_jordan, "<", "algebraic")
    rec.gate("interval_projection_idempotent", worst_proj, "<", "integral")
    rec.gate("interval_projection_membership", worst_member, "<", "integral")
    return rec.report([])


def _suite_modular(ctx):
    sf = ctx.sf
    rng = np.random.default_rng(ctx.seed)
    rec = _Gates(ctx)
    # per sample a Ginibre matrix, then s and z with real parts N(0, 1)
    # and imaginary parts 0.1 N(0, 1): one block of the seeded stream
    n = sf.dim
    W = rng.standard_normal((10, 2 * n * n + 4))
    a = ginibre_from_normals(W[:, : 2 * n * n].reshape(10, 2, n, n))
    s_t = W[:, -4] + 0.1j * W[:, -3]
    z_t = W[:, -2] + 0.1j * W[:, -1]
    norms = _hs_norms(a)
    lhs = sigma(sf, sigma(sf, a, s_t), z_t)
    worst_group = float((_hs_norms(lhs - sigma(sf, a, s_t + z_t)) / norms).max())
    star = sigma(sf, dagger(a), z_t.conj()) - dagger(sigma(sf, a, z_t))
    worst_star = float((_hs_norms(star) / norms).max())
    inverse = modular_map(sf, apply_I0(sf, a), T_MAP) - a
    worst_inverse = float((_hs_norms(inverse) / norms).max())
    worst_j = float(max(
        (superop_sigma(sf, SuperOperator.commutant_j(x), z)
         - SuperOperator.commutant_j(y)).hs_norm() / norm
        for x, z, y, norm in zip(a, z_t, sigma(sf, a, z_t.conj()), norms)
    ))
    rec.gate("flow_group_law", worst_group, "<", "algebraic")
    rec.gate("flow_star_compatibility", worst_star, "<", "algebraic")
    rec.gate("smear_inverts_T", worst_inverse, "<", "algebraic")
    rec.gate("flow_commutant_compatibility", worst_j, "<", "algebraic")

    def smear_gap():
        X = np.stack(ctx.xs)  # one stack: each route tabulates its transform once
        exact = smear(sf, X, ctx.kernel)
        gaps = _hs_norms(exact - smear_quadrature(sf, X, ctx.kernel))
        return float((gaps / np.maximum(_hs_norms(exact), 1e-300)).max())

    violations = []
    _gate_oracle(rec, violations, "smear_exact_vs_quadrature", smear_gap, "integral")
    return rec.report([], violations)


def _suite_dirichlet(ctx):
    sf, xs, kernel = ctx.sf, ctx.xs, ctx.kernel
    notes = []
    violations = []
    rec = _Gates(ctx)
    for i, Hk in enumerate(ctx.parts):
        rep = verify_dirichlet(sf, Hk, ctx.seed + i)
        for field in ("h_xi0_residual", "j_real_residual", "conj_form_residual",
                      "selfadjoint_defect"):
            rec.gate(f"x{i}_{field}", getattr(rep, field), "<", "integral")
        rec.gate(f"x{i}_cone_form_residual", rep.cone_form_residual, "<", "integral", markov=True)
        rec.gate(f"x{i}_psd_min_eig", rep.psd_min_eig, ">", -TOLERANCES["psd"], markov=True)
        rec.gate(f"x{i}_negativity_violations", rep.negativity_violations, "==", 0, markov=True)
        if rep.negativity_violations:
            violations.append(
                {"coefficient": i, "kind": "form_negativity", "count": rep.negativity_violations}
            )
    worst_split = 0.0
    for x, Hk in zip(xs, ctx.parts):
        x1, x2 = split_self_adjoint(x)
        H1 = dirichlet_operator(sf, x1, kernel, check_kernel=False)
        H2 = dirichlet_operator(sf, x2, kernel, check_kernel=False)
        worst_split = max(worst_split, (Hk - 0.5 * (H1 + H2)).hs_norm())
    rec.gate("split_identity", worst_split, "<", "integral")
    if sf.dim <= 4:
        _gate_oracle(rec, violations, "engine_crosscheck",
                     lambda: crosscheck_engines(sf, ctx.parts, xs, kernel), "cross_engine")
    else:
        notes.append("engine cross-check skipped (dim > 4: quadrature engine is priced out)")
    if isinstance(kernel, CauchyKernel):
        _gate_oracle(rec, violations, "boundary_shift_identity", lambda: ctx.boundary_shift,
                     "integral")
    if ctx.negative_control:
        # the signed weight must keep the structure and is allowed (not
        # required, at this suite's level) to break Markovianity
        notes.append("negative control: Markovianity fields are informational here")
    return rec.report(notes, violations)


def _suite_lindblad(ctx):
    sf, xs = ctx.sf, ctx.xs
    notes = []
    rec = _Gates(ctx)
    balance = ctx.balance
    rec.info("balance_condition", balance.condition_residual)
    rec.info("balance_lemma", balance.lemma_residual)
    rec.gate("balance_equivalent", balance.equivalent, "==", True)
    # ||H - H*|| and the drift criterion, and the KMS symmetry of L, must vanish together
    integral = TOLERANCES["integral"]
    operator_defect = ctx.induced.selfadjoint_defect()
    criterion = ctx.criterion.hs_norm()
    rec.info("selfadjointness_criterion", criterion)
    rec.gate("selfadjointness_consistent",
             (operator_defect < integral) == (criterion < integral), "==", True)
    rec.gate("criterion_matches_adjoint_gap", ctx.criterion_gap, "<", "algebraic")
    rec.gate("assembly_conjugation_vs_shifted", ctx.assembly_gap, "<", "algebraic")
    kms = kms_symmetry_residual(sf, ctx.generator)
    rec.info("kms_symmetry", kms)
    rec.gate("kms_consistent", (kms < integral) == (operator_defect < integral), "==", True)
    if balance.balanced:
        rec.gate("selfadjointness_operator", operator_defect, "<", "integral")
        rec.gate("dirichlet_decomposition", ctx.decomposition, "<", "decomposition")
        _, comp_res = selfadjoint_component_decomposition(sf, xs, ctx.generator, balance)
        rec.gate("component_decomposition", comp_res, "<", "decomposition")
        rec.gate("y_reconstruction", y_reconstruction_residual(sf, xs), "<", "integral")
    else:
        rec.info("selfadjointness_operator", operator_defect)
        notes.append(
            "decomposition identities skipped: BalanceViolated "
            f"(condition residual {balance.condition_residual:.3e})"
        )
    if isinstance(ctx.kernel, CauchyKernel):
        rec.gate("general_weight_embedding", ctx.general_weight_embedding, "<", "decomposition")
    return rec.report(notes)


#: the sampled Markovianity probes; under a negative control at least one must count
_VIOLATION_COUNTS = (
    "interval_violations", "extreme_violations", "positivity_violations", "form_violations"
)


def _suite_semigroup(ctx):
    notes = []
    rec = _Gates(ctx, judges_control=True)
    H = ctx.H
    rep = markovianity_report(ctx.sf, H, ctx.seed)
    # every check below reads T_t from H's factors: bound its error first, at t = 1.2
    rec.gate("semigroup_factor_error", rep.certificate.bounds(1.2)[0], "<", 1e-9)
    for field in _VIOLATION_COUNTS:
        rec.gate(field, getattr(rep, field), "==", 0, markov=True)
    for field in ("worst_interval_margin", "worst_positivity_margin", "worst_form_gap"):
        rec.info(field, getattr(rep, field))
    # T_t fixing xi0 and commuting with J is structure a signed weight keeps:
    # a control that loses either fails like any other scenario
    rec.gate("xi0_invariance", rep.xi0_invariance_max, "<", INTERVAL_TOL)
    rec.gate("j_real", rep.j_real_max, "<", INTERVAL_TOL)
    violations = [{"kind": w[0], "t": w[1], "sample": w[2], "margin": w[3]} for w in rep.witnesses]
    gap, kernel_dim = spectral_gap(H)
    rec.info("spectral_gap", gap)
    rec.info("kernel_dimension", kernel_dim)
    if ctx.negative_control:
        if not any(getattr(rep, field) for field in _VIOLATION_COUNTS):
            notes.append("negative control FAILED to produce any violation")
        else:
            notes.append("negative control produced violations as designed")
    return rec.report(notes, violations)


def _suite_proof_regression(ctx):
    """The identity chain behind the theorems, as pure regressions.

    Only ``adjoint_assembly_vs_dagger`` is new; the rest is shared with lindblad and dirichlet.
    """
    notes = []
    violations = []
    rec = _Gates(ctx)
    rec.gate("conjugation_vs_shifted", ctx.assembly_gap, "<", "algebraic")
    adjoint_gap = ctx.induced_adjoint - ctx.induced_shifted.adjoint()
    rec.gate("adjoint_assembly_vs_dagger", adjoint_gap.hs_norm(), "<", "algebraic")
    rec.gate("criterion_matches_adjoint_gap", ctx.criterion_gap, "<", "algebraic")
    if ctx.balance.balanced:
        rec.gate("dirichlet_decomposition", ctx.decomposition, "<", "decomposition")
    else:
        notes.append("decomposition regression skipped (family unbalanced)")
    if isinstance(ctx.kernel, CauchyKernel):
        _gate_oracle(rec, violations, "boundary_shift_identity", lambda: ctx.boundary_shift,
                     "integral")
        rec.gate("general_weight_embedding", ctx.general_weight_embedding, "<", "decomposition")
    return rec.report(notes, violations)


_SUITE_RUNNERS = {
    "standard_form": _suite_standard_form,
    "modular": _suite_modular,
    "dirichlet": _suite_dirichlet,
    "lindblad": _suite_lindblad,
    "semigroup": _suite_semigroup,
    "proof_regression": _suite_proof_regression,
}


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------

def run_scenario_object(scenario, seed=None):
    """Execute a parsed scenario; returns the report dict."""
    actual_seed = scenario.seed if seed is None else _integer(seed, "--seed", 0)
    started = time.perf_counter()
    ctx = ScenarioContext(scenario, actual_seed)
    suites = {name: _SUITE_RUNNERS[name](ctx) for name in scenario.suites}
    report = {
        "scenario": scenario.raw,
        "version": __version__,
        "seed": actual_seed,
        "wall_clock_s": time.perf_counter() - started,
        "suites": suites,
        "passed": all(s["passed"] for s in suites.values()),
    }
    return _plain(report)


#: mallopt(3) parameters of glibc's malloc.h
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@cache
def _keep_freed_superoperators():
    """Keep freed n^2 x n^2 buffers in the process: pin glibc's mmap and trim thresholds.

    A dense superoperator is 1 MiB at n = 16 and 16 MiB at n = 32, and most
    live for one expression.  Under glibc's dynamic thresholds such a
    buffer is mapped and unmapped, or the heap top trimmed, so the same
    pages fault in again all run long.  32 MiB is glibc's own 64-bit
    ceiling for the mmap threshold; 1 GiB of trim slack is above the peak
    heap of any run up to n = 32 (about 290 MB).  Both are set, since
    setting either one stops glibc adjusting the other up from 128 KiB.
    Process-wide, once per process; a no-op where there is no mallopt.
    """
    libc = ctypes.CDLL(None) if os.name == "posix" else None
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


_JSON_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')


def _load_json(text):
    """``json.loads`` of a text nested at most ``MAX_JSON_DEPTH`` deep, else ``ValueError``.

    The depth is counted on the bytes, strings removed, before parsing:
    ``json.loads`` would recurse and fail at a depth set by the caller's stack.
    """
    code = np.frombuffer(_JSON_STRING.sub("", text).encode(), np.uint8)
    step = np.isin(code, (ord("["), ord("{"))).astype(int) - np.isin(code, (ord("]"), ord("}")))
    if np.cumsum(step).max(initial=0) > MAX_JSON_DEPTH:
        raise ValueError(f"nested deeper than {MAX_JSON_DEPTH} levels")
    return json.loads(text)


def run_scenario(path, out=None, seed=None, suites=None):
    """File-level runner: parse, execute, write report. Returns (report, exit code)."""
    _keep_freed_superoperators()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = _load_json(fh.read())
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None, 2
    except ValueError as exc:  # a non-UTF-8 file counts as invalid JSON
        print(f"error: {path} is not valid JSON: {exc}", file=sys.stderr)
        return None, 2
    try:
        scenario = parse_scenario(obj)
        if suites:
            scenario = replace(scenario, suites=_suite_order(suites, "--suites"))
        report = run_scenario_object(scenario, seed=seed)
    except (SchemaError, NotAState, NotFaithful, NotAdmissible) as exc:
        print(f"error: {os.path.basename(str(path))}: {exc}", file=sys.stderr)
        return None, 2
    out_path = out or default_report_path(path)
    try:
        write_report(report, out_path)
    except OSError as exc:
        return None, _cannot_write(out_path, exc)
    print_summary(report, out_path)
    return report, 0 if report["passed"] else 1


def _cannot_write(path, exc):
    """Report an output that could not be written; returns exit code 2."""
    print(f"error: cannot write {path}: {exc.strerror}", file=sys.stderr)
    return 2


def default_report_path(path):
    base, _ = os.path.splitext(str(path))
    return base + ".report.json"


def write_report(report, out_path):
    """Write a report or a scenario atomically: a crash leaves no half file, nor a temporary one."""
    tmp = f"{out_path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, out_path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def print_summary(report, out_path):
    # a negative control's violation counts must fail: they never break its verdict
    expected = _VIOLATION_COUNTS if report["scenario"].get("negative_control") else ()
    name = report["scenario"].get("name", "?")
    verdict = "PASS" if report["passed"] else "FAIL"
    print(f"{name}: {verdict} ({report['wall_clock_s']:.2f}s) -> {out_path}")
    for suite, data in report["suites"].items():
        mark = "ok " if data["passed"] else "FAIL"
        print(f"  [{mark}] {suite}{_tightest_gate(data, expected)}")
        for note in data.get("notes", []):
            print(f"        note: {note}")


def _tightest_gate(data, expected):
    """The first failing gate outside ``expected``, else the ``<`` gate with the largest
    value/bound ratio."""
    res, gates = data["residuals"], data["gates"]
    failing = [k for k, gate in gates.items() if k not in expected and not _holds(res[k], *gate)]
    below = [k for k, (op, _) in gates.items() if op == "<"]
    if failing:
        word, key = "failing", failing[0]
    elif below:
        word, key = "tightest", max(below, key=lambda k: res[k] / gates[k][1])
    else:
        return ""
    op, bound = gates[key]
    return f"  {word} {key} = {_number(res[key])} ({op} {_number(bound)})"


def _number(v):
    return f"{v:.3e}" if isinstance(v, float) else str(v)


# ---------------------------------------------------------------------------
# Generation and corpus
# ---------------------------------------------------------------------------

def generate_scenario(seed, dim, kind):
    """A reproducible random scenario as a plain dict."""
    if kind not in KINDS:
        raise SchemaError(f"kind: unknown generator kind {kind!r}")
    if _integer(dim, "dim", 2) > MAX_DIM:
        raise SchemaError(f"dim: {dim} exceeds the maximum {MAX_DIM}")
    rng = np.random.default_rng(_integer(seed, "seed", 0))
    g = ginibre(dim, rng)
    rho = g @ dagger(g) + 0.1 * np.eye(dim)
    rho /= np.trace(rho).real
    return {
        "name": f"generated_{kind}_n{dim}_seed{seed}",
        "dim": dim,
        "state": {"density": matrix_to_json(rho)},
        "coefficients": {"random": {"kind": kind, "count": 1, "seed": seed}},
        "kernel": "f0",
        "seed": seed,
    }


def corpus_paths():
    d = os.path.join(os.path.dirname(__file__), "corpus")
    return sorted(
        os.path.join(d, f) for f in os.listdir(d) if f.endswith(".json")
    )


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="mdf",
        description="verification suites for modular Dirichlet forms and "
        "detailed-balance generators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario file")
    p_run.add_argument("file")
    p_run.add_argument("--out", help="report path (default: beside the input)")
    p_run.add_argument("--seed", type=int, help="override the sampling seed")
    p_run.add_argument("--suites", help="comma-separated subset of suites")

    p_gen = sub.add_parser("generate", help="emit a reproducible random scenario")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--dim", type=int, required=True)
    p_gen.add_argument(
        "--kind", required=True, choices=KINDS
    )
    p_gen.add_argument("--out", help="output path (default: <name>.json in cwd)")

    p_corpus = sub.add_parser("corpus", help="run every bundled scenario")
    p_corpus.add_argument("--out-dir", help="directory for the reports")

    args = parser.parse_args(argv)
    with contextlib.redirect_stdout(_StdoutUntilClosed(sys.stdout)):
        try:
            return _command(args)
        finally:
            sys.stdout.flush()


class _StdoutUntilClosed:
    """Standard output of one command, sent to devnull once its reader has closed the pipe.

    A reader that stops early (``mdf run s.json | head -1``) fails no
    suite: the reports are on disk either way.  The first
    ``BrokenPipeError``, from a summary line or from the last flush, points
    file descriptor 1 at devnull, as the Python docs' note on SIGPIPE does,
    so the command goes on, the interpreter's own flush at exit finds
    nothing to fail on, and ``main`` returns the exit code the run earned.
    """

    def __init__(self, stream):
        self.stream = stream

    def write(self, text):
        self._unless_closed(self.stream.write, text)
        return len(text)

    def flush(self):
        self._unless_closed(self.stream.flush)

    def _unless_closed(self, call, *args):
        try:
            call(*args)
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, self.stream.fileno())
            os.close(devnull)


def _command(args):
    """Run the parsed ``mdf`` command; returns its exit code."""
    if args.command == "run":
        suites = None if args.suites is None else args.suites.split(",")
        _, code = run_scenario(args.file, out=args.out, seed=args.seed, suites=suites)
        return code

    if args.command == "generate":
        try:
            scenario = generate_scenario(args.seed, args.dim, args.kind)
        except SchemaError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        out = args.out or f"{scenario['name']}.json"
        try:
            write_report(scenario, out)
        except OSError as exc:
            return _cannot_write(out, exc)
        print(f"wrote {out}")
        return 0

    # corpus
    out_dir = args.out_dir
    if out_dir:
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            return _cannot_write(out_dir, exc)
    worst = 0
    for path in corpus_paths():
        out = None
        if out_dir:
            out = os.path.join(out_dir, os.path.basename(default_report_path(path)))
        _, code = run_scenario(path, out=out)
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
