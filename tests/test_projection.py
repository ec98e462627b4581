"""The order-interval projection against its KKT conditions and two references.

``project_order_interval`` stops on the residual of its own dual, so
these tests check the answer from outside: membership in [0, xi0],
idempotence, and agreement with two solvers that share only the
spectral clip with it.

* ``dykstra_reference`` is Dykstra's alternating projection between the
  two spectral half-constraints, run for a fixed long budget of sweeps.
  It converges linearly, at a rate set by the thinnest direction of the
  interval: at beta = 1 it agrees with the solver to ~1e-13 after 1000
  sweeps, while on the two-level Gibbs state at beta = 14 (smallest
  eigenvalue of xi0 about 4.6e-4) it is still 2.5e-3 away after 20000.
* ``normal_map_reference`` is semismooth Newton on Robinson's normal map
  of the other dual, with one multiplier Lambda >= 0 for X <= xi0 and
  X = P(eta - Lambda), its Jacobian formed densely and solved by least
  squares.  It converges on every state here, beta = 14 included.

The weak-duality distance bound that a ``decided`` hook receives is
checked at every iterate against the full-tolerance projection, and
freezing members through the hook must leave the others bitwise unchanged.
"""

import functools
import json

import numpy as np
import pytest

from mdf import build_standard_form, gibbs_state, project_order_interval
from mdf.cli import corpus_paths, parse_scenario
from mdf.linalg import dagger, haar_unitary, hs_norm, psd_clip, random_hermitian

#: sweeps of the long-run Dykstra reference
DYKSTRA_SWEEPS = 2000


def dykstra_reference(xi0, eta, sweeps=DYKSTRA_SWEEPS):
    """Dykstra's projection of each member of a stack onto [0, xi0], a fixed number of sweeps."""
    x = eta
    p = np.zeros_like(eta)
    q = np.zeros_like(eta)
    for _ in range(sweeps):
        y = psd_clip(x + p)
        p = x + p - y
        x = xi0 - psd_clip(xi0 - (y + q))
        q = y + q - x
    return x


def _loewner_matrix(w, U):
    """Dense n^2 x n^2 matrix of the derivative of the clip at U diag(w) U* (row-major vec)."""
    p = np.maximum(w, 0.0)
    gap = np.subtract.outer(w, w)
    both_positive = np.outer(w > 0, w > 0).astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(gap == 0, both_positive, np.subtract.outer(p, p) / gap)
    K = np.kron(U, U.conj())  # vec(U Y U*) = K vec(Y)
    return (K * slope.reshape(-1)) @ dagger(K)


def normal_map_reference(xi0, eta, steps=60, tol=1e-13):
    """Projection of one matrix onto [0, xi0] by Newton on the one-multiplier normal map.

    Gamma is the unknown, Lambda = P(Gamma), X = P(eta - Lambda), and
    G = xi0 - (Lambda - Gamma) - X vanishes exactly at the projection.
    The Newton matrix is I - E D with D = P'(Gamma) and E = I - P'(eta - Lambda).
    """
    n = len(xi0)
    eye = np.eye(n * n)
    gamma = psd_clip(eta) - xi0
    for _ in range(steps):
        g, U = np.linalg.eigh(gamma)
        lam = (U * np.maximum(g, 0.0)) @ dagger(U)
        h, V = np.linalg.eigh(eta - lam)
        X = (V * np.maximum(h, 0.0)) @ dagger(V)
        G = xi0 - (lam - gamma) - X
        if hs_norm(G) < tol:
            return X
        jac = eye - (eye - _loewner_matrix(h, V)) @ _loewner_matrix(g, U)
        step = np.linalg.lstsq(jac, -G.reshape(-1), rcond=None)[0].reshape(n, n)
        gamma = gamma + (step + dagger(step)) / 2.0
    raise AssertionError(f"normal-map reference stalled at residual {hs_norm(G):.3e}")


def _two_level(beta):
    # the Hamiltonian of the bundled gibbs_two_level scenario
    return gibbs_state(np.diag([0.0, np.log(3.0)]), beta)


def _fixed_spectrum(n, width, seed):
    U = haar_unitary(n, np.random.default_rng(seed))
    w = np.exp(-np.linspace(0.0, width, n))
    return build_standard_form((U * (w / w.sum())) @ dagger(U))


STATES = {
    "two_level_beta1": lambda: _two_level(1.0),
    "two_level_beta14": lambda: _two_level(14.0),
    "three_level_degenerate": lambda: gibbs_state(np.diag([0.0, 0.0, 1.0])),
    "density_n3": lambda: _fixed_spectrum(3, 3.0, 1),
    "density_n8": lambda: _fixed_spectrum(8, 2.0, 2),
    "gibbs_n8": lambda: gibbs_state(random_hermitian(8, np.random.default_rng(3))),
}

#: Dykstra's budget reaches the projection on every state but this one
_DYKSTRA_OUT_OF_REACH = pytest.mark.xfail(
    strict=True, reason="Dykstra is still off the projection here after 1e5 sweeps"
)


def _case(name):
    """(standard form, stack of inputs, projected stack) for a named state."""
    sf = STATES[name]()
    rng = np.random.default_rng(len(name))
    etas = [s * random_hermitian(sf.dim, rng) for s in (0.3, 1.0, 1.0, 3.0, 3.0)]
    etas += [sf.xi0 / 3, project_order_interval(sf, etas[1])]  # inside; on the boundary
    etas = np.stack(etas)
    return sf, etas, project_order_interval(sf, etas)


@pytest.mark.parametrize("name", sorted(STATES))
def test_projection_meets_the_kkt_bounds_and_is_idempotent(name):
    sf, _, X = _case(name)
    assert np.linalg.eigvalsh(X).min() >= -1e-12
    assert np.linalg.eigvalsh(sf.xi0 - X).min() >= -1e-12
    again = project_order_interval(sf, X)
    assert np.linalg.norm(again - X, axis=(-2, -1)).max() <= 1e-12


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=_DYKSTRA_OUT_OF_REACH) if name == "two_level_beta14" else name
    for name in sorted(STATES)
])
def test_projection_agrees_with_long_run_dykstra(name):
    sf, etas, X = _case(name)
    reference = dykstra_reference(sf.xi0, etas)
    assert np.linalg.norm(X - reference, axis=(-2, -1)).max() <= 1e-8


@pytest.mark.parametrize("name", sorted(STATES))
def test_projection_agrees_with_the_normal_map_reference(name):
    sf, etas, X = _case(name)
    for eta, x in zip(etas, X):
        assert hs_norm(x - normal_map_reference(sf.xi0, eta)) <= 1e-8


def _corpus_state(name):
    (path,) = [p for p in corpus_paths() if p.endswith(f"{name}.json")]
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(json.load(fh)).sf


#: the states of the distance-bound tests: the corpus (n = 2 and 3), the
#: thinnest two-level interval, and a Haar state of log-width 12 at n = 3 and 8
BOUND_STATES = {
    **{name: functools.partial(_corpus_state, name) for name in (
        "tracial_double_commutator", "gibbs_two_level", "gibbs_three_level_degenerate",
        "balanced_pair_cauchy", "unbalanced_single", "nonmarkovian_control")},
    "two_level_beta14": lambda: _two_level(14.0),
    "haar_width12_n3": lambda: _fixed_spectrum(3, 12.0, 4),
    "haar_width12_n8": lambda: _fixed_spectrum(8, 12.0, 5),
}


def _bound_case(name):
    """(standard form, stack of inputs from far outside to inside the interval)."""
    sf = BOUND_STATES[name]()
    rng = np.random.default_rng(len(name))
    etas = [s * random_hermitian(sf.dim, rng) for s in (0.1, 0.3, 1.0, 3.0, 10.0)]
    return sf, np.stack(etas + [sf.xi0 / 3])


@pytest.mark.parametrize("name", sorted(BOUND_STATES))
def test_the_distance_bound_holds_at_every_iterate(name):
    sf, etas = _bound_case(name)
    full = project_order_interval(sf, etas)
    seen = []

    def record(index, X, delta):
        seen.append((index.copy(), X.copy(), delta.copy()))
        return np.zeros(len(index), dtype=bool)

    assert np.array_equal(project_order_interval(sf, etas, decided=record), full)
    assert seen
    for index, X, delta in seen:
        assert np.all(delta >= np.linalg.norm(X - full[index], axis=(-2, -1))), index
    assert set(seen[0][0]) == set(range(len(etas)))


@pytest.mark.parametrize("name", sorted(BOUND_STATES))
def test_freezing_a_member_leaves_the_others_bitwise_unchanged(name):
    sf, etas = _bound_case(name)
    full = project_order_interval(sf, etas)
    first = []

    def freeze_the_first(index, X, delta):
        first.append(index[0])
        return index == first[0]

    part = project_order_interval(sf, etas, decided=freeze_the_first)
    assert np.array_equal(np.delete(part, first[0], 0), np.delete(full, first[0], 0))
