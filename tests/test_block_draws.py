"""Block draws against the one-at-a-time draws they replace.

The sampled checks draw each kind of sample as one block of the seeded
stream.  ``standard_normal`` fills a block in C order, so a block is
the same numbers as its members drawn one by one, and the generator is
left in the same state.  The modular suite's reference below is its
per-sample loop, kept verbatim (samplers included): with the same
draws its four residuals agree far below their own size, while
different draws would move the nonzero ones by their whole size.
"""

import json
import os

import numpy as np
import pytest

from mdf import SuperOperator, apply_I0, modular_map, sigma, superop_sigma
from mdf.cli import corpus_paths, parse_scenario, run_scenario_object
from mdf.linalg import (
    dagger,
    ginibre,
    hermitian_from_ginibre,
    hs_norm,
    psd_from_ginibre,
    random_hermitian,
)
from mdf.modular import T_MAP


@pytest.mark.parametrize("shape", [(), (0,), (5,), (4, 3)])
@pytest.mark.parametrize("n", [1, 3])
def test_a_ginibre_block_equals_one_at_a_time_draws(n, shape):
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    block = ginibre(n, rng, shape)
    ref = [
        (ref_rng.standard_normal((n, n)) + 1j * ref_rng.standard_normal((n, n))) / np.sqrt(2.0)
        for _ in range(int(np.prod(shape)))
    ]
    assert block.shape == shape + (n, n)
    np.testing.assert_array_equal(block, np.reshape(ref, shape + (n, n)))
    assert rng.random() == ref_rng.random()


def test_stacked_hermitian_and_psd_parts_equal_the_samplers():
    G = ginibre(3, np.random.default_rng(2), (6, 2))
    ref_rng = np.random.default_rng(2)
    for g in G:
        np.testing.assert_array_equal(hermitian_from_ginibre(g[0]), random_hermitian(3, ref_rng))
        np.testing.assert_array_equal(psd_from_ginibre(g[1]), psd_from_ginibre(ginibre(3, ref_rng)))
    np.testing.assert_array_equal(
        hermitian_from_ginibre(G[:, 0]), [hermitian_from_ginibre(g) for g in G[:, 0]]
    )
    np.testing.assert_allclose(
        psd_from_ginibre(G[:, 1]), [psd_from_ginibre(g) for g in G[:, 1]], rtol=0, atol=1e-14
    )


def test_sigma_at_one_z_per_member_equals_per_member_calls(sf3, rng):
    A = ginibre(3, rng, (5,))
    z = rng.standard_normal(5) + 0.1j * rng.standard_normal(5)
    np.testing.assert_allclose(
        sigma(sf3, A, z), [sigma(sf3, a, w) for a, w in zip(A, z)], rtol=0, atol=1e-14
    )
    np.testing.assert_allclose(sigma(sf3, A, z[1]), [sigma(sf3, a, z[1]) for a in A], atol=1e-14)


# ---------------------------------------------------------------------------
# the modular suite's per-sample reference
# ---------------------------------------------------------------------------

def _reference_modular_residuals(sf, seed):
    rng = np.random.default_rng(seed)
    worst_group = 0.0
    worst_star = 0.0
    worst_inverse = 0.0
    worst_j = 0.0
    for _ in range(10):
        a = ginibre(sf.dim, rng)
        s_t = complex(rng.normal(), 0.1 * rng.normal())
        z_t = complex(rng.normal(), 0.1 * rng.normal())
        lhs = sigma(sf, sigma(sf, a, s_t), z_t)
        worst_group = max(worst_group, hs_norm(lhs - sigma(sf, a, s_t + z_t)) / hs_norm(a))
        worst_star = max(
            worst_star,
            hs_norm(sigma(sf, dagger(a), np.conj(z_t)) - dagger(sigma(sf, a, z_t)))
            / hs_norm(a),
        )
        worst_inverse = max(
            worst_inverse,
            hs_norm(modular_map(sf, apply_I0(sf, a), T_MAP) - a) / hs_norm(a),
        )
        K = SuperOperator.commutant_j(a)
        lhs_op = superop_sigma(sf, K, z_t)
        rhs_op = SuperOperator.commutant_j(sigma(sf, a, np.conj(z_t)))
        worst_j = max(worst_j, (lhs_op - rhs_op).hs_norm() / hs_norm(a))
    return [worst_group, worst_star, worst_inverse, worst_j]


_MODULAR_RESIDUALS = (
    "flow_group_law", "flow_star_compatibility", "smear_inverts_T", "flow_commutant_compatibility"
)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", ["gibbs_two_level", "unbalanced_single", "nonmarkovian_control"],
                         ids=["n2", "n3", "signed_control"])
def test_modular_suite_matches_the_per_sample_loop(name, seed):
    with open(os.path.join(os.path.dirname(corpus_paths()[0]), f"{name}.json")) as fh:
        scenario = parse_scenario({**json.load(fh), "suites": ["modular"]})
    residuals = run_scenario_object(scenario, seed=seed)["suites"]["modular"]["residuals"]
    ref = _reference_modular_residuals(scenario.sf, seed)
    # the group law and T o I0 = id carry rounding, so other draws would move them
    assert ref[0] > 0 and ref[2] > 0
    np.testing.assert_allclose(
        [residuals[k] for k in _MODULAR_RESIDUALS], ref, rtol=1e-6, atol=1e-30
    )
