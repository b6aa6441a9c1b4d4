import numpy as np
import pytest

from schlicht import reporting
from schlicht.chains import chain_callable, chain_t6_callable
from schlicht.criteria import CriterionParams, check_qc_t5, DiskGrid
from schlicht.dsl import parse
from schlicht.errors import DegenerateJacobian, ParameterError
from schlicht.expr import AnalyticTriple
from schlicht.extension import (
    ExtensionField,
    becker_extension,
    beltrami_coefficient,
    beltrami_estimate,
    beltrami_field,
    max_dilatation,
    seam_mismatch,
)

TRIPLE_TRIVIAL = AnalyticTriple.build(parse("z"), parse("z"), parse("1"))
P_TRIVIAL = CriterionParams(alpha=1, c=-1, s=1, m=2.0)


def trivial_field() -> ExtensionField:
    return ExtensionField(chain_callable(TRIPLE_TRIVIAL, P_TRIVIAL))


def eps_field(eps: float) -> ExtensionField:
    f = parse(f"z + {eps}*z^2")
    return ExtensionField(chain_t6_callable(f, parse("z"), 1.0))


def test_identity_extension():
    F = trivial_field()
    pts = np.array([0.3 + 0.2j, -1.7 + 0.4j, 3j, 9.5])
    assert np.max(np.abs(F(pts) - pts)) < 1e-12
    assert becker_extension(chain_callable(TRIPLE_TRIVIAL, P_TRIVIAL), 2 + 1j) == pytest.approx(2 + 1j)


def test_eps_extension_formula():
    # outside: z + eps z^2/|z|^2, by substituting z/|z| and log|z|
    F = eps_field(0.2)
    rng = np.random.default_rng(81)
    zs = (1.2 + 3 * rng.uniform(0, 1, 25)) * np.exp(2j * np.pi * rng.uniform(0, 1, 25))
    expected = zs + 0.2 * zs**2 / np.abs(zs) ** 2
    assert np.max(np.abs(F(zs) - expected)) < 1e-12


def test_seam_continuity():
    assert seam_mismatch(trivial_field()) <= 1e-6
    for eps in (0.05, 0.2):
        assert seam_mismatch(eps_field(eps)) <= 1e-6


def test_beltrami_affine_exact():
    F = lambda z: z + 0.3 * np.conj(z)
    s = beltrami_estimate(F, 2 + 1j)
    assert s.mu == pytest.approx(0.3, abs=1e-6)
    assert s.F_z == pytest.approx(1.0, abs=1e-6)
    s = beltrami_estimate(lambda z: np.asarray(z), 3 - 2j)
    assert s.abs_mu <= 1e-9


def test_beltrami_matches_wirtinger_calculus():
    # F = z + eps z/conj(z): F_z = 1 + eps/conj(z), F_zbar = -eps z/conj(z)^2
    eps = 0.2
    F = eps_field(eps)
    z = (1 + 1e-3) * np.exp(1j * (np.pi - 0.05))
    s = beltrami_estimate(F, z)
    fz = 1 + eps / np.conj(z)
    fzb = -eps * z / np.conj(z) ** 2
    assert s.F_z == pytest.approx(fz, abs=1e-5)
    assert s.F_zbar == pytest.approx(fzb, abs=1e-5)
    assert s.abs_mu == pytest.approx(abs(fzb / fz), abs=1e-5)


def test_beltrami_peak_direction():
    eps = 0.2
    F = eps_field(eps)
    z = -(1 + 1e-3)
    s = beltrami_estimate(F, z)
    assert s.abs_mu == pytest.approx(eps / (1 - eps), rel=0.02)


def test_step_robustness():
    F = eps_field(0.1)
    rng = np.random.default_rng(82)
    zs = (1.05 + 2 * rng.uniform(0, 1, 10)) * np.exp(2j * np.pi * rng.uniform(0, 1, 10))
    _, _, _, mu_a, _ = beltrami_field(F, zs, step=1e-5)
    _, _, _, mu_b, _ = beltrami_field(F, zs, step=5e-6)
    assert np.max(np.abs(mu_a - mu_b)) <= 1e-4


def test_max_dilatation_identity_and_affine():
    mx, _ = max_dilatation(trivial_field(), n_radial=8, n_angular=32)
    assert mx <= 1e-8
    mx, _ = max_dilatation(lambda z: z + 0.3 * np.conj(z), n_radial=8, n_angular=32)
    assert mx == pytest.approx(0.3, abs=1e-6)


def test_max_dilatation_eps_family():
    eps = 0.2
    mx, wit = max_dilatation(eps_field(eps))
    assert abs(mx - eps / (1 - eps)) / (eps / (1 - eps)) < 0.02
    assert abs(wit) < 1.1  # peak sits at the inner radius


def test_dilatation_decay_along_real_axis():
    # mu ~ eps/|z|, so the value at 10 is within 10x of the value at 100
    F = eps_field(0.2)
    _, _, _, _, am10 = beltrami_field(F, np.array([10.0 + 0j]))
    _, _, _, _, am100 = beltrami_field(F, np.array([100.0 + 0j]))
    assert am10[0] <= 10 * am100[0]


def test_dilatation_within_qc_bound():
    # a configuration passing the extension criterion stays under K + 0.02
    grid = DiskGrid(n_radial=48, n_angular=96)
    triple = AnalyticTriple.build(parse("z + 0.05*z^2"), parse("z"), parse("1"))
    params = CriterionParams(alpha=1, c=-1, s=1, m=2.0, k=0.2)
    rep, K = check_qc_t5(triple, params, grid)
    assert rep.satisfied
    F = ExtensionField(chain_callable(triple, params))
    mx, _ = max_dilatation(F, n_radial=16, n_angular=64)
    assert mx <= K + 0.02


def test_probe_too_close_to_seam_rejected():
    with pytest.raises(ParameterError):
        beltrami_field(trivial_field(), np.array([1.0 + 0j]))


def test_degenerate_jacobian():
    with pytest.raises(DegenerateJacobian):
        beltrami_estimate(lambda z: np.full(np.shape(z), 1.0 + 0j), 2.0 + 0j)


def _config(f, g="z", alpha=1, s=(1, 0), m=2, check="T6", preset=None):
    raw = {"f": f, "g": g, "params": {"alpha": [alpha, 0], "c": [-1, 0],
                                     "s": list(s), "m": m, "k": 0.5},
           "grid": {"n_radial": 16, "n_angular": 32}}
    if check:
        raw["check"] = check
    if preset:
        raw["preset"] = preset
    return raw


CHAIN_KINDS = {
    **{f"t6-eps{e}": _config(f"z + {e}*z^2") for e in (0.02, 0.1, 0.2)},
    "main": _config("z + 0.1*z^2", alpha=1.5, s=(1.3, 0.2), m=2.6, check="T2"),
    "t21": _config("z + 0.1*z^2", g="z*exp(0.1*z)", alpha=2, check="T21"),
    "t3": _config("z + 0.1*z^2", alpha=0.8, s=(1.2, 0.1), m=2.4, check="T3"),
    "t5-qc": _config("z + 0.1*z^2", alpha=1.2, s=(1.1, -0.3), m=2.2, check="T5-qc"),
    "becker": _config("z + 0.1*z^2", check=None, preset="becker"),
    "t6-ladder": _config("z + 0.1*z^2", g="z*exp(0.1*z)", alpha=2),
    **{f"logderiv-a{a}": _config("z + 0.1*z^2", alpha=a, check="logderiv-Uk")
       for a in (1, 2)},
}


@pytest.mark.parametrize("kind", sorted(CHAIN_KINDS))
def test_closed_form_mu_matches_finite_differences(kind):
    F = ExtensionField(reporting.build_chain(reporting.load_config(CHAIN_KINDS[kind])))
    rng = np.random.default_rng(83)
    zs = rng.uniform(1.01, 4, 40) * np.exp(2j * np.pi * rng.uniform(0, 1, 40))
    closed = beltrami_coefficient(F, zs)
    _, _, _, reference, _ = beltrami_field(F, zs)
    assert np.max(np.abs(closed - reference)) <= 1e-8


def test_t6_chain_rejects_complex_alpha():
    raw = _config("z + 0.1*z^2", alpha=2)
    raw["params"]["alpha"] = [2, 0.5]
    with pytest.raises(ParameterError):
        reporting.build_chain(reporting.load_config(raw))


def test_closed_form_mu_identity_chain():
    rng = np.random.default_rng(84)
    zs = rng.uniform(1, 10, 50) * np.exp(2j * np.pi * rng.uniform(0, 1, 50))
    assert np.max(np.abs(beltrami_coefficient(trivial_field(), zs))) <= 1e-12


def test_closed_form_mu_degenerate_driving_term():
    def chain(z, t):
        return np.asarray(z) * np.exp(t)

    chain.driving_term = lambda z, t: np.full(np.broadcast(z, t).shape, -1 + 0j)
    with pytest.raises(DegenerateJacobian):
        beltrami_coefficient(ExtensionField(chain), np.array([2.0 + 1j]))
