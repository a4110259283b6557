"""The spectral (villain) kinds on one real eigendecomposition.

The build and the windowed checks work from ``eigh`` of the real
tridiagonal position quadrature X, with P = R X R-dagger, R = diag(i^n).
Here they are held against a dense reference made the direct way: a
complex ``eigh`` of ``momentum(space)``, the dense window projector q, and
``q M q`` of every residual operator M formed in full.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest

from higgsalg import (
    AlgebraParams,
    FockSpace,
    Realization,
    annihilation,
    build_realization,
    casimir_eigenvalue,
    g_constant,
    momentum,
    verify_realization,
)
from higgsalg.algebra import _casimir, _casimir_coefficients
from higgsalg.cli import main
from higgsalg.fock import DenseOperator, _phase_kernel, _quadrature_basis, _quarter_turns
from higgsalg.realizations import villain_boson
from higgsalg.verify import _Window
from reference import detune, position, unitary_exp, window_columns

# |windowed residual - reference| <= _RESIDUAL_RTOL * max(1, |reference|)
_RESIDUAL_RTOL = 1e-10
# max |J+ - reference J+|
_BUILD_ATOL = 1e-13

POINTS = ((1, 1, 3), (-2, 1, 4), (0, 2, 5))
DIMS = (24, 96, 256)
WINDOW_CHECKS = (
    "ladder-closure-window",
    "grading-raise-window",
    "grading-lower-window",
    "casimir-deviation-window",
    "casimir-two-forms-window",
)


def _dense_window(space: FockSpace, lo: float, hi: float) -> np.ndarray:
    """The projector q from a complex eigh of P."""
    evals, evecs = np.linalg.eigh(momentum(space).entries)
    cols = evecs[:, (evals >= lo - 1e-9) & (evals <= hi + 1e-9)]
    return cols @ cols.conj().T


def _reference_radicand(params: AlgebraParams, form: int, g: float,
                        p: np.ndarray) -> np.ndarray:
    """w(p)^2 in each form's own expression with coupling scale g."""
    c1, c3 = float(params.c1), float(params.c3)
    if form == 1:
        return g * g - 0.25 * c3 * (p * (p + 1.0)) ** 2 - 0.5 * c1 * (p + 0.5) ** 2
    poly = c3 * p * p + c3 * p + c1
    return (g * g - poly * poly) / (4.0 * c3)


def _reference_build(space: FockSpace, params: AlgebraParams, j: Fraction, form: int) -> Realization:
    """J+ = e^{iX} w(P) from complex eigendecompositions of X and P."""
    p = momentum(space)
    evals, evecs = np.linalg.eigh(p.entries)
    rad = _reference_radicand(params, form, g_constant(params, j, form), evals)
    s = (evecs * np.sqrt(np.maximum(rad, 0.0))) @ evecs.conj().T
    jp = DenseOperator(space,
                       unitary_exp(position(space), 1.0).entries @ (0.5 * (s + s.conj().T)))
    return Realization(f"villain{form}", 1, int(2 * j), params, jp, jp.adjoint(), p,
                       tuple([True] * space.dim))


def _reference_residuals(r: Realization) -> dict[str, float]:
    """max |q M q| of every windowed residual M, formed in full."""
    q = _dense_window(r.space, float(r.window[0]), float(r.window[1]))
    jp, jm, j3 = r.jp.entries, r.jm.entries, r.j3.entries
    c1, c3 = float(r.params.c1), float(r.params.c3)
    pm, mp, square = jp @ jm, jm @ jp, j3 @ j3
    powers = (j3, square, square @ j3, square @ square)
    coefficients = _casimir_coefficients(r.params)
    c_sym = _casimir(pm, mp, powers, coefficients, symmetric=True)
    c_prod = _casimir(pm, mp, powers, coefficients, symmetric=False)
    lam = float(casimir_eigenvalue(r.params, r.j))
    residuals = {
        "ladder-closure-window": (pm - mp) - (c1 * j3 + c3 * powers[2]),
        "grading-raise-window": (j3 @ jp - jp @ j3) - jp,
        "grading-lower-window": (j3 @ jm - jm @ j3) + jm,
        "casimir-deviation-window": c_sym - lam * np.eye(r.space.dim),
        "casimir-two-forms-window": c_sym - c_prod,
    }
    return {name: float(np.abs(q @ m @ q).max()) for name, m in residuals.items()}


def _windowed(report) -> dict[str, float]:
    return {c.name: c.residual for c in report.checks if c.name in WINDOW_CHECKS}


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("form", (1, 2))
def test_windowed_checks_agree_with_dense_reference(form, dim):
    for c1, c3, j2 in POINTS:
        params, j = AlgebraParams.of(c1, c3), Fraction(j2, 2)
        r = build_realization(FockSpace(dim), params, j, "villain", form)
        ref = _reference_build(r.space, params, j, form)
        assert np.abs(r.jp.entries - ref.jp.entries).max() <= _BUILD_ATOL
        want = _reference_residuals(ref)
        rank = round(float(np.trace(_dense_window(r.space, -float(j), float(j))).real))
        # the new build and checks, and the new checks on the reference build
        for report in (verify_realization(r), verify_realization(ref)):
            got = _windowed(report)
            assert got.keys() == want.keys()
            for name, value in want.items():
                assert abs(got[name] - value) <= _RESIDUAL_RTOL * max(1.0, abs(value)), name
            assert {c.block_size for c in report.checks if c.name in WINDOW_CHECKS} == {rank}


@pytest.mark.parametrize("dim", DIMS)
def test_build_on_a_nearly_full_support_agrees_with_dense_reference(dim):
    """J+ from the phase kernel on the radicand's support equals the full
    dense product also where the support is nearly every state."""
    params, j = AlgebraParams.of(3, -1), Fraction(2)
    lam, _ = _quadrature_basis(dim)
    support = ~(_reference_radicand(params, 1, g_constant(params, j, 1), lam) <= 0)
    assert support.sum() == {24: 16, 96: 78, 256: 227}[dim]
    jp = build_realization(FockSpace(dim), params, j, "villain", 1).jp.entries
    ref = _reference_build(FockSpace(dim), params, j, 1).jp.entries
    assert np.abs(jp - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())


def test_empty_support_gives_zero_and_nan_stays_nonfinite(monkeypatch):
    """With g = 0 the radicand is negative at every eigenvalue and J+ is
    exactly zero; a NaN radicand is kept in the support, so J+ is not
    finite and ``build_realization`` would refuse it."""
    space, params, j = FockSpace(96), AlgebraParams.of(1, 1), Fraction(3, 2)
    lam, _ = _quadrature_basis(space.dim)
    assert (_reference_radicand(params, 1, 0.0, lam) < 0).all()
    detune(monkeypatch, 0.0)
    assert not villain_boson(space, params, j, 1).jp.entries.any()
    detune(monkeypatch, float("nan"))
    jp = villain_boson(space, params, j, 1).jp.entries
    assert not np.isfinite(jp).all()


@pytest.mark.parametrize("dim", (2, 24, 256))
def test_phase_kernel_is_e_ix_r_u_once_per_dim(dim):
    space = FockSpace(dim)
    _, u = _quadrature_basis(dim)
    kernel = _phase_kernel(dim)
    want = unitary_exp(position(space), 1.0).entries @ (_quarter_turns(dim)[:, None] * u)
    assert kernel.shape == (2 * dim, dim)
    assert np.abs(kernel[:dim] + 1j * kernel[dim:] - want).max() <= 1e-12
    assert _phase_kernel(dim) is kernel
    with pytest.raises(ValueError):
        kernel[0, 0] = 0.0


@pytest.mark.parametrize("dim", (2, 3, 24, 96, 128, 256))
def test_one_real_basis_serves_both_quadratures(dim):
    space = FockSpace(dim)
    lam, u = _quadrature_basis(dim)
    turns = _quarter_turns(dim)
    # P = R X R-dagger, bit for bit
    rxr = turns[:, None] * position(space).entries * turns.conj()
    assert np.array_equal(rxr, momentum(space).entries)
    # v = R u diagonalizes P, with the eigenvalues of a complex eigh
    v = turns[:, None] * u
    p = momentum(space).entries
    assert np.abs(p @ v - v * lam).max() <= 1e-12 * dim
    assert np.abs(v.conj().T @ v - np.eye(dim)).max() <= 1e-12 * dim
    assert np.abs(np.linalg.eigh(p)[0] - lam).max() <= 1e-12
    # cached per dim, read-only
    assert _quadrature_basis(dim)[1] is u
    assert not lam.flags.writeable and not u.flags.writeable
    with pytest.raises(ValueError):
        u[0, 0] = 0.0


@pytest.mark.parametrize("dim", (2, 24, 256))
def test_momentum_is_formed_once_per_dim(dim):
    """P is -i (a - a-dagger)/sqrt(2) bit for bit, one read-only array per dim."""
    space = FockSpace(dim)
    a = annihilation(space).entries
    want = complex(-1j / np.sqrt(2.0)) * (a - a.conj().T)
    p = momentum(space).entries
    assert p.tobytes() == want.tobytes()
    assert momentum(FockSpace(dim)).entries is p
    with pytest.raises(ValueError):
        p[0, 1] = 0.0


@pytest.mark.parametrize("dim", (24, 96, 256))
def test_window_projector_from_the_shared_basis(dim):
    space = FockSpace(dim)
    for half in (0.5, 2.0, 3.5):
        cols = window_columns(space, -half, half)
        q = cols @ cols.conj().T
        assert np.abs(q @ q - q).max() <= 1e-12
        assert np.abs(q - _dense_window(space, -half, half)).max() <= 1e-13


class _ReferenceWindow:
    """The eight-product window the checks used before the eigenbasis one:
    a product F1 ... Fm compresses as (V-dagger F1 ... Fh)(Fh+1 ... Fm V)
    with h = ceil(m / 2), from thin N x N by N x r products of the
    operators themselves, J3 and J- included."""

    def __init__(self, cols: np.ndarray):
        self.cols = cols
        self._memo = {("left", ()): cols.conj().T, ("right", ()): cols}

    def _get(self, side: str, factors: tuple) -> np.ndarray:
        key = (side, factors)
        if key not in self._memo:
            if side == "left":
                self._memo[key] = self._get("left", factors[:-1]) @ factors[-1].entries
            elif side == "right":
                self._memo[key] = factors[0].entries @ self._get("right", factors[1:])
            else:
                h = (len(factors) + 1) // 2
                self._memo[key] = self._get("left", factors[:h]) @ self._get("right", factors[h:])
        return self._memo[key]

    def product(self, *factors: DenseOperator) -> np.ndarray:
        return self._get("block", factors)

    def max_entry(self, block: np.ndarray) -> float:
        return float(np.abs(self.cols @ block @ self.cols.conj().T).max())


def _window_blocks(window: _Window) -> dict:
    """The blocks the windowed checks read, by their words in + (J+), - (J-)
    and 3 (J3); the empty word is the identity the Casimir deviation reads.
    J3 is P, so its blocks are diagonal scalings by the window's eigenvalues."""
    lam = window._lam
    j3, j3_2, j3_3, j3_4 = (np.diag(lam ** m) for m in range(1, 5))
    plus, minus = window.plus, window.minus
    return {"": np.eye(window.block), "+-": window.pm, "-+": window.mp, "3": j3, "333": j3_3,
            "3333": j3_4, "33": j3_2, "3+": lam[:, None] * plus, "+3": plus * lam,
            "+": plus, "3-": lam[:, None] * minus, "-3": minus * lam, "-": minus}


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("form", (1, 2))
def test_window_blocks_agree_with_the_eight_product_reference(form, dim):
    """Every named block from Lambda and the two thin products of J+
    equals the block the reference forms from the operators, and
    ``max_entry`` of a residual equals max |V B V-dagger| formed in complex
    arithmetic, also where its squares would leave the float range."""
    for c1, c3, j2 in POINTS:
        j = Fraction(j2, 2)
        r = build_realization(FockSpace(dim), AlgebraParams.of(c1, c3), j, "villain", form)
        window = _Window(r)
        ref = _ReferenceWindow(window_columns(r.space, -float(j), float(j)))
        ops = {"+": r.jp, "-": r.jm, "3": r.j3}
        blocks = _window_blocks(window)
        assert len(blocks) == 13
        for word, got in blocks.items():
            want = ref.product(*[ops[x] for x in word])
            bound = 1e-12 * max(1.0, float(np.abs(want).max()))
            assert np.abs(got - want).max() <= bound, word
        closure = ref.product(r.jp, r.jm) - ref.product(r.jm, r.jp) - ref.product(r.j3)
        for scale in (1.0, 1e-200, 1e200):
            want = ref.max_entry(scale * closure)
            assert abs(window.max_entry(scale * closure) - want) <= 1e-13 * want
        assert window.max_entry(0.0 * closure) == 0.0


class _Counted(np.ndarray):
    """An operator's entries that record the shapes of every matmul they
    take part in."""

    shapes: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [x.view(np.ndarray) if isinstance(x, _Counted) else x for x in inputs]
        if ufunc is np.matmul:
            _Counted.shapes.append(tuple(x.shape for x in plain))
        return getattr(ufunc, method)(*plain, **kwargs)


def test_villain_verify_forms_no_operator_product(monkeypatch):
    """The windowed checks compress first: no N x N operator product, and
    only two thin products of an operator, V-dagger J+ and J+ V."""
    n = 128
    r = build_realization(FockSpace(n), AlgebraParams.of(1, 1), Fraction(3, 2), "villain", 1)
    entries = DenseOperator.entries
    monkeypatch.setattr(DenseOperator, "entries",
                        property(lambda op: entries.fget(op).view(_Counted)))
    monkeypatch.setattr(_Counted, "shapes", [])
    report = verify_realization(r)
    rank = {c.block_size for c in report.checks if c.name in WINDOW_CHECKS}.pop()
    assert report.passed
    assert _Counted.shapes == [((rank, n), (n, n)), ((n, n), (n, rank))]


def test_villain_j3_other_than_p_is_refused(tmp_path, capsys):
    """The window blocks take J3 as Lambda, so a J3 other than P is refused:
    in the library with ValueError, from a file with exit 65 and one line."""
    r = build_realization(FockSpace(24), AlgebraParams.of(1, 1), Fraction(3, 2), "villain", 1)
    shifted = Realization(r.kind, 1, r.j2, r.params, r.jp, r.jm,
                          DenseOperator(r.space, r.j3.entries + np.eye(24)), r.admissible_mask)
    with pytest.raises(ValueError, match="J3"):
        verify_realization(shifted)
    path = tmp_path / "villain.json"
    assert main(["build", "--c1", "1", "--c3", "1", "--j2", "3", "--dim", "24",
                 "--kind", "villain:1", "-o", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["j3"]["entries"][0] = [1.0, 0.0]
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--input", str(path)]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
