"""The stacked block kernel and the batch paths that feed it.

Every stacked result is compared with ``==``: a stack must give each element
exactly what the element gives alone and what the per-block scalar loop it
replaced gives, and the sweep grid exactly what the scalar totals give per
point.  The closed-form spectral fallback is also held, at stated relative
tolerances, to the Jacobi route it replaced and to 50-digit arithmetic.
"""

import re
import tracemalloc

import numpy as np
import pytest

from reference import block_matrix
from xqmetro import channels, ghz, linalg, metrics, oracle
from xqmetro.channels import ChannelKind, ChannelParam, apply_kraus_dense, damped_bloch_array
from xqmetro.errors import (
    BadParameterError,
    BlockNotPSDError,
    NotHermitianError,
    NotPSDError,
    NotXFormError,
    SingularBlockError,
    TraceViolationError,
)
from xqmetro.ghz import GHZ_QMIN, ghz_family, ghz_grid
from xqmetro.metrics import (
    EPS_SINGULAR,
    RANK_CUTOFF,
    ParamFamily,
    concurrence_ghz_class,
    evaluate_stack,
    qfi_block_mixed,
    qfi_total,
    skew_block,
    skew_total,
)
from xqmetro.xstate import (
    BLOCK_PAIRS,
    XState,
    XTangent,
    bloch_from_compact,
    check_compact,
    compact_from_bloch,
    compact_from_dense,
    dense_from_compact,
    random_xstate,
    xstate_from_dense,
)

METRICS = ("qfi", "skew", "concurrence")


def _block_with_gap(weight, gap, rng):
    """Bloch 4-vector of weight ``weight`` with w0^2 - |w|^2 = ``gap``."""
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    return np.concatenate(([weight], np.sqrt(weight**2 - gap) * direction))


def edge_stack():
    """Five unit-trace 4-block states, each carrying one kind of block the
    kernel routes, and their tangents: ``(diag, anti, tangent_diag, tangent_anti)``.

    Element 0 is all mixed; element 1 holds a rank-1 block, element 2 a
    zero-weight block, and elements 3 and 4 blocks whose gap sits just above
    (1e-9) and just below (1e-11) the 1e-10 switch between closed form and
    fallback.  Each element's ordinary mixed blocks are scaled to give it
    trace 1; the four blocks above keep their gaps and routes.
    """
    rng = np.random.default_rng(2024)
    w = np.empty((5, 4, 4))
    for n in range(5):
        for j in range(4):
            w[n, j] = _block_with_gap(0.25, 0.25**2 * rng.uniform(0.2, 0.9), rng)
    w[1, 2] = [0.3, 0.0, 0.0, 0.3]
    w[2, 1] = 0.0
    w[3, 0] = _block_with_gap(0.5, 1e-9, rng)
    w[4, 3] = _block_with_gap(0.5, 1e-11, rng)
    dw = 0.1 * rng.normal(size=(5, 4, 4))
    special = np.zeros((5, 4), dtype=bool)
    special[1, 2] = special[2, 1] = special[3, 0] = special[4, 3] = True
    weight = w[..., 0]
    scale = (1.0 - np.sum(weight, axis=-1, where=special)) / np.sum(weight, axis=-1, where=~special)
    w *= np.where(special, 1.0, scale[:, None])[..., None]
    return (*compact_from_bloch(w), *compact_from_bloch(dw))


def edge_bloch():
    """Bloch forms ``(w, dw)`` of :func:`edge_stack`, as the kernel reads them."""
    diag, anti, tangent_diag, tangent_anti = edge_stack()
    return bloch_from_compact(diag, anti), bloch_from_compact(tangent_diag, tangent_anti)


class TestKernel:
    def test_edge_stack_routes(self):
        check_compact(*edge_stack()[:2])
        w, _ = edge_bloch()
        gap = w[..., 0] ** 2 - np.sum(w[..., 1:] ** 2, axis=-1)
        mixed = (w[..., 0] > EPS_SINGULAR) & (gap > EPS_SINGULAR)
        assert mixed[0].all() and mixed[3].all()
        assert not mixed[1, 2] and not mixed[2, 1] and not mixed[4, 3]
        assert mixed.sum() == 20 - 3

    @pytest.mark.filterwarnings("error")
    def test_each_element_equals_itself_alone(self):
        stack = edge_stack()
        with np.errstate(all="raise"):
            stacked = evaluate_stack(METRICS, *stack)
            for n in range(5):
                alone = evaluate_stack(METRICS, *(part[n] for part in stack))
                for name in METRICS:
                    assert np.isfinite(stacked[name][n])
                    assert stacked[name][n] == alone[name], (name, n)

    @pytest.mark.filterwarnings("error")
    def test_stack_shape_and_tangent_broadcast(self):
        diag, anti, tangent_diag, tangent_anti = edge_stack()
        grid = np.stack([diag, diag[::-1]]), np.stack([anti, anti[::-1]])  # (2, 5, 8), (2, 5, 4)
        tangent = tangent_diag[0], tangent_anti[0]
        with np.errstate(all="raise"):
            out = evaluate_stack(("qfi", "skew"), *grid, *tangent)
            for name in ("qfi", "skew"):
                assert out[name].shape == (2, 5)
                for i in range(2):
                    for n in range(5):
                        alone = evaluate_stack((name,), grid[0][i, n], grid[1][i, n], *tangent)
                        assert out[name][i, n] == alone[name]

    @pytest.mark.parametrize("n", range(5))
    def test_totals_are_single_state_views(self, n):
        diag, anti, tangent_diag, tangent_anti = edge_stack()
        state = XState(diag[n], anti[n])
        family = ParamFamily(
            state=lambda phi: state, tangent=lambda phi: XTangent(tangent_diag[n], tangent_anti[n])
        )
        out = evaluate_stack(METRICS, state.diag, state.anti, *family.tangent_at(0.0))
        assert qfi_total(family, 0.0) == out["qfi"]
        assert skew_total(family, 0.0) == out["skew"]
        assert concurrence_ghz_class(state) == out["concurrence"]

    def test_only_requested_metrics(self):
        assert set(evaluate_stack(("skew",), *edge_stack())) == {"skew"}

    def test_a_generator_of_names_is_read_once(self):
        # The names were checked by consuming the generator, and then the
        # kernel looped over an empty one and returned {}.
        out = evaluate_stack((name for name in ["qfi"]), *edge_stack())
        assert set(out) == {"qfi"}
        names = (name for name in ["qfi"])
        assert set(ghz_grid(ChannelKind.DEPOLARIZING, [0.5], [0.3], metrics=names)) == {"qfi"}

    @pytest.mark.parametrize("name", ["fisher", "QFI", ""])
    def test_unknown_metric_raises(self, name):
        message = f"^unknown metric {name!r}; expected qfi, skew or concurrence$"
        with pytest.raises(BadParameterError, match=message):
            evaluate_stack(("qfi", name), *edge_stack())
        with pytest.raises(BadParameterError, match=message):
            ghz_grid(ChannelKind.DEPOLARIZING, [0.5], [0.3], metrics=(name,))

    @pytest.mark.parametrize("names", [("qfi",), ("skew",), ("concurrence", "skew")])
    def test_qfi_and_skew_need_a_tangent(self, names):
        diag, anti, tangent_diag, tangent_anti = edge_stack()
        message = r"^metrics 'qfi' and 'skew' need tangent_diag and tangent_anti$"
        for half in ((), (tangent_diag,), (None, tangent_anti)):
            with pytest.raises(BadParameterError, match=message):
                evaluate_stack(names, diag, anti, *half)

    def test_concurrence_needs_no_tangent(self):
        stack = edge_stack()
        alone = evaluate_stack(("concurrence",), *stack[:2])["concurrence"]
        assert alone.tobytes() == evaluate_stack(METRICS, *stack)["concurrence"].tobytes()

    def test_boundary_order(self):
        # Names, then the state, then the tangent, then a missing tangent.
        diag, anti, tangent_diag, tangent_anti = edge_stack()
        tangent_diag[0, 0] = np.nan
        with pytest.raises(BadParameterError, match="^unknown metric 'fisher'"):
            evaluate_stack(("fisher",), 3.0 * diag, anti, tangent_diag, tangent_anti)
        with pytest.raises(TraceViolationError, match="^element 0: trace "):
            evaluate_stack(("qfi",), 3.0 * diag, anti, tangent_diag, tangent_anti)
        with pytest.raises(TraceViolationError, match="^element 0: trace "):
            evaluate_stack(("qfi",), 3.0 * diag, anti)
        with pytest.raises(NotXFormError, match=r"^element 0: tangent diag\[0\] is nan"):
            evaluate_stack(("concurrence",), diag, anti, tangent_diag, tangent_anti)


def test_a_werner_state_times_three_is_not_a_state():
    # Through Bloch stacks, 3x the state's read qfi 1.318 where the state
    # reads 3.955, and w[1, 1] = 0.5 > w0 gave finite F and S, with no error.
    state = ghz.werner_ghz(0.3)
    tangent = ghz._TANGENT_DIAG, ghz._TANGENT_ANTI
    w = bloch_from_compact(state.diag, state.anti)
    w[1, 1] = 0.5
    for parts, error, text in (
        ((3.0 * state.diag, 3.0 * state.anti), TraceViolationError,
         "trace 3.0 differs from 1 beyond 1e-12"),
        (compact_from_bloch(w), BlockNotPSDError,
         "block 1: |coherence|^2 exceeds population product"),
    ):
        with pytest.raises(error) as alone:
            XState(*parts)
        with pytest.raises(error) as raised:
            evaluate_stack(("qfi", "skew"), *parts, *tangent)
        assert str(raised.value) == str(alone.value) == text  # one state: no element named


def _scalar_gap(w, v):
    return float(w[0] * v[0] - w[1:] @ v[1:])


def reference_qfi_block(a, da):
    slope = _scalar_gap(a, da)
    gap = _scalar_gap(a, a)
    return float(da[0] ** 2 / a[0] + (slope**2 / gap - _scalar_gap(da, da)) / a[0])


def reference_skew_block(a, da):
    radial = np.sqrt(_scalar_gap(a, a))
    k = a[0] + radial
    sqrt_k = np.sqrt(k)
    dot = float(a[1:] @ da[1:])
    dd0 = (sqrt_k * da[0] - dot / sqrt_k) / (4.0 * radial)
    lam = 1.0 / sqrt_k
    sig = lam / radial
    gam = lam / (radial * k)
    ddi = -(sig / 4.0) * a[1:] * da[0] + (lam / 2.0) * da[1:] + (gam / 4.0) * a[1:] * dot
    return float(8.0 * (dd0**2 + ddi @ ddi))


def reference_spectral_block(a, da):
    """Scalar transcription of the closed-form rank-aware 2x2 spectral sum."""
    r = np.sqrt(float(a[1:] @ a[1:]))
    s = float(da[1:] @ a[1:]) / r if r > 0.0 else 0.0
    terms = (
        (0.5 * ((da[0] + s) * (da[0] + s)), a[0] + r),  # (+, +)
        (0.5 * ((da[0] - s) * (da[0] - s)), a[0] - r),  # (-, -)
        (float(da[1:] @ da[1:]) - s * s, a[0]),  # (+, -) and (-, +)
    )
    total = 0.0
    for numerator, denominator in terms:
        if denominator > RANK_CUTOFF:
            total += numerator / denominator
    return total


def jacobi_spectral_block(a, da):
    """The same rank-aware sum over the Jacobi spectrum of the 2x2 block."""
    values, vectors = linalg.eigh(block_matrix(a))
    overlap = vectors.conj().T @ block_matrix(da) @ vectors
    return sum(
        2.0 * abs(overlap[i, j]) ** 2 / (values[i] + values[j])
        for i in range(2)
        for j in range(2)
        if values[i] + values[j] > RANK_CUTOFF
    )


def reference_totals(w, dw):
    """The per-block scalar loop the kernel replaced, kept as its reference.

    Python-float and numpy-scalar arithmetic throughout: ``x**2`` is libm
    pow() and ``@`` numpy's 1-D dot.  The kernel must reproduce it bit for bit.
    """
    qfi = skew = 0.0
    for a, da in zip(w, dw):
        if a[0] > EPS_SINGULAR and _scalar_gap(a, a) > EPS_SINGULAR:
            qfi += reference_qfi_block(a, da)
            skew += reference_skew_block(a, da)
        else:
            qfi += reference_spectral_block(a, da)
            skew += float(2.0 * da @ da)
    return qfi, skew


def reference_concurrence(diag, anti):
    penalty = sum(np.sqrt(diag[i] * diag[j]) for i, j in BLOCK_PAIRS[1:])
    return float(2.0 * max(0.0, abs(anti[0]) - penalty))


def test_kernel_reproduces_the_scalar_loop():
    # Thousands of blocks, because pow() and x*x, or the SIMD and scalar
    # |z|, part in about 0.1% and 35% of last bits respectively.
    rng = np.random.default_rng(77)
    count = 3000
    weight = rng.uniform(0.05, 0.5, size=(count, 4))
    direction = rng.normal(size=(count, 4, 3))
    direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
    length = weight * rng.uniform(0.0, 0.95, size=(count, 4))
    w = np.concatenate((weight[..., None], length[..., None] * direction), axis=-1)
    dw = rng.normal(size=(count, 4, 4)) * 0.2
    blocks = qfi_block_mixed(w, dw), skew_block(w, dw)
    for index in np.ndindex(count, 4):
        assert blocks[0][index] == reference_qfi_block(w[index], dw[index]), index
        assert blocks[1][index] == reference_skew_block(w[index], dw[index]), index
    # Blocks whose weights do not sum to 1 are not states: the core takes them.
    out = metrics._kernel(("qfi", "skew"), w, dw, None, None)
    for n in range(count):
        assert (out["qfi"][n], out["skew"][n]) == reference_totals(w[n], dw[n]), n
    w, dw = edge_bloch()
    out = evaluate_stack(("qfi", "skew"), *edge_stack())
    for n in range(len(w)):
        assert (out["qfi"][n], out["skew"][n]) == reference_totals(w[n], dw[n]), n
    # GHZ-like states, so that most concurrences are not clamped to zero.
    diag = rng.dirichlet(np.r_[20.0, np.ones(6), 20.0], size=count)
    anti = np.sqrt(diag[:, :4] * diag[:, :3:-1]) * rng.uniform(0.5, 1.0, size=(count, 4))
    anti = anti * np.exp(2j * np.pi * rng.uniform(size=(count, 4)))
    out = metrics._kernel(("concurrence",), None, None, diag, anti)["concurrence"]
    assert np.count_nonzero(out) > count // 2
    for n in range(count):
        assert out[n] == reference_concurrence(diag[n], anti[n]), n


def rank1_family():
    """Block 2 stays rank-1 (|rho_25| = sqrt(rho_22 rho_55)) along the family."""
    d0 = np.array([0.2, 0.1, 0.15, 0.05, 0.1, 0.1, 0.2, 0.1])
    d1 = np.array([0.1, 0.2, 0.1, 0.1, 0.15, 0.05, 0.1, 0.2])
    fraction = np.array([0.5, 0.3, 1.0, 0.4])

    def state(phi):
        diag = (1.0 - phi) * d0 + phi * d1
        return XState(diag, fraction * np.sqrt(diag[:4] * diag[:3:-1]) + 0j)

    return ParamFamily(state=state)


def test_totals_return_python_floats_on_a_rank1_family():
    family = rank1_family()
    w = family.bloch_at(0.4)
    assert w[2, 0] ** 2 - w[2, 1:] @ w[2, 1:] <= EPS_SINGULAR  # the spectral route
    assert type(qfi_total(family, 0.4)) is float
    assert type(skew_total(family, 0.4)) is float
    assert type(concurrence_ghz_class(family.state(0.4))) is float


RANK1_SKEW_DEFECT = pytest.mark.xfail(
    strict=True,
    reason="F2, ROADMAP item 1: _skew_block_singular is exact only for pure blocks",
)


@pytest.mark.parametrize(
    "phi",
    [
        0.2,
        0.4,
        pytest.param(0.6, marks=RANK1_SKEW_DEFECT),
        pytest.param(0.8, marks=RANK1_SKEW_DEFECT),
    ],
)
def test_skew_lies_between_fisher_and_twice_fisher_on_a_rank1_family(phi):
    # F <= S <= 2F holds for every state and tangent, so it is held with no
    # tolerance.  The rank-1 block's skew stand-in gives S/F = 0.9943 at
    # phi = 0.6 and 0.9770 at phi = 0.8.
    family = rank1_family()
    fisher = qfi_total(family, phi)
    assert fisher <= skew_total(family, phi) <= 2.0 * fisher


def zero_population_family():
    """Population 1 is zero, so block (1, 6) has weight 0 along the family."""
    d0 = np.array([0.30, 0.0, 0.10, 0.02, 0.08, 0.15, 0.25, 0.10])
    d1 = np.array([0.10, 0.0, 0.05, 0.12, 0.18, 0.05, 0.25, 0.25])
    return ParamFamily(
        state=lambda phi: XState((1.0 - phi) * d0 + phi * d1, np.zeros(4, dtype=complex)),
        tangent=lambda phi: XTangent(d1 - d0, np.zeros(4, dtype=complex)),
    )


def rank_deficient_blocks(rng, count):
    """``count`` rank-1 blocks, then ``count // 10`` zero-weight ones, with tangents."""
    weight = rng.uniform(0.05, 0.9, size=(count, 1))
    axis = rng.normal(size=(count, 3))
    axis /= np.linalg.norm(axis, axis=-1, keepdims=True)
    w = np.concatenate((np.hstack((weight, weight * axis)), np.zeros((count // 10, 4))))
    return w, 0.3 * rng.normal(size=w.shape)


def relative_error(value, reference):
    return abs(value - reference) / abs(reference) if reference else abs(value)


class TestSpectralFallback:
    """The closed-form rank-aware 2x2 sum that non-mixed blocks take."""

    def test_matches_the_jacobi_route(self):
        w, dw = rank_deficient_blocks(np.random.default_rng(31), 2000)
        closed = metrics._qfi_blocks_spectral(w, dw)
        for n in range(len(w)):
            assert relative_error(closed[n], jacobi_spectral_block(w[n], dw[n])) <= 1e-13, n
        assert not closed[2000:].any()  # a zero-weight block has an empty sum

    def test_edge_stack_matches_the_jacobi_route(self):
        # Element 4's gap = 1e-11 block has w0 - r ~ 1e-11, known to ~1e-16
        # absolute on either route: both are ~1e-5 off exact arithmetic there.
        w, dw = edge_bloch()
        out = evaluate_stack(("qfi",), *edge_stack())["qfi"]
        for n, tolerance in enumerate((1e-13, 1e-13, 1e-13, 1e-13, 1e-5)):
            jacobi = 0.0
            for a, da in zip(w[n], dw[n]):
                mixed = a[0] > EPS_SINGULAR and _scalar_gap(a, a) > EPS_SINGULAR
                jacobi += reference_qfi_block(a, da) if mixed else jacobi_spectral_block(a, da)
            assert relative_error(out[n], jacobi) <= tolerance, n

    @staticmethod
    def exact_sum(a, da):
        """The rank-aware sum in 50-digit arithmetic, from mpmath's own eigh."""
        import mpmath

        def matrix(x):
            w0, w1, w2, w3 = (mpmath.mpf(float(c)) for c in x)
            return mpmath.matrix([[w0 + w3, w1 - 1j * w2], [w1 + 1j * w2, w0 - w3]]) / 2

        with mpmath.workdps(50):
            values, vectors = mpmath.eigh(matrix(a))
            overlap = vectors.H * matrix(da) * vectors
            return sum(
                2 * abs(overlap[i, j]) ** 2 / (values[i] + values[j])
                for i in range(2)
                for j in range(2)
                if values[i] + values[j] > RANK_CUTOFF
            )

    def test_rank_deficient_blocks_to_fifty_digits(self):
        w, dw = rank_deficient_blocks(np.random.default_rng(32), 200)
        closed = metrics._qfi_blocks_spectral(w, dw)
        for n in range(len(w)):
            assert relative_error(closed[n], float(self.exact_sum(w[n], dw[n]))) <= 1e-13, n

    @pytest.mark.parametrize("gap", [1e-9, 1e-10, 3e-11, 1e-11, 1e-12])
    def test_near_singular_blocks_to_fifty_digits(self, gap):
        # w0 - r = gap / (w0 + r) carries the ~1e-16 absolute rounding of r.
        rng = np.random.default_rng(33)
        w = np.stack([_block_with_gap(rng.uniform(0.1, 0.9), gap, rng) for _ in range(40)])
        dw = 0.3 * rng.normal(size=w.shape)
        closed = metrics._qfi_blocks_spectral(w, dw)
        for n in range(len(w)):
            assert relative_error(closed[n], float(self.exact_sum(w[n], dw[n]))) <= 1e-4, n

    def test_pipeline_calls_no_eigensolver(self, monkeypatch):
        families = (rank1_family(), zero_population_family())
        totals = [(qfi_total(f, 0.4), skew_total(f, 0.4)) for f in families]
        stacked = evaluate_stack(("qfi", "skew"), *edge_stack())

        def forbidden(*args):
            raise AssertionError("the block kernel called an eigensolver")

        for module, name in ((linalg, "eigh"), (linalg, "eigh_stack"), (metrics, "eigh")):
            monkeypatch.setattr(module, name, forbidden)
        assert [(qfi_total(f, 0.4), skew_total(f, 0.4)) for f in families] == totals
        again = evaluate_stack(("qfi", "skew"), *edge_stack())
        for name in ("qfi", "skew"):
            assert np.array_equal(again[name], stacked[name])


class TestKernelBoundary:
    """The kernel checks the form of every input that a requested metric reads."""

    @pytest.mark.parametrize(
        "tangent_diag, tangent_anti",
        [((3, 8), (3, 4)), ((5, 8), (5, 3)), ((5, 7), (5, 4)), ((2, 5, 8), (2, 5, 4)), ((2,), (4,))],
    )
    def test_tangent_shapes_that_do_not_broadcast_raise(self, tangent_diag, tangent_anti):
        diag, anti, _, _ = edge_stack()
        message = (
            r"^expected a tangent that broadcasts to shapes \(5, 8\) and \(5, 4\), got shapes"
            rf" {re.escape(str(tangent_diag))} and {re.escape(str(tangent_anti))}$"
        )
        tangent = np.zeros(tangent_diag), np.zeros(tangent_anti, dtype=complex)
        for name in METRICS:
            with pytest.raises(NotXFormError, match=message):
                evaluate_stack((name,), diag, anti, *tangent)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", ["qfi", "skew"])
    def test_non_finite_tangent_raises(self, name):
        diag, anti, tangent_diag, tangent_anti = edge_stack()
        tangent_diag[3, 2] = np.inf
        tangent_diag[3, 6] = np.nan
        tangent_anti[3, 0] = np.nan
        text = r"tangent diag\[2\] is inf, not finite$"
        with pytest.raises(NotXFormError, match=r"^element 3: " + text):
            evaluate_stack((name,), diag, anti, tangent_diag, tangent_anti)
        with pytest.raises(NotXFormError, match="^" + text):
            evaluate_stack((name,), diag[3], anti[3], tangent_diag[3], tangent_anti[3])
        # A tangent broadcast over the stack is named by the stack's element.
        with pytest.raises(NotXFormError, match=r"^element 0: " + text):
            evaluate_stack((name,), diag, anti, tangent_diag[3], tangent_anti[3])
        tangent_diag[3] = 0.0
        with pytest.raises(NotXFormError, match=r"^element 3: tangent anti\[0\] is \(nan\+0j\)"):
            evaluate_stack((name,), diag, anti, tangent_diag, tangent_anti)

    @pytest.mark.filterwarnings("error")
    def test_complex_tangent_diag(self):
        stack = edge_stack()
        diag, anti, tangent_diag, tangent_anti = stack
        complex_diag = tangent_diag.astype(complex)
        same = evaluate_stack(METRICS, diag, anti, complex_diag, tangent_anti)
        expected = evaluate_stack(METRICS, *stack)
        for name in METRICS:
            assert same[name].tobytes() == expected[name].tobytes()
        complex_diag[2, 4] += 0.3j
        with pytest.raises(NotXFormError) as err:
            evaluate_stack(("qfi",), diag, anti, complex_diag, tangent_anti)
        assert str(err.value) == f"element 2: tangent diag[4] is {complex_diag[2, 4]}, not real"

    @pytest.mark.filterwarnings("error")
    def test_tangent_overflowing_in_bloch_form_raises(self):
        diag, anti, tangent_diag, tangent_anti = edge_stack()
        tangent_diag[1, 0] = tangent_diag[1, 7] = 1.7e308
        with pytest.raises(NotXFormError) as err:
            evaluate_stack(("skew",), diag, anti, tangent_diag, tangent_anti)
        assert str(err.value) == "element 1: tangent w[0, 0] is inf, not finite"

    @pytest.mark.parametrize("name", METRICS)
    def test_complex_state_populations(self, name):
        diag, anti, tangent_diag, tangent_anti = edge_stack()
        complex_diag = diag.astype(complex)
        complex_diag.imag[0, 1] = -0.0
        same = evaluate_stack((name,), complex_diag, anti, tangent_diag, tangent_anti)
        expected = evaluate_stack((name,), diag, anti, tangent_diag, tangent_anti)
        assert same[name].tobytes() == expected[name].tobytes()
        complex_diag[3, 6] += 0.05j
        with pytest.raises(NotXFormError) as err:
            evaluate_stack((name,), complex_diag, anti, tangent_diag, tangent_anti)
        assert str(err.value) == f"element 3: diag[6] is {complex_diag[3, 6]}, not real"
        # A complex scalar is named as one entry, not failed on its missing axis.
        with pytest.raises(NotXFormError, match=r"^diag\[0\] is \(0\.125\+0\.5j\), not real$"):
            evaluate_stack((name,), 0.125 + 0.5j, anti[0], tangent_diag[0], tangent_anti[0])

    @pytest.mark.parametrize("diag, anti", [((7,), (4,)), ((8,), (3,)), ((2, 8), (3, 4))])
    def test_state_shapes_raise(self, diag, anti):
        message = (
            r"^expected stacks of 8 populations and 4 coherences,"
            rf" got shapes {re.escape(str(diag))} and {re.escape(str(anti))}$"
        )
        with pytest.raises(NotXFormError, match=message):
            evaluate_stack(("concurrence",), np.full(diag, 0.125), np.zeros(anti))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", METRICS)
    @pytest.mark.parametrize(
        "field, value, text",
        [("diag", np.nan, "nan"), ("diag", -np.inf, "-inf"), ("anti", complex(0, np.inf), "infj")],
    )
    def test_non_finite_state_entry_raises(self, name, field, value, text):
        state = random_xstate(np.random.default_rng(7))
        parts = {"diag": np.stack([state.diag] * 3), "anti": np.stack([state.anti] * 3)}
        parts[field][1, 2] = value
        tangent = np.zeros(8), np.zeros(4, dtype=complex)
        message = rf"{field}\[2\] is {text}, not finite$"
        with pytest.raises(NotXFormError, match=r"^element 1: " + message):
            evaluate_stack((name,), parts["diag"], parts["anti"], *tangent)
        with pytest.raises(NotXFormError, match="^" + message):
            evaluate_stack((name,), parts["diag"][1], parts["anti"][1], *tangent)

    @pytest.mark.parametrize("q_values, p_values", [([0.5], []), ([], []), ([], [0.3])])
    def test_grid_checks_names_before_any_work(self, monkeypatch, q_values, p_values):
        def no_work(*args):
            raise AssertionError("ghz_grid built states before checking the metric names")

        monkeypatch.setattr(ghz, "_werner_compact", no_work)
        message = r"^unknown metric 'fisher'; expected qfi, skew or concurrence$"
        with pytest.raises(BadParameterError, match=message):
            ghz_grid(ChannelKind.DEPOLARIZING, q_values, p_values, metrics=("qfi", "fisher"))


def assert_grid_equals_scalar_pipeline(kind, q_values, p_values):
    grid = ghz_grid(kind, q_values, p_values)
    for j, p in enumerate(p_values):
        family = ghz_family(kind, p)
        for i, q in enumerate(q_values):
            assert grid["qfi"][i, j] == qfi_total(family, q)
            assert grid["skew"][i, j] == skew_total(family, q)
            assert grid["concurrence"][i, j] == concurrence_ghz_class(family.state(q))


@pytest.mark.parametrize("kind", list(ChannelKind))
def test_grid_equals_scalar_pipeline(kind, monkeypatch):
    q_values = (GHZ_QMIN, 0.13, 0.5, 0.77, 1.0)
    p_values = [float(p) for p in np.linspace(0.0, 1.0, 11)]
    # At most four p values per pass: the 11 p values run in 3 passes.
    monkeypatch.setattr(ghz, "GRID_POINTS", 4 * len(q_values))
    assert_grid_equals_scalar_pipeline(kind, q_values, p_values)


@pytest.mark.parametrize("kind", [ChannelKind.PHASE_DAMPING, ChannelKind.PHASE_FLIP])
def test_grid_equals_scalar_pipeline_on_acceptance_points(kind):
    # Acceptance criterion 4 reads its pipeline values from ghz_grid (through
    # crosscheck_grid) on q in {0.1..0.9} x p in {0..0.9}; the scalar route
    # must give the same bits there.
    q_values = tuple(j / 10.0 for j in range(1, 10))
    p_values = tuple(j / 10.0 for j in range(10))
    assert_grid_equals_scalar_pipeline(kind, q_values, p_values)


def test_grid_evaluates_only_requested_metrics():
    grid = ghz_grid(ChannelKind.DEPOLARIZING, (0.5,), (0.0, 0.5), metrics=("concurrence",))
    assert set(grid) == {"concurrence"} and grid["concurrence"].shape == (1, 2)


def checked_grid(kind, q_values, p_values, width=2):
    """The grid through evaluate_stack's checked boundary, ``width`` p values
    at a time, with the damped tangent made per block and broadcast over q
    by the boundary."""
    params = [ChannelParam(p) for p in p_values]
    werner = ghz._werner_compact(np.asarray(q_values, dtype=float))
    out = {name: np.empty((len(q_values), len(params))) for name in METRICS}
    for start in range(0, len(params), width):
        block = params[start : start + width]
        diag, anti = ghz._damped_compact(kind, *werner, block)
        tangent = ghz._damped_compact(kind, ghz._TANGENT_DIAG, ghz._TANGENT_ANTI, block)
        values = evaluate_stack(METRICS, diag, anti, *(part[:, None] for part in tangent))
        for name, value in values.items():
            out[name][:, start : start + len(block)] = value.T
    return out


class TestGridPath:
    """ghz_grid checks its stacks once, damps the tangent once for every p and
    hands the kernel's core the tangent un-broadcast: the same bits as the
    checked route, and less of the same work."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", list(ChannelKind))
    def test_equals_checked_route_in_raw_bits(self, kind, monkeypatch):
        # At q = 0 three blocks have zero weight (at p = 0 on every channel):
        # the core's fallback branch broadcasts the (p, 1, 4, 4) tangent over q.
        fallback = []
        spectral = metrics._qfi_blocks_spectral

        def spy(w, dw):
            fallback.append(len(w))
            return spectral(w, dw)

        monkeypatch.setattr(metrics, "_qfi_blocks_spectral", spy)
        q_values, p_values = (0.0, GHZ_QMIN, 0.5, 1.0), (0.0, 0.5, 1.0)
        # One p value per pass: both routes span more than one pass.
        monkeypatch.setattr(ghz, "GRID_POINTS", len(q_values))
        grid = ghz_grid(kind, q_values, p_values)
        assert sum(fallback) >= 3
        reference = checked_grid(kind, q_values, p_values)
        for name in METRICS:
            assert grid[name].tobytes() == reference[name].tobytes(), name

    # 40 q values give passes of at most GRID_POINTS // 40 = 25 p values.
    @pytest.mark.parametrize(
        "count, passes", [(0, 0), (1, 1), (25, 1), (26, 2), (51, 3), (52, 3)]
    )
    def test_checks_nothing_twice_and_damps_the_tangent_once(self, count, passes, monkeypatch):
        calls = {"boundary": 0, "compact": 0, "damped": 0}

        def counted(key, function):
            def counting(*args):
                calls[key] += 1
                return function(*args)

            return counting

        # evaluate_stack's state check, which ghz_grid must not reach.
        monkeypatch.setattr(metrics, "check_compact", counted("boundary", check_compact))
        monkeypatch.setattr(ghz, "check_compact", counted("compact", check_compact))
        damped = counted("damped", damped_bloch_array)
        # ghz calls it directly and through channels._damped_compact.
        monkeypatch.setattr(ghz, "damped_bloch_array", damped)
        monkeypatch.setattr(channels, "damped_bloch_array", damped)
        p_values = np.linspace(0.0, 1.0, count).tolist()
        ghz_grid(ChannelKind.DEPOLARIZING, np.linspace(GHZ_QMIN, 1.0, 40), p_values)
        # One check and one damping per pass, and one damping for the tangent of every p.
        assert calls == {"boundary": 0, "compact": passes, "damped": passes + 1}

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", list(ChannelKind))
    @pytest.mark.parametrize("names", [METRICS, ("concurrence",)])
    def test_pass_size_moves_no_bit(self, kind, names, monkeypatch):
        # q = 0 takes the fallback route at p = 0; 1 point per pass gives 21
        # one-p passes, 30 gives 7 + 7 + 7, the default and 10**9 one pass.
        q_values, p_values = (0.0, GHZ_QMIN, 0.5, 1.0), np.linspace(0.0, 1.0, 21).tolist()
        reference = ghz_grid(kind, q_values, p_values, metrics=names)
        for budget in (1, 30, 10**9):
            monkeypatch.setattr(ghz, "GRID_POINTS", budget)
            grid = ghz_grid(kind, q_values, p_values, metrics=names)
            for name in names:
                assert grid[name].tobytes() == reference[name].tobytes(), (budget, name)

    def test_working_set_is_bounded_by_grid_points(self):
        # 1,000 q x 11 p: one-p passes of 1,000 points.  Passes of eight p
        # values peaked at ~9 MiB here; the output arrays alone take 0.26 MiB.
        q_values, p_values = np.linspace(0.0, 1.0, 1000), np.linspace(0.0, 1.0, 11).tolist()
        tracemalloc.start()
        try:
            ghz_grid(ChannelKind.DEPOLARIZING, q_values, p_values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


@pytest.mark.parametrize("kind", list(ChannelKind))
def test_damping_over_a_parameter_sequence(kind):
    rng = np.random.default_rng(5)
    states = [random_xstate(rng) for _ in range(3)]
    w = np.stack([bloch_from_compact(s.diag, s.anti) for s in states])
    params = [ChannelParam(p) for p in (0.0, 0.3, 0.5, 1.0)]
    out = damped_bloch_array(kind, w, params)
    assert out.shape == (4, 3, 4, 4)
    for k, param in enumerate(params):
        for n in range(3):
            assert np.array_equal(out[k, n], damped_bloch_array(kind, w[n], param))


def test_compact_bloch_conversions_stack():
    rng = np.random.default_rng(9)
    states = [random_xstate(rng) for _ in range(6)]
    diag = np.stack([s.diag for s in states]).reshape(2, 3, 8)
    anti = np.stack([s.anti for s in states]).reshape(2, 3, 4)
    w = bloch_from_compact(diag, anti)
    back_diag, back_anti = compact_from_bloch(w)
    for n, s in enumerate(states):
        i, k = divmod(n, 3)
        assert np.array_equal(w[i, k], bloch_from_compact(s.diag, s.anti))
        single_diag, single_anti = compact_from_bloch(w[i, k])
        assert np.array_equal(back_diag[i, k], single_diag)
        assert np.array_equal(back_anti[i, k], single_anti)


def _spoil(kind, diag, anti):
    diag, anti = diag.copy(), anti.copy()
    if kind == "nan":
        diag[3] = np.nan
    elif kind == "trace":
        diag[0] += 1e-9
    elif kind == "negative":
        diag[1], diag[2] = diag[1] + diag[2] + 1e-6, -1e-6
    else:  # coherence beyond the population product of block 1
        anti[1] = 1.01 * np.sqrt(diag[1] * diag[6])
    return diag, anti


# What XState raises on each spoiled state of the seed-17 stack, byte for byte.
SPOIL_TEXT = {
    "nan": "diag[3] is nan, not finite",
    "trace": "trace 1.000000001 differs from 1 beyond 1e-12",
    "negative": "negative population -1.000e-06",
    "coherence": "block 1: |coherence|^2 exceeds population product",
}


@pytest.mark.parametrize("kind", ["nan", "trace", "negative", "coherence"])
def test_stack_check_names_the_bad_element(kind):
    rng = np.random.default_rng(17)
    states = [random_xstate(rng) for _ in range(6)]
    diag = np.stack([s.diag for s in states]).reshape(2, 3, 8)
    anti = np.stack([s.anti for s in states]).reshape(2, 3, 4)
    check_compact(diag, anti)
    bad = _spoil(kind, diag[1, 2], anti[1, 2])
    with pytest.raises((NotXFormError, TraceViolationError, BlockNotPSDError)) as alone:
        XState(*bad)
    assert str(alone.value) == SPOIL_TEXT[kind]
    diag[1, 2], anti[1, 2] = bad
    with pytest.raises(type(alone.value)) as stacked:
        check_compact(diag, anti)
    assert type(stacked.value) is type(alone.value)
    assert str(stacked.value) == f"element (1, 2): {alone.value}"
    with pytest.raises(type(alone.value), match=r"^element 5: "):
        check_compact(diag.reshape(6, 8), anti.reshape(6, 4))


def test_stack_check_rejects_mismatched_shapes():
    with pytest.raises(NotXFormError, match="shapes"):
        check_compact(np.full((2, 8), 0.125), np.zeros((3, 4), dtype=complex))


@pytest.mark.parametrize(
    "check, args",
    [
        (check_compact, (np.full((2, 7), 0.125), np.zeros((2, 4), dtype=complex))),
        (compact_from_dense, (np.eye(4, dtype=complex) / 4.0,)),
        (
            lambda *tangent: evaluate_stack(
                ("qfi", "skew"), np.full((2, 8), 0.125), np.zeros((2, 4)), *tangent
            ),
            (np.zeros((2, 7)), np.zeros((2, 4), dtype=complex)),
        ),
        (
            lambda diag, anti: evaluate_stack(("concurrence",), diag, anti),
            (np.full((2, 8), 0.125), np.zeros((2, 3), dtype=complex)),
        ),
    ],
    ids=[
        "check_compact",
        "compact_from_dense",
        "evaluate_stack-tangent",
        "evaluate_stack-compact",
    ],
)
def test_wrong_shape_raises_not_x_form(check, args):
    # A shape a validator cannot read is not an X form; no state invariant
    # (trace, positivity) is tested on it.
    with pytest.raises(NotXFormError, match="shape"):
        check(*args)


def _spoil_dense(kind, m):
    m = m.copy()
    if kind == "off-pattern":
        m[1, 2] = m[2, 1] = 1e-6
    elif kind == "imaginary-diagonal":
        m[3, 3] += 1e-6j
    elif kind == "conjugate-pair":
        m[6, 1] += 1e-6
    elif kind == "trace":
        m[0, 0] += 1e-9
    else:  # a negative population, trace kept
        m[1, 1], m[2, 2] = m[1, 1] + m[2, 2] + 1e-6, -1e-6
    return m


# What xstate_from_dense raises on each spoiled state of the seed-19 stack.
DENSE_SPOIL_TEXT = {
    "off-pattern": "off-pattern entry [1, 2] of magnitude 1.000e-06",
    "imaginary-diagonal": "diagonal entry [3, 3] has imaginary part 1.000e-06 beyond 1e-10",
    "conjugate-pair": "block 1: coherence pair is not conjugate",
    "trace": "trace 1.0000000009999996 differs from 1 beyond 1e-12",
    "negative-population": "negative population -1.000e-06",
}


@pytest.mark.parametrize(
    "kind, error",
    [
        ("off-pattern", NotXFormError),
        ("imaginary-diagonal", NotXFormError),
        ("conjugate-pair", NotXFormError),
        ("trace", TraceViolationError),
        ("negative-population", BlockNotPSDError),
    ],
)
def test_dense_stack_check_names_the_bad_element(kind, error):
    rng = np.random.default_rng(19)
    dense = np.stack([random_xstate(rng).to_dense() for _ in range(6)]).reshape(2, 3, 8, 8)
    compact_from_dense(dense)
    bad = _spoil_dense(kind, dense[1, 2])
    with pytest.raises(error) as alone:
        xstate_from_dense(bad)
    assert str(alone.value) == DENSE_SPOIL_TEXT[kind]
    dense[1, 2] = bad
    with pytest.raises(error) as stacked:
        compact_from_dense(dense)
    assert type(stacked.value) is type(alone.value)
    assert str(stacked.value) == f"element (1, 2): {alone.value}"
    with pytest.raises(error, match=r"^element 5: "):
        compact_from_dense(dense.reshape(6, 8, 8))


def test_dense_stack_conversions_match_each_state_alone():
    rng = np.random.default_rng(20)
    states = [random_xstate(rng) for _ in range(6)]
    diag = np.stack([s.diag for s in states]).reshape(2, 3, 8)
    anti = np.stack([s.anti for s in states]).reshape(2, 3, 4)
    dense = dense_from_compact(diag, anti)
    assert dense.shape == (2, 3, 8, 8)
    # A channel image carries rounding residue off the X pattern and in the
    # coherence pairs, which the conversion must drop exactly as alone.
    damped = apply_kraus_dense(dense, ChannelKind.DEPOLARIZING, ChannelParam(0.3))
    back_diag, back_anti = compact_from_dense(damped)
    for index in np.ndindex(2, 3):
        state = states[3 * index[0] + index[1]]
        assert np.array_equal(dense[index], state.to_dense())
        alone = xstate_from_dense(damped[index])
        assert np.array_equal(back_diag[index], alone.diag)
        assert np.array_equal(back_anti[index], alone.anti)


# Every stacked check names its first failing element in C order, then that
# element's first failing entry.  Each input below fails at elements (0, 2)
# and (1, 0) of a (2, 3) stack, (0, 2) at two entries and (1, 0) at an
# earlier entry than either, so that naming the last element, the last
# entry, or the stack's first failing entry gives another text.
FIRST, LATER = (0, 2), (1, 0)


def _first_failure_case(kind):
    """``(check, args, error, message)`` for one stacked check, spoiled as above."""
    rng = np.random.default_rng(23)
    states = [random_xstate(rng) for _ in range(6)]
    diag = np.stack([s.diag for s in states]).reshape(2, 3, 8)
    anti = np.stack([s.anti for s in states]).reshape(2, 3, 4)
    dense = dense_from_compact(diag, anti)
    w = bloch_from_compact(diag, anti)
    values = np.full((2, 3, 8), 1.0 / 8.0)
    vectors = np.broadcast_to(np.eye(8, dtype=complex), (2, 3, 8, 8))
    at = "element (0, 2): "
    if kind == "compact-not-finite":
        diag[FIRST + (3,)] = diag[FIRST + (5,)] = diag[LATER + (1,)] = np.nan
        return check_compact, (diag, anti), NotXFormError, at + "diag[3] is nan, not finite"
    if kind == "compact-coherence":
        for index, k in ((FIRST, 1), (FIRST, 2), (LATER, 0)):
            anti[index + (k,)] = 1.01 * np.sqrt(diag[index + (k,)] * diag[index + (7 - k,)])
        text = "block 1: |coherence|^2 exceeds population product"
        return check_compact, (diag, anti), BlockNotPSDError, at + text
    if kind == "compact-trace":
        diag[FIRST + (0,)] += 1e-9
        diag[LATER + (0,)] += 1e-9
        text = f"trace {float(diag.sum(axis=-1)[FIRST])!r} differs from 1 beyond 1e-12"
        return check_compact, (diag, anti), TraceViolationError, at + text
    if kind == "compact-negative":
        for index, k, value in ((FIRST, 2, -1e-6), (LATER, 1, -2e-6)):
            diag[index + (0,)] += diag[index + (k,)] - value
            diag[index + (k,)] = value
            anti[index] = 0.0
        text = "negative population -1.000e-06"
        return check_compact, (diag, anti), BlockNotPSDError, at + text
    if kind == "dense-off-pattern":
        dense[FIRST + (1, 2)] = dense[FIRST + (5, 6)] = dense[LATER + (0, 1)] = 1e-6
        text = "off-pattern entry [1, 2] of magnitude 1.000e-06"
        return compact_from_dense, (dense,), NotXFormError, at + text
    if kind == "dense-imaginary-diagonal":
        for index, k in ((FIRST, 3), (FIRST, 6), (LATER, 0)):
            dense[index + (k, k)] += 1e-6j
        text = "diagonal entry [3, 3] has imaginary part 1.000e-06 beyond 1e-10"
        return compact_from_dense, (dense,), NotXFormError, at + text
    if kind == "dense-conjugate-pair":
        for index, k in ((FIRST, 1), (FIRST, 2), (LATER, 0)):
            dense[index + (7 - k, k)] += 1e-6
        text = "block 1: coherence pair is not conjugate"
        return compact_from_dense, (dense,), NotXFormError, at + text
    if kind in ("kernel-trace", "kernel-coherence", "kernel-negative"):
        # A non-state raises in the kernel what it raises in check_compact.
        _, args, error, message = _first_failure_case(kind.replace("kernel", "compact"))
        tangent = np.zeros(8), np.zeros(4, dtype=complex)
        return lambda *state: evaluate_stack(METRICS, *state, *tangent), args, error, message
    if kind == "kernel-tangent":
        tangent_diag, tangent_anti = np.zeros_like(diag), np.zeros_like(anti)
        for index in (FIRST + (2,), FIRST + (5,), LATER + (1,)):
            tangent_diag[index] = np.inf
        text = "tangent diag[2] is inf, not finite"
        args = (("skew",), diag, anti, tangent_diag, tangent_anti)
        return evaluate_stack, args, NotXFormError, at + text
    if kind == "kernel-concurrence":
        anti[FIRST + (1,)] = anti[FIRST + (3,)] = anti[LATER + (0,)] = np.nan
        text = "anti[1] is (nan+0j), not finite"
        return evaluate_stack, (("concurrence",), diag, anti), NotXFormError, at + text
    if kind == "singular-block":  # each block is an element of a closed form's stack
        for index, j in ((FIRST, 1), (FIRST, 3), (LATER, 0)):
            w[index + (j,)] = [0.25, 0.25, 0.0, 0.0]
        text = "mixed-block form needs w0 > 0 and w0^2 > |w|^2, got gap 0.000e+00"
        return qfi_block_mixed, (w, w), SingularBlockError, "element (0, 2, 1): " + text
    if kind == "tangent-of-family":
        family = metrics.random_family(np.random.default_rng(70))

        def tangent(phi):
            exact = family.tangent(phi)
            diag, anti = exact.diag.copy(), exact.anti.copy()
            diag[3] = diag[5] = anti[0] = np.nan
            return XTangent(diag, anti)

        broken = ParamFamily(state=family.state, tangent=tangent)
        text = "at phi=0.5: tangent diag[3] is nan, not finite"
        return qfi_total, (broken, 0.5), NotXFormError, text
    if kind == "sqrt-spectrum":
        values[FIRST + (0,)], values[LATER + (0,)] = -1e-9, -2e-9
        text = "eigenvalue -1.000e-09 below -1e-12"
        return linalg.sqrt_from_spectrum, (values, vectors), NotPSDError, at + text
    if kind == "oracle-spectrum":
        values[FIRST + (0,)], values[LATER + (0,)] = -1e-9, -2e-9
        text = "state eigenvalue -1.000e-09 below -1e-12"
        return oracle.qfi_from_spectrum, (values, vectors, vectors), NotPSDError, at + text
    if kind == "oracle-trace":
        values[FIRST] *= 1.5
        values[LATER] *= 2.0
        text = "state trace 1.5 differs from 1"
        return oracle.qfi_from_spectrum, (values, vectors, vectors), TraceViolationError, at + text
    if kind == "oracle-column":
        states = np.broadcast_to(np.eye(8, dtype=complex) / 8.0, (3, 3, 8, 8)).copy()
        for index, low in ((FIRST, -1e-9), (LATER, -2e-9)):
            states[index] = np.diag([0.25, 0.25, 0.25, 0.25 - low, low, 0.0, 0.0, 0.0])
        text = "state eigenvalue -1.000e-09 below -1e-12"
        return oracle.oracle_column, (states, np.zeros((8, 8)), [1e-6] * 3), NotPSDError, at + text
    matrices = np.broadcast_to(np.eye(3, dtype=complex), (2, 3, 3, 3)).copy()
    if kind == "eigh-not-finite":
        matrices[FIRST + (1, 2)] = matrices[FIRST + (2, 0)] = matrices[LATER + (0, 1)] = np.nan
        # Element (0, 1), earlier in C order, is only not Hermitian: the
        # non-finite row reports first, as in every other validator.
        matrices[0, 1, 0, 1] = 1.0
        text = "matrix[1, 2] is (nan+0j), not finite"
        return linalg.eigh_stack, (matrices,), NotHermitianError, at + text
    assert kind == "eigh-hermitian"
    matrices[FIRST + (0, 1)] = matrices[LATER + (1, 0)] = 1.0
    text = "matrix is not Hermitian within 1e-12"
    return linalg.eigh_stack, (matrices,), NotHermitianError, at + text


FIRST_FAILURE_KINDS = [
    "compact-not-finite",
    "compact-coherence",
    "compact-trace",
    "compact-negative",
    "dense-off-pattern",
    "dense-imaginary-diagonal",
    "dense-conjugate-pair",
    "kernel-trace",
    "kernel-coherence",
    "kernel-negative",
    "kernel-tangent",
    "kernel-concurrence",
    "singular-block",
    "tangent-of-family",
    "sqrt-spectrum",
    "oracle-spectrum",
    "oracle-trace",
    "oracle-column",
    "eigh-not-finite",
    "eigh-hermitian",
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", FIRST_FAILURE_KINDS)
def test_check_names_the_first_bad_element_then_entry(kind):
    check, args, error, message = _first_failure_case(kind)
    with pytest.raises(error) as raised:
        check(*args)
    assert str(raised.value) == message
