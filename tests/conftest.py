import numpy as np
import pytest
from hypothesis import settings

from polarchan.bench_sim import BenchConfig, Crystal, Waveplate, normalize_delays
from polarchan.channel_analysis import EllipsoidReport, pauli_feasible
from polarchan.depolarizer import in_reachable_region, radii_closed_form
from polarchan.polar_core import KET_H, KET_P, KET_R, KET_V, PAULI_BASIS, ket_projector, rotation2


# hypothesis draws fresh examples on every run; CI passes --hypothesis-profile=ci,
# which derives them from each test instead, so that a CI run can be repeated
settings.register_profile("ci", derandomize=True)


def random_physical_stokes(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish point inside the Poincare ball."""
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    return direction * rng.uniform(0.0, 1.0)


def random_bench(rng: np.random.Generator, max_elements: int = 6) -> BenchConfig:
    """Random mix of crystals (integer lengths 1-5) and wave plates."""
    n = int(rng.integers(1, max_elements + 1))
    elements = []
    for _ in range(n):
        if rng.uniform() < 0.6:
            elements.append(Crystal(int(rng.integers(1, 6)), float(rng.uniform(0, 180))))
        else:
            kind = "half" if rng.uniform() < 0.7 else "quarter"
            elements.append(Waveplate(kind, float(rng.uniform(0, 180))))
    if not any(isinstance(el, Crystal) for el in elements):
        elements.append(Crystal(int(rng.integers(1, 6)), float(rng.uniform(0, 180))))
    return BenchConfig(tuple(elements))


def restyled_bench(rng: np.random.Generator, bench: BenchConfig) -> BenchConfig:
    """The same elements, lengths and plate kinds as ``bench``, with fresh random angles."""
    return BenchConfig(tuple(
        Crystal(el.length, float(rng.uniform(0, 180))) if isinstance(el, Crystal)
        else Waveplate(el.kind, float(rng.uniform(0, 180)))
        for el in bench.elements
    ))


def reference_channel(operators, rho) -> np.ndarray:
    """The Kraus sum sum_d K_d rho K_d^dag of one state, by a loop: zeros, then bins in
    order.  The independent reference for apply_channel, which reads chi instead."""
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros((2, 2), dtype=complex)
    for k in operators:
        out += k @ rho @ k.conj().T
    return out


def reference_transfer(bench, jones_at=None, dtype=float):
    """The delay-dictionary loop of propagation, one bench at a time: every
    bin, numerically zero or not, as sorted ``(delays, transfer matrices)``.

    Typed as the kernel is: the identity, the crystal projectors and every Jones
    matrix whose imaginary part is all zero are real, and each product takes the
    dtype numpy's promotion gives it, so a bench stays real until its first
    complex Jones matrix; every matrix is cast to complex at the end.  With
    ``dtype=complex`` it is the loop as first written, every matrix complex from
    the start.  ``jones_at`` maps element indices to Jones matrices that stand in
    for those wave plates'."""
    def typed(m):
        m = np.asarray(m)
        return m.real if dtype is float and not m.imag.any() else m.astype(complex)

    bench = normalize_delays(bench)
    jones_at = jones_at or {}
    transfer = {0: typed(np.eye(2))}
    for k, el in enumerate(bench.elements):
        if isinstance(el, Waveplate):
            u = typed(jones_at[k] if k in jones_at else el.jones())
            transfer = {d: u @ t for d, t in transfer.items()}
            continue
        shift = int(el.length)
        r = rotation2(el.fast_axis_deg)
        fast = typed(np.outer(r[:, 0], r[:, 0]))
        slow = typed(np.outer(r[:, 1], r[:, 1]))
        merged = {}
        for d, t in transfer.items():
            merged[d] = merged[d] + fast @ t if d in merged else fast @ t
            merged[d + shift] = merged[d + shift] + slow @ t if d + shift in merged else slow @ t
        transfer = merged
    delays = sorted(transfer)
    return delays, [transfer[d].astype(complex) for d in delays]


def reference_propagate(bench):
    """:func:`reference_transfer` with the numerically-zero bins dropped."""
    pairs = [(d, t) for d, t in zip(*reference_transfer(bench))
             if np.sqrt((np.abs(t) ** 2).sum()) > 1e-14]
    return [d for d, _ in pairs], [t for _, t in pairs]


def reference_completeness_defect(ops) -> np.ndarray:
    """The completeness defect as first written: per bench of a ``(B, n, 2, 2)``
    Kraus stack, the max-norm of sum_d K_d^dag K_d - I."""
    acc = (ops.conj().swapaxes(-1, -2) @ ops).sum(axis=-3)
    return np.abs(acc - np.eye(2)).max(axis=(-2, -1))


def reference_polar_decompose(m, atol: float = 1e-10) -> EllipsoidReport:
    """polar_decompose as first written: an SVD and its determinants for every
    map, axis-aligned or not, then the diagonal for an axis-aligned one."""
    m = np.asarray(m, dtype=float).reshape(3, 3)
    u, sing, vt = np.linalg.svd(m)
    det_m = float(np.linalg.det(m))
    rank_deficient = sing.min() <= atol
    o = u @ vt
    if rank_deficient and np.linalg.det(o) < 0:
        # flip the weakest left-singular direction; S is unchanged at rank
        u = u.copy()
        u[:, -1] *= -1.0
        o = u @ vt
    det_sign = 1.0 if np.linalg.det(o) > 0 else -1.0

    off_diag = np.abs(m - np.diag(np.diag(m))).max()
    if off_diag <= atol:
        radii = tuple(np.diag(m))
        rotation = np.diag([1.0 if r >= 0 else -1.0 for r in radii])
        return EllipsoidReport(radii, rotation, float(np.linalg.det(rotation)), True)

    radii = sing.copy()
    radii[-1] *= det_sign
    return EllipsoidReport(tuple(radii), o, det_sign, False)


def clipped_trace(proj, rho):
    return min(max(float(np.trace(proj @ rho).real), 0.0), 1.0)


def reference_probability_table(kraus, inputs, projectors):
    """One channel output per input, then one scalar trace per projector."""
    table = np.empty((len(inputs), len(projectors)))
    for i, rho in enumerate(inputs):
        out = reference_channel(kraus.operators, rho)
        for j, proj in enumerate(projectors):
            table[i, j] = clipped_trace(proj, out)
    return table


def reference_tri(params, dim) -> np.ndarray:
    """Cholesky parameters to T as first written: a dense T filled by 2-D index pairs."""
    t = np.zeros((dim, dim), dtype=complex)
    t[np.diag_indices(dim)] = params[:dim]
    t[np.tril_indices(dim, -1)] = params[dim::2] + 1j * params[dim + 1::2]
    return t


def reference_nll_and_grad(params, a_tensor, counts, shots, dim):
    """The Poisson NLL and gradient as first written: dense T, np.clip, a log at every setting."""
    t = reference_tri(params, dim)
    gram = t.conj().T @ t
    tau = float(np.trace(gram).real)
    x = gram / tau
    p = np.einsum("smn,mn->s", a_tensor, x).real
    p_safe = np.clip(p, 1e-12, None)
    lam = shots * p
    with np.errstate(divide="ignore", invalid="ignore"):
        nll = float(np.sum(lam - np.where(counts > 0, counts * np.log(shots * p_safe), 0.0)))
    w = np.where(p > 1e-12, shots - counts / p_safe, shots)
    b = np.einsum("s,smn->mn", w, a_tensor)
    pbar = float(np.sum(b * x).real)
    g_t = t @ (b.conj() - pbar * np.eye(dim)) / tau
    grad = np.empty_like(params)
    grad[:dim] = 2.0 * np.diag(g_t).real
    below = g_t[np.tril_indices(dim, -1)]
    grad[dim::2] = 2.0 * below.real
    grad[dim + 1::2] = 2.0 * below.imag
    return nll, grad


def reference_pauli_strings(dim) -> np.ndarray:
    """The Pauli strings of a 2x2 or 4x4 T, one np.kron at a time: the Pauli basis, or E_a (x) E_b."""
    if dim == 2:
        return np.stack(PAULI_BASIS)
    return np.stack([np.kron(a, b) for a in PAULI_BASIS for b in PAULI_BASIS])


def reference_root_nll_and_grad(params, a_tensor, counts, shots, dim):
    """The Poisson NLL and gradient of X = T^2 / Tr(T^2), T = sum_k params_k S_k, by dense
    traces: with B = sum_s w_s A_s^T, the gradient is Re Tr((T B + B T - 2 (w.p) T) S_k) / Tr(T^2)."""
    strings = reference_pauli_strings(dim)
    t = np.einsum("k,kmn->mn", params, strings)
    gram = t @ t
    tau = float(np.trace(gram).real)
    p = np.einsum("smn,mn->s", a_tensor, gram / tau).real
    p_safe = np.clip(p, 1e-12, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        nll = float(np.sum(shots * p - np.where(counts > 0, counts * np.log(shots * p_safe), 0.0)))
    w = np.where(p > 1e-12, shots - counts / p_safe, shots)
    b = np.einsum("s,smn->nm", w, a_tensor)
    d = t @ b + b @ t - 2.0 * (w @ p) * t
    return nll, np.einsum("kmn,nm->k", strings, d).real / tau


def reference_nll_hessian(params, forms, counts, shots):
    """The full parameter Hessian of the NLL over the forms Q_s, one setting at a time:
    sum_s w_s hess p_s + sum_s (n_s/p_s^2) grad p_s grad p_s^T, with
    grad p_s = (2/tau)(Q_s params - p_s params) and
    hess p_s = (2/tau)(Q_s - p_s I - params grad p_s^T - grad p_s params^T).  A setting
    at the 1e-12 floor has a constant log term there, so it adds N hess p_s alone."""
    n = params.size
    tau = params @ params
    hess = np.zeros((n, n))
    for q, count in zip(forms.reshape(-1, n, n), counts):
        v = q @ params
        p = v @ params / tau
        g = (2.0 / tau) * (v - p * params)
        hess_p = (2.0 / tau) * (q - p * np.eye(n) - np.outer(params, g) - np.outer(g, params))
        if p > 1e-12:
            hess += (shots - count / p) * hess_p + (count / (p * p)) * np.outer(g, g)
        else:
            hess += shots * hess_p
    return hess


def reference_stokes(row) -> np.ndarray:
    """qst_linear's per-axis loop as first written: indeterminate axes stay 0."""
    stokes = np.zeros(3)
    for axis in range(3):
        plus, minus = row[2 * axis], row[2 * axis + 1]
        total = plus + minus
        if total != 0:
            stokes[axis] = (plus - minus) / total
    return stokes


def reference_hermitian_basis() -> np.ndarray:
    """The 16 Hermitian 4x4 basis matrices: diagonal units, then symmetric/antisymmetric pairs."""
    basis = []
    for i in range(4):
        h = np.zeros((4, 4), dtype=complex)
        h[i, i] = 1.0
        basis.append(h)
    for i in range(4):
        for j in range(i + 1, 4):
            h = np.zeros((4, 4), dtype=complex)
            h[i, j] = h[j, i] = 1.0
            basis.append(h)
            h = np.zeros((4, 4), dtype=complex)
            h[i, j] = -1.0j
            h[j, i] = 1.0j
            basis.append(h)
    return np.stack(basis)


def reference_qpt_design() -> np.ndarray:
    """The linear-QPT design as first written: column k holds the stacked
    (1, Stokes) outputs of the four preparations (built from their kets, independently
    of the package's coordinates) under Hermitian basis matrix k."""
    design = np.empty((16, 16))
    for col, h in enumerate(reference_hermitian_basis()):
        row_idx = 0
        for rho in map(ket_projector, (KET_H, KET_V, KET_P, KET_R)):
            image = np.zeros((2, 2), dtype=complex)
            for m in range(4):
                for n in range(4):
                    if h[m, n] != 0.0:
                        image += h[m, n] * (PAULI_BASIS[m] @ rho @ PAULI_BASIS[n].conj().T)
            for i in range(4):
                design[row_idx, col] = np.trace(PAULI_BASIS[i] @ image).real
                row_idx += 1
    return design


def reference_qpt_linear(table) -> np.ndarray:
    """qpt_linear as first written: one Stokes loop per input, a least-squares
    solve against the design, then chi one basis term at a time."""
    targets = [[1.0, *reference_stokes(row)] for row in np.asarray(table, dtype=float)]
    coeffs, *_ = np.linalg.lstsq(reference_qpt_design(), np.asarray(targets, dtype=float).ravel(),
                                 rcond=None)
    chi = np.zeros((4, 4), dtype=complex)
    for c, h in zip(coeffs, reference_hermitian_basis()):
        chi += c * h
    return chi


def record_seed_sequence(seed: int, stream: int) -> np.random.SeedSequence:
    """The seed sequence of a count record: the run seed, spawned at ``stream``."""
    return np.random.SeedSequence(seed, spawn_key=(stream,))


def reference_counts(seed: int, stream: int, lam) -> np.ndarray:
    """The count-table spec: one Philox generator per (seed, stream) record,
    drawing Poisson(lam) one entry at a time in row-major order; a mean below
    1e-12 draws nothing and counts 0."""
    gen = np.random.Generator(np.random.Philox(record_seed_sequence(seed, stream)))
    lam = np.asarray(lam, dtype=float)
    return np.array([gen.poisson(x) if x >= 1e-12 else 0 for x in lam.ravel().tolist()],
                    dtype=np.int64).reshape(lam.shape)


def reference_region_lines(grid_n: int) -> list:
    """The region CSV lines as first written: one ``%`` per grid point."""
    angles = np.linspace(0.0, 45.0, grid_n)
    r1, r2, _ = radii_closed_form(angles[:, None], angles[None, :])
    lines = ["theta1,theta2,r1,r2"]
    angle_cells = ["%.6f" % a for a in angles.tolist()]
    for i, a1 in enumerate(angle_cells):
        lines += ["%s,%s,%.12g,%.12g" % (a1, a2, v1, v2)
                  for a2, v1, v2 in zip(angle_cells, r1[i].tolist(), r2[i].tolist())]
    return lines


def reference_feasibility_lines(r_step: float) -> list:
    """The feasibility CSV lines as first written: one ``%`` per grid point, on an
    axis of np.arange's values that stops at 1 + 1e-9, as a sweep's rows do."""
    values = np.arange(-1.0, 1.0 + r_step / 2, r_step)
    values = values[[-1.0 + k * r_step <= 1.0 + 1e-9 for k in range(len(values))]]
    r1, r2 = np.meshgrid(values, values, indexing="ij")
    feasible, lam = pauli_feasible(r1, r2, r2)
    reachable = in_reachable_region(r1, r2)
    lines = ["r1,r2,lambda0,lambda1,lambda2,lambda3,feasible,reachable"]
    flags = ("false", "true")
    columns = values.tolist()
    for i, v1 in enumerate(columns):
        lines += [
            "%.12g,%.12g,%.12g,%.12g,%.12g,%.12g,%s,%s"
            % (v1, v2, l0, l1, l2, l3, flags[f], flags[r])
            for v2, (l0, l1, l2, l3), f, r in zip(
                columns, lam[i].tolist(), feasible[i].tolist(), reachable[i].tolist())
        ]
    return lines


def same_bits(a, b) -> bool:
    # byte equality, so 0.0 and -0.0 differ
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240901)
