"""Shared test utilities: independent reference algorithms and random draws.

eig2, expm2 and canonical_phase are brute-force 2x2 linear algebra used as
oracles: solved in closed form (characteristic polynomial, null spaces,
trace/traceless exponential splitting), they know nothing of the physical
model and call no library eigensolver, so they share no code path with the
model-specific formulas they verify.  taylor_expm is deliberately a different
algorithm from expm2 (plain Taylor series with scaling and squaring versus
the trace/traceless closed form), so the two can face each other as oracle
and subject.  reference_csv writes a sweep one value at a time, the oracle
for export_csv's column-wise formatting; reference_json builds one dict per
cell for json.dumps, the oracle for export_json's templates; and
reference_read_csv calls float() and int() on every field, the oracle for
read_csv's one-call parse.  reference_exponent fits the metric divergence
exponent block by block through metric(), the oracle for
metric_divergence_exponent's one array pass.  pseudo_hermiticity_residual
measures ||H - G^-1 H^dag G|| with a general matrix inverse, the check that a
metric G makes H pseudo-Hermitian.  mp_metric is the arbitrary-precision oracle
for the metric G: it starts from the exact float inputs and builds G from
eigenvectors in mpmath (Johansson et al., mpmath, mpmath.org), not from the
package's closed form; mp_entropy does the same for the entanglement
entropy.  The closed-form matrices further down are
hand-derived for omega = 1, epsilon = 5 and serve as entrywise pinning
targets.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import mpmath
import numpy as np

from nhjc.errors import SweepFileError
from nhjc.biortho import loglog_slope, metric
from nhjc.model import ModelParams, Phase, classify_phase, critical_gamma
from nhjc.scan import SweepTable, spec_to_dict

_TAYLOR_TERMS = 30

_EYE = np.eye(2, dtype=complex)

# Defectiveness threshold: an eigenvalue collision alone is not enough (a
# scalar matrix is degenerate but diagonalizable); for a double root the
# matrix is defective exactly when m - lambda I is nonzero.
_GAP_TOL = 1e-10


def _as_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def canonical_phase(v: np.ndarray) -> np.ndarray:
    """Rotate a global phase so the largest-modulus component is real positive."""
    j = int(np.argmax(np.abs(v)))
    a = complex(v[j])
    if a == 0.0:
        return v.copy()
    return v * (a.conjugate() / abs(a))


def _char_roots(m: np.ndarray) -> tuple[complex, complex]:
    # lambda^2 + b lambda + c with b = -tr, c = det; the root q is formed
    # from the non-cancelling combination, the other follows from Viete.
    b = -(m[0, 0] + m[1, 1])
    c = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    s = cmath.sqrt(b * b - 4.0 * c)
    if (b.conjugate() * s).real < 0.0:
        s = -s
    q = -0.5 * (b + s)
    if q == 0.0:
        return 0.0 + 0.0j, -b
    return q, c / q


def _null_vector(a: np.ndarray) -> np.ndarray:
    """Unit null vector of a numerically singular 2x2 matrix.

    Uses the better-conditioned row; for the zero matrix any vector works
    and e_1 is returned.
    """
    n0 = abs(a[0, 0]) ** 2 + abs(a[0, 1]) ** 2
    n1 = abs(a[1, 0]) ** 2 + abs(a[1, 1]) ** 2
    if n0 == 0.0 and n1 == 0.0:
        return np.array([1.0 + 0.0j, 0.0 + 0.0j])
    row = a[0] if n0 >= n1 else a[1]
    v = np.array([-row[1], row[0]])
    v /= math.sqrt(abs(v[0]) ** 2 + abs(v[1]) ** 2)
    return canonical_phase(v)


@dataclass(frozen=True)
class EigenPair2:
    """Eigensystem of a 2x2 matrix.

    right_vectors[i] solves M v = values[i] v; left_vectors[i] solves
    M^dag l = conj(values[i]) l, i.e. the left partner of the same branch
    under the biorthogonal pairing.  All vectors have unit Dirac norm and
    canonical phase.  `defective` marks a genuine eigenvector collapse.
    """

    values: tuple[complex, complex]
    right_vectors: tuple[np.ndarray, np.ndarray]
    left_vectors: tuple[np.ndarray, np.ndarray]
    defective: bool


def eig2(m) -> EigenPair2:
    """Full eigensystem from the characteristic polynomial and null spaces."""
    m = _as_matrix(m)
    l1, l2 = _char_roots(m)
    scale = float(np.linalg.norm(m))
    mh = m.conj().T
    rights, lefts = [], []
    for lam in (l1, l2):
        rights.append(_null_vector(m - lam * _EYE))
        lefts.append(_null_vector(mh - lam.conjugate() * _EYE))
    gap = abs(l1 - l2)
    tol = _GAP_TOL * max(scale, 1.0)
    defective = gap < tol and float(
        np.abs(m - 0.5 * (l1 + l2) * _EYE).max()
    ) > tol
    return EigenPair2(
        (complex(l1), complex(l2)), (rights[0], rights[1]), (lefts[0], lefts[1]), defective
    )


def pseudo_hermiticity_residual(h, big_g) -> float:
    """Frobenius norm of H - G^-1 H^dag G, with G^-1 from np.linalg.inv.

    Zero exactly when H = G^-1 H^dag G, the relation that makes G a metric
    for H (Mostafazadeh, J. Math. Phys. 43, 205 (2002)).
    """
    h = _as_matrix(h)
    big_g = _as_matrix(big_g)
    return float(np.linalg.norm(h - np.linalg.inv(big_g) @ h.conj().T @ big_g))


def expm2(m, t: float = 1.0) -> np.ndarray:
    """exp(M t) through the trace/traceless splitting.

    With N = M - (tr M / 2) I one has N^2 = q^2 I for q^2 = -det N, hence
    exp(N t) = cosh(q t) I + sinh(q t)/q N exactly; a short Taylor series
    takes over below |q t| = 1e-6 where sinh(q t)/q loses accuracy.
    """
    m = _as_matrix(m)
    half_tr = 0.5 * (m[0, 0] + m[1, 1])
    n = m - half_tr * _EYE
    q = cmath.sqrt(-(n[0, 0] * n[1, 1] - n[0, 1] * n[1, 0]))
    z = q * t
    if abs(z) < 1e-6:
        core = _EYE + n * t + (n @ n) * (0.5 * t * t)
    else:
        core = cmath.cosh(z) * _EYE + (cmath.sinh(z) / q) * n
    return cmath.exp(half_tr * t) * core



def _mp_null_vector(row_0, row_1):
    """A null vector of the singular 2x2 matrix with these rows, taken from
    the row with the larger norm so that a cancelling row is never used."""
    row = row_0 if mpmath.fsum(abs(x) ** 2 for x in row_0) >= mpmath.fsum(
        abs(x) ** 2 for x in row_1
    ) else row_1
    return [row[1], -row[0]]


def _mp_block(omega: float, epsilon: float, gamma: float, n: int):
    """Block h, its trace and the root of its characteristic polynomial's
    discriminant, from the exact binary values of the inputs, at the working
    precision."""
    w, e, g = (mpmath.mpf(x) for x in (omega, epsilon, gamma))
    d = g * mpmath.sqrt(n + 1)
    h = [[e / 2 + n * w, d], [-d, -e / 2 + (n + 1) * w]]
    trace = h[0][0] + h[1][1]
    root = mpmath.sqrt(mpmath.mpc(trace**2 - 4 * (h[0][0] * h[1][1] - h[0][1] * h[1][0])))
    return h, trace, root


def mp_entropy(omega: float, epsilon: float, gamma: float, n: int, sign: int, dps: int = 400):
    """Entanglement entropy, in nats, of the right eigenvector with eigenvalue
    (tr h + sign root) / 2, at dps digits.  The eigenvector is a null vector
    of h - lambda I; the reduced spectrum is its two squared moduli over
    their sum.  Off the EP band only; gamma != 0."""
    with mpmath.workdps(dps):
        h, trace, root = _mp_block(omega, epsilon, gamma, n)
        lam = (trace + sign * root) / 2
        right = _mp_null_vector([h[0][0] - lam, h[0][1]], [h[1][0], h[1][1] - lam])
        weights = [abs(x) ** 2 for x in right]
        pair = [x / (weights[0] + weights[1]) for x in weights]
        return -mpmath.fsum(x * mpmath.log(x) for x in pair)


def mp_metric(omega: float, epsilon: float, gamma: float, n: int, dps: int = 50):
    """Metric G = sum_i |L_i><L_i| of one block at dps digits, an mpmath matrix.

    The inputs are taken as the exact binary values of the floats.  The
    eigenvalues come from the characteristic polynomial, each right and left
    eigenvector from a null space, and each unscaled pair (L_i, R_i) enters
    with the weight ||R_i|| / (||L_i|| |<L_i|R_i>|) that the normalization
    <L_i|R_i> = 1, ||L_i|| = ||R_i|| gives.  Off the EP band only; gamma != 0.
    """
    with mpmath.workdps(dps):
        h, trace, root = _mp_block(omega, epsilon, gamma, n)
        big_g = mpmath.zeros(2, 2)
        for lam in ((trace + root) / 2, (trace - root) / 2):
            right = _mp_null_vector([h[0][0] - lam, h[0][1]], [h[1][0], h[1][1] - lam])
            lam_c = mpmath.conj(lam)
            left = _mp_null_vector([h[0][0] - lam_c, h[1][0]], [h[0][1], h[1][1] - lam_c])
            overlap = mpmath.conj(left[0]) * right[0] + mpmath.conj(left[1]) * right[1]
            weight = mpmath.sqrt(abs(right[0]) ** 2 + abs(right[1]) ** 2) / (
                mpmath.sqrt(abs(left[0]) ** 2 + abs(left[1]) ** 2) * abs(overlap)
            )
            for i in range(2):
                for j in range(2):
                    big_g[i, j] += weight * left[i] * mpmath.conj(left[j])
        return big_g


def mp_condition(omega: float, epsilon: float, gamma: float, n: int, dps: int = 50) -> float:
    """max(b2, c2) / |D| of the exact inputs, b2 = (omega - epsilon)^2 and
    c2 = 4 gamma^2 (n+1): the condition number of D = b2 - c2."""
    with mpmath.workdps(dps):
        b2 = (mpmath.mpf(omega) - mpmath.mpf(epsilon)) ** 2
        c2 = 4 * mpmath.mpf(gamma) ** 2 * (n + 1)
        return float(max(b2, c2) / abs(b2 - c2))


def mp_frobenius(m) -> mpmath.mpf:
    """Frobenius norm of an mpmath matrix."""
    return mpmath.sqrt(mpmath.fsum(abs(x) ** 2 for x in m))


def mp_relative_error(got, want) -> float:
    """Normwise relative error ||got - want||_F / ||want||_F of a numpy array
    or float against an mpmath matrix or number, at want's precision."""
    if isinstance(want, mpmath.matrix):
        diff = mpmath.matrix(np.asarray(got, dtype=complex).tolist()) - want
        return float(mp_frobenius(diff) / mp_frobenius(want))
    return float(abs(mpmath.mpf(got) - want) / abs(want))


def taylor_expm(m, t: float = 1.0) -> np.ndarray:
    """exp(M t) via a 30-term Taylor series with scaling and squaring.

    The scaling power is the smallest that brings the max-row-sum norm below
    1/2; each squaring roughly doubles the rounding error, so keeping the
    count minimal keeps the reference accurate to ~2**s * eps.
    """
    a = np.asarray(m, dtype=complex) * t
    norm = float(np.abs(a).sum(axis=1).max())
    s = max(0, math.ceil(math.log2(norm)) + 1) if norm > 0.5 else 0
    a = a / 2.0**s
    term = np.eye(2, dtype=complex)
    total = np.eye(2, dtype=complex)
    for k in range(1, _TAYLOR_TERMS):
        term = term @ a / k
        total = total + term
    for _ in range(s):
        total = total @ total
    return total


def random_params(rng, phase: str | None = None, margin: float = 1e-3, n_max: int = 5) -> ModelParams:
    """One random parameter draw, redrawn while too close to the EP band.

    Draws with |discriminant| < margin * scale are rejected, where scale is
    the characteristic size max(1, (omega-eps)^2, 4 gamma^2 (n+1)) also used
    by the EP tolerance; margin = 0 disables the rejection.  `phase`
    restricts the draw to "unbroken" or "broken".
    """
    while True:
        omega = rng.uniform(-3.0, 3.0)
        epsilon = rng.uniform(-5.0, 5.0)
        gamma = rng.uniform(0.05, 3.0) * (1.0 if rng.random() < 0.5 else -1.0)
        n = int(rng.integers(0, n_max + 1))
        p = ModelParams(omega, epsilon, gamma, n)
        scale = max(1.0, (omega - epsilon) ** 2, 4.0 * gamma**2 * (n + 1))
        d = classify_phase(p).discriminant
        if abs(d) < margin * scale:
            continue
        if phase == "unbroken" and d <= 0.0:
            continue
        if phase == "broken" and d >= 0.0:
            continue
        return p


def random_complex(rng, scale: float = 1.0) -> np.ndarray:
    """2x2 matrix with independent standard complex normal entries, times scale."""
    return scale * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))


def random_bloch(rng) -> np.ndarray:
    """Uniform random direction with radius in [0, 1)."""
    r = rng.normal(size=3)
    r /= np.linalg.norm(r)
    return r * rng.uniform(0.0, 1.0)


def match_order(values, targets):
    """Reorder a pair of eigenvalues to best match a target pair."""
    a, b = values
    x, y = targets
    if abs(a - x) + abs(b - y) <= abs(a - y) + abs(b - x):
        return a, b
    return b, a


def reference_csv(cells) -> str:
    """CSV text of a sweep by the per-value rule, one cell at a time.

    "%.17g" % v for every float, "" for an omitted extra, str() for the
    block index and the phase name; extras sorted by key.  This is the
    format export_csv must reproduce byte for byte.
    """
    cells = list(cells)
    keys = sorted({k for c in cells for k in c.extras})
    lines = [",".join([
        *cells[0].axis_names, "n", "phase", "discriminant", "eigenvalue_I_re",
        "eigenvalue_I_im", "eigenvalue_II_re", "eigenvalue_II_im", *keys,
    ])]
    for c in cells:
        e_I, e_II = c.eigenvalues.eigenvalue_I, c.eigenvalues.eigenvalue_II
        floats = [c.discriminant, e_I.real, e_I.imag, e_II.real, e_II.imag]
        lines.append(",".join([
            *("%.17g" % v for v in c.coords), str(c.n), str(c.phase.value),
            *("%.17g" % v for v in floats),
            *("%.17g" % c.extras[k] if k in c.extras else "" for k in keys),
        ]))
    return "\n".join(lines) + "\n"



_BASE_KEYS = (
    "n", "phase", "discriminant", "eigenvalue_I_re", "eigenvalue_I_im",
    "eigenvalue_II_re", "eigenvalue_II_im",
)


def reference_json(table: SweepTable, spec) -> str:
    """JSON text of a sweep by json.dumps over one dict per cell.

    A cell's dict holds its coordinates, the base fields and the extras it
    does not omit; the payload adds spec_to_dict(spec) as `meta`.  This is
    the text export_json must reproduce byte for byte.
    """
    columns = {name: c.tolist() for name, c in zip(table.axis_names, table.coords)}
    columns.update(
        n=table.n.tolist(),
        phase=[tuple(Phase)[code].value for code in table.phase.tolist()],
        discriminant=table.discriminant.tolist(),
        eigenvalue_I_re=table.eigenvalue_I.real.tolist(),
        eigenvalue_I_im=table.eigenvalue_I.imag.tolist(),
        eigenvalue_II_re=table.eigenvalue_II.real.tolist(),
        eigenvalue_II_im=table.eigenvalue_II.imag.tolist(),
    )
    cells = []
    for i in range(len(table)):
        cell = {k: column[i] for k, column in columns.items()}
        cell.update(
            (k, float(v[i])) for k, v in table.extras.items() if not table.omitted[k][i]
        )
        cells.append(cell)
    payload = {"meta": spec_to_dict(spec), "cells": cells}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def reference_read_csv(text: str) -> SweepTable:
    """A CSV sweep with a valid header read by float() and int() on every field.

    Raises SweepFileError with read_csv's message for a line with the wrong
    number of fields or a bad value.  Columns are checked in read_csv's
    order: n (parsed, then range-checked), the eigenvalue parts, the axes,
    phase, discriminant, the extras; within a column the first bad row is
    named.  This is the outcome read_csv's one-call parse must reproduce.
    """
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    for k, row in enumerate(rows, start=2):
        if len(row) != len(header):
            fields = len(row) if lines[k - 1] else 0
            raise SweepFileError(f"line {k}: {fields} fields, the header has {len(header)}")

    def column(name, fn):
        i = header.index(name)
        values = []
        for k, row in enumerate(rows, start=2):
            try:
                values.append(fn(row[i]))
            except (ValueError, KeyError):
                raise SweepFileError(f"line {k}: bad {name} {row[i]!r}") from None
        return values

    def block_index(v):
        if not 0 <= int(v) < 2**63:
            raise ValueError(v)
        return int(v)

    axes = header[:header.index("n")]
    extra_keys = header[len(axes) + len(_BASE_KEYS):]
    column("n", int)
    n = column("n", block_index)
    eigen = [column(k, float) for k in _BASE_KEYS[3:]]
    coords = [column(a, float) for a in axes]
    codes = {p.value: k for k, p in enumerate(Phase)}
    phase = column("phase", codes.__getitem__)
    discriminant = column("discriminant", float)
    extras = {k: column(k, lambda v: math.nan if v == "" else float(v)) for k in extra_keys}
    return SweepTable(
        axes, coords, n, phase, discriminant,
        [complex(re, im) for re, im in zip(eigen[0], eigen[1])],
        [complex(re, im) for re, im in zip(eigen[2], eigen[3])],
        extras,
        {k: [row[header.index(k)] == "" for row in rows] for k in extra_keys},
    )


def reference_exponent(p: ModelParams, side: str) -> float:
    """metric_divergence_exponent one offset block at a time, for a window
    past its delta_c > 0.1 check: a ModelParams per offset, metric() on each,
    which raises where that block's square overflows or it sits in the EP
    band, and loglog_slope over the norms sqrt(2 (G00^2 + G01^2))."""
    root_n1 = math.sqrt(p.n + 1)
    delta_c = root_n1 * critical_gamma(p)
    sign = -1.0 if side == "below" else 1.0
    offsets = np.geomspace(1e-4, 1e-1, 20)
    metrics = [metric(ModelParams(p.omega, p.epsilon, (delta_c + sign * x) / root_n1, p.n))
               for x in offsets.tolist()]
    diag = np.array([g[0, 0].real for g in metrics])
    off = np.array([g[0, 1].real for g in metrics])
    return loglog_slope(offsets, np.sqrt(2.0 * (diag * diag + off * off)))


# ---------------------------------------------------------------------------
# Hand-derived closed forms at omega = 1, epsilon = 5, delta = sqrt(n+1) gamma.
# The discriminant is 16 - 4 delta^2, so delta < 2 is unbroken, delta > 2 broken.


def unbroken_metric(delta: float) -> np.ndarray:
    s = math.sqrt(4.0 - delta * delta)
    return np.array([[2.0, delta], [delta, 2.0]], dtype=complex) / s


def unbroken_intertwiner(delta: float) -> np.ndarray:
    sp = math.sqrt(2.0 + delta)
    sm = math.sqrt(2.0 - delta)
    f = 1.0 / (2.0 * (4.0 - delta * delta) ** 0.25)
    return f * np.array([[sp + sm, sp - sm], [sp - sm, sp + sm]], dtype=complex)


def unbroken_intertwiner_inv(delta: float) -> np.ndarray:
    sp = math.sqrt(2.0 + delta)
    sm = math.sqrt(2.0 - delta)
    f = (4.0 - delta * delta) ** 0.25 / 2.0
    return f * np.array(
        [[1 / sp + 1 / sm, 1 / sp - 1 / sm], [1 / sp - 1 / sm, 1 / sp + 1 / sm]],
        dtype=complex,
    )


def unbroken_isospectral(n: int, delta: float) -> np.ndarray:
    root = math.sqrt(4.0 - delta * delta)
    return np.diag([n + 0.5 + root, n + 0.5 - root]).astype(complex)


def unbroken_projectors(delta: float):
    s = math.sqrt(4.0 - delta * delta)
    rho_one = np.array([[s + 2.0, delta], [-delta, s - 2.0]], dtype=complex) / (2.0 * s)
    rho_two = np.array([[s - 2.0, -delta], [delta, s + 2.0]], dtype=complex) / (2.0 * s)
    return rho_one, rho_two


def broken_metric(delta: float) -> np.ndarray:
    s = math.sqrt(delta * delta - 4.0)
    return np.array([[delta, 2.0], [2.0, delta]], dtype=complex) / s


def broken_intertwiner(delta: float) -> np.ndarray:
    tp = math.sqrt(delta + 2.0)
    tm = math.sqrt(delta - 2.0)
    f = 1.0 / (2.0 * (delta * delta - 4.0) ** 0.25)
    return f * np.array([[tp + tm, tp - tm], [tp - tm, tp + tm]], dtype=complex)


def broken_intertwiner_inv(delta: float) -> np.ndarray:
    tp = math.sqrt(delta + 2.0)
    tm = math.sqrt(delta - 2.0)
    f = (delta * delta - 4.0) ** 0.25 / 2.0
    return f * np.array(
        [[1 / tp + 1 / tm, 1 / tp - 1 / tm], [1 / tp - 1 / tm, 1 / tp + 1 / tm]],
        dtype=complex,
    )


def broken_isospectral(n: int, delta: float) -> np.ndarray:
    root = math.sqrt(delta * delta - 4.0)
    return np.array([[n + 0.5, root], [-root, n + 0.5]], dtype=complex)


def broken_projectors(delta: float):
    iroot = 1j * math.sqrt(delta * delta - 4.0)
    rho_one = np.array([[iroot + 2.0, delta], [-delta, iroot - 2.0]], dtype=complex)
    rho_two = np.array([[iroot - 2.0, -delta], [delta, iroot + 2.0]], dtype=complex)
    return rho_one / (2.0 * iroot), rho_two / (2.0 * iroot)
