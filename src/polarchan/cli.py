"""Command-line front end: config-driven simulation, sweeps, and tomography runs.

Configuration files are flat ``key = value`` text with ``#`` comments and a
required ``mode`` key.  Benches come either from a named preset (``fig1``,
``lyot``, ``two_crystal``, ``rotated_crystals``) or from repeated inline
``element = crystal(length, angle)`` / ``element = hwp(angle)`` /
``element = qwp(angle)`` lines, applied in file order.

Every mode emits a CSV dataset (LF line endings, ``,`` separator, mandatory
header).  Angle columns carry six decimals; other numeric columns use
12-significant-digit shortest form, so outputs are bit-stable across runs
and across ``--jobs`` settings.  Each mode returns its CSV as chunks of
whole lines (the grid modes one chunk per block of grid rows), which are
written one at a time.

Exit codes: 0 success, 1 configuration/validation error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .bench_sim import (
    MAX_DELAY_BINS,
    BenchConfig,
    Crystal,
    Waveplate,
    _kept_chi,
    _parse_length,
    affine_map,
    delay_bin_bound,
    propagate,
    propagate_stack,
)
from .channel_analysis import chi_eigenvalues, chi_from_kraus, pauli_feasible, polar_decompose
from .depolarizer import (
    _MAX_GRID_POINTS,
    DegenerateLengthRatioWarning,
    DepolarizerSettings,
    _check_region_grid,
    _compensated_radii,
    _control_plate_benches,
    build_bench,
    build_bench_rotated_crystals,
    build_lyot,
    build_two_crystal,
    dop_isotropic,
    in_reachable_region,
    isotropic_theta1_angles,
    radii_closed_form,
    reachable_region_scan,
)
from .tomography import (
    _PROCESS_DESIGN,
    INPUT_LABELS,
    MAX_SHOTS,
    TomoSettings,
    _draw_counts,
    qpt_mle,
    simulate_counts,
)

MODES = ("simulate", "sweep", "tomo", "feasibility", "region")

#: per preset, the key it requires (None: no key) and its bench builder; each
#: builder is looked up in this module when called, so a patched one is the one called
_PRESET_TABLE = {
    "fig1": ("theta2", lambda cfg: build_bench(DepolarizerSettings(cfg.theta1, cfg.theta2,
                                                                   cfg.length1, cfg.length2))),
    "lyot": (None, lambda cfg: build_lyot(cfg.length)),
    "two_crystal": ("angle", lambda cfg: build_two_crystal(cfg.angle)),
    "rotated_crystals": ("rotation", lambda cfg: build_bench_rotated_crystals(cfg.rotation)),
}
PRESETS = tuple(_PRESET_TABLE)

ENV_SEED = "POLARCHAN_SEED"

#: sweep rows propagated together; bounds the stack's memory
_SWEEP_BLOCK = 256

#: longest offending value or line that an error message echoes in full
_ECHO_CHARS = 60

class ConfigError(Exception):
    """Carries one message per configuration problem, with line numbers."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass
class RunConfig:
    """Validated run description assembled from a config file."""

    mode: str
    preset: Optional[str] = None
    elements: tuple = ()
    theta1: float = isotropic_theta1_angles()[1]  # fig1: the isotropic 31.316... deg
    theta2: Optional[float] = None
    theta2_start: Optional[float] = None
    theta2_stop: Optional[float] = None
    theta2_step: Optional[float] = None
    length: Fraction = Fraction(1)
    length1: Fraction = Fraction(1)
    length2: Fraction = Fraction(2)
    angle: Optional[float] = None
    rotation: Optional[float] = None
    tomo: bool = False
    n: int = 10_000
    seed: Optional[int] = None
    counts_out: Optional[str] = None
    out: Optional[str] = None
    r_step: float = 0.01
    grid_n: int = 451


def _echo(value) -> str:
    """``repr(value)`` for an error message, cut after its first _ECHO_CHARS
    characters, with the full length noted, when the text is longer."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= _ECHO_CHARS:
        return repr(value)
    cut = text[:_ECHO_CHARS] + "…"
    return f"{cut!r} ({len(text)} chars)" if isinstance(value, str) else f"{cut} ({len(text)} chars)"


def _finite_float(value: str) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError("not finite")
    return number


def _parse_bool(value: str) -> bool:
    if value.lower() not in ("true", "false"):
        raise ValueError(value)
    return value.lower() == "true"


#: every key but the repeatable ``element``, each with the parser of its value
#: and the word that names a malformed one, in the order the values are parsed
_KEYS = {
    "mode": (str, "mode"), "preset": (str, "preset"),
    **dict.fromkeys(("theta1", "theta2", "theta2_start", "theta2_stop", "theta2_step", "angle",
                     "rotation"), (_finite_float, "angle")),
    "seed": (int, "integer"), "counts_out": (str, "path"), "out": (str, "path"),
    **dict.fromkeys(("length", "length1", "length2"), (_parse_length, "length")),
    "n": (int, "integer"), "tomo": (_parse_bool, "boolean"), "r_step": (_finite_float, "number"),
    "grid_n": (int, "integer"),
}


_ELEMENT_RE = re.compile(r"^(crystal|hwp|qwp)\s*\(([^()]*)\)$")


def _parse_element(value: str, lineno: int, errors: list):
    match = _ELEMENT_RE.match(value.strip())
    if not match:
        errors.append(f"line {lineno}: malformed element {_echo(value)} "
                      "(expected crystal(length, angle), hwp(angle) or qwp(angle))")
        return None
    name, argtext = match.group(1), match.group(2)
    args = [a.strip() for a in argtext.split(",")] if argtext.strip() else []
    try:
        if name == "crystal":
            if len(args) != 2:
                raise ValueError("crystal takes (length, angle)")
            return Crystal(args[0], _finite_float(args[1]))
        if len(args) != 1:
            raise ValueError(f"{name} takes (angle)")
        kind = "half" if name == "hwp" else "quarter"
        return Waveplate(kind, _finite_float(args[0]))
    except (ValueError, ZeroDivisionError) as exc:
        errors.append(f"line {lineno}: malformed element {_echo(value)} ({exc})")
        return None


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config file; raises ConfigError on any problem."""
    errors: list = []
    pairs: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {_echo(line)}")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS and key != "element":
            errors.append(f"line {lineno}: unknown key {_echo(key)}")
            continue
        pairs.append((lineno, key, value))

    seen: dict = {}
    texts: dict = {}
    elements: list = []
    for lineno, key, value in pairs:
        if key == "element":
            el = _parse_element(value, lineno, errors)
            if el is not None:
                elements.append(el)
            continue
        if key in seen:
            errors.append(f"line {lineno}: duplicate key {key!r} (first on line {seen[key]})")
            continue
        seen[key] = lineno
        texts[key] = value

    # mode and preset are reported before any malformed value
    mode, preset = texts.get("mode"), texts.get("preset")
    if mode is None:
        errors.append("missing required key: mode")
    elif mode not in MODES:
        errors.append(f"line {seen['mode']}: unknown mode {_echo(mode)} (choose from {', '.join(MODES)})")
    if preset is not None and preset not in PRESETS:
        errors.append(f"line {seen['preset']}: unknown preset {_echo(preset)} "
                      f"(choose from {', '.join(PRESETS)})")

    # keys the file leaves out keep their RunConfig defaults
    parsed: dict = {}
    for key, (parser, kind) in _KEYS.items():
        if key not in texts:
            continue
        try:
            parsed[key] = parser(texts[key])
        except (ValueError, ZeroDivisionError) as exc:
            reason = f" ({exc})" if parser is _parse_length else ""
            errors.append(f"line {seen[key]}: malformed {kind} for key {key!r}: "
                          f"{_echo(texts[key])}{reason}")

    for key in ("length", "length1", "length2"):
        if key in parsed and parsed[key] <= 0:
            errors.append(f"line {seen[key]}: {key} must be positive, got {parsed[key]}")
    if "seed" in parsed and parsed["seed"] < 0:
        errors.append(f"line {seen['seed']}: seed must be non-negative, got {_echo(parsed['seed'])}")

    if mode in MODES:
        _validate_mode(parsed, elements, seen, errors)

    if errors:
        raise ConfigError(errors)
    return RunConfig(elements=tuple(elements), **parsed)


def _validate_mode(kw, elements, seen, errors):
    """Append the errors of a config whose parsed values ``kw`` hold a known mode."""
    mode, preset, r_step, n, grid_n = (kw.get(k) for k in ("mode", "preset", "r_step", "n", "grid_n"))
    needs_bench = mode in ("simulate", "tomo")
    if needs_bench:
        if preset is None and not elements:
            errors.append(f"mode {mode!r} needs a 'preset' or inline 'element' lines")
        if preset is not None and elements:
            errors.append("preset and inline elements are mutually exclusive")
        required = _PRESET_TABLE.get(preset, (None,))[0]
        if required is not None and required not in kw:
            errors.append(f"preset {preset} requires {required!r}")
    if not needs_bench and elements:
        errors.append(f"inline elements are not supported in {mode!r} mode")
    if needs_bench and elements and delay_bin_bound(BenchConfig(tuple(elements))) > MAX_DELAY_BINS:
        errors.append(f"inline elements may produce more than {MAX_DELAY_BINS} delay bins; "
                      "use fewer crystals or commensurate lengths")
    if mode == "sweep":
        if preset not in (None, "fig1"):
            errors.append("sweep mode supports only the fig1 preset")
        missing = [k for k in ("theta2_start", "theta2_stop", "theta2_step") if k not in kw]
        if missing:
            errors.append(f"sweep mode requires {', '.join(missing)}")
        else:
            step = kw["theta2_step"]
            if step <= 0 or kw["theta2_stop"] < kw["theta2_start"]:
                errors.append(f"line {seen.get('theta2_step', '?')}: degenerate range "
                              f"(step {step}, start {kw['theta2_start']}, stop {kw['theta2_stop']})")
            elif _sweep_row_count(kw["theta2_start"], kw["theta2_stop"], step) > _MAX_GRID_POINTS:
                errors.append(f"line {seen['theta2_step']}: sweep of more than {_MAX_GRID_POINTS} "
                              "rows exceeds the limit; increase theta2_step")
    if mode == "feasibility" and r_step is not None:
        if r_step <= 0:
            errors.append(f"line {seen['r_step']}: degenerate range (r_step {r_step})")
        # points per axis as run_feasibility's np.arange counts them; the min keeps
        # a subnormal r_step, whose quotient is inf, countable
        elif math.ceil(min((1.0 + r_step / 2 + 1.0) / r_step, _MAX_GRID_POINTS)) ** 2 > _MAX_GRID_POINTS:
            errors.append(f"line {seen['r_step']}: feasibility grid of more than {_MAX_GRID_POINTS} "
                          "points exceeds the limit; increase r_step")
    runs_tomography = mode == "tomo" or (mode == "sweep" and kw.get("tomo"))
    if runs_tomography and n is not None and n < 1:
        errors.append(f"line {seen['n']}: n must be at least 1 for tomography")
    if runs_tomography and n is not None and n > MAX_SHOTS:
        errors.append(f"line {seen['n']}: n must be at most {MAX_SHOTS} (10**18) "
                      f"for tomography, got {_echo(n)}")
    if mode == "region" and grid_n is not None:
        try:
            _check_region_grid(grid_n)
        except ValueError as exc:
            errors.append(f"line {seen['grid_n']}: {exc}")


# ---------------------------------------------------------------------------
# bench construction and CSV helpers
# ---------------------------------------------------------------------------

def bench_from_config(cfg: RunConfig) -> BenchConfig:
    if cfg.elements:
        return BenchConfig(cfg.elements)
    if cfg.preset not in _PRESET_TABLE:
        raise ConfigError([f"no bench defined for preset {cfg.preset!r}"])
    return _PRESET_TABLE[cfg.preset][1](cfg)


def _fmt(x) -> str:
    return format(float(x), ".12g")


def _fmt_angle(x) -> str:
    return format(float(x), ".6f")


#: grid points per chunk of a grid mode's CSV; bounds the byte matrices of a chunk
_GRID_BLOCK_POINTS = 1 << 13

#: bytes of a ``%.12g`` cell; the longest text, ``-1.23456789012e-100``, has 19
_G12_WIDTH = 20

#: 10**k for k = -3..2, as the doubles nearest them: how many lie at or below
#: |x| is the decimal exponent of |x| plus 4 (see _g12_fast)
_DECADES = (1e-3, 1e-2, 1e-1, 1e0, 1e1, 1e2)

#: per decimal exponent plus 4, the exact double that scales |x| to a 12-digit
#: significand, and the integer that scales that to 15 fraction digits
_SCALES = np.array([1e15, 1e14, 1e13, 1e12, 1e11, 1e10, 1e9])
_SHIFTS = 10 ** np.arange(7, dtype=np.int64)


def _text_cells(texts) -> np.ndarray:
    """ASCII strings as the rows of a NUL-padded uint8 matrix."""
    cells = np.array(texts, dtype=bytes)
    return cells.view(np.uint8).reshape(len(cells), cells.itemsize)


@functools.cache
def _g12_tables() -> tuple:
    """The fast path's gather tables, each entry four ASCII bytes as one uint32.

    ``head[k + 1000 * negative]`` is the sign and the integer part k, leading
    zeros as NUL.  ``dot[g + 1000 * plain]`` is ``.`` and the first three
    fraction digits g, and ``quad[g + 10000 * plain]`` a later four-digit
    group.  The plain half keeps every digit; the other half turns trailing
    zeros to NUL, and its entry for 0 (``dot``'s included) is all NUL.
    """
    def digits(width):
        d = (np.arange(10 ** width)[:, None] // 10 ** np.arange(width - 1, -1, -1)) % 10
        trailing = np.logical_and.accumulate(d[:, ::-1] == 0, axis=1)[:, ::-1]
        return d + ord("0"), np.where(trailing, 0, d + ord("0")), d == 0

    def words(rows):
        return np.ascontiguousarray(rows, dtype=np.uint8).view(np.uint32).ravel()

    d3, s3, zero3 = digits(3)
    leading = np.logical_and.accumulate(zero3, axis=1)
    leading[:, -1] = False  # a zero integer part prints as 0
    sign = np.repeat([0, ord("-")], 1000)[:, None]
    head = words(np.hstack([sign, np.tile(np.where(leading, 0, d3), (2, 1))]))
    point = np.full((2000, 1), ord("."))
    point[0] = 0  # a fraction of zeros prints nothing
    dot = words(np.hstack([point, np.vstack([s3, d3])]))
    d4, s4, _ = digits(4)
    return head, dot, words(np.vstack([s4, d4]))


def _split(value: np.ndarray, unit: int) -> tuple:
    """``divmod(value, unit)`` for non-negative integers; numpy's floor division
    by a scalar is several times faster than its divmod."""
    high = value // unit
    return high, value - high * unit


def _g12_fast(x: np.ndarray) -> tuple:
    """(fast, words): which values of the 1-D float64 array ``x`` the vectorized
    path formats as ``"%.12g" % v`` does, and the texts of those values as
    rows of five uint32 words of NUL-padded ASCII.  Other rows are junk.

    The path takes 1e-4 <= |x| < 1e3, whose decimal exponent e lies in
    [-4, 2], so 10**(11 - e) is an exact double and |x| * 10**(11 - e)
    differs from its exact value by at most 2**-14.  Its rint is then the
    12-digit significand %.12g rounds to unless the product's fraction lies
    within 1e-3 of 1/2; those near-ties leave the path.  A value just below a
    power of ten read one decade high rounds to that power either way.  The
    significand becomes a fixed-point integer with 15 fraction digits, cut
    into a 3-digit integer part (a value rounding up to 1000 leaves the path),
    a 3-digit and three 4-digit fraction groups; the last nonzero group takes
    its trailing-zeros-to-NUL text and every later group is all NUL.
    """
    head, dot, quad = _g12_tables()
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e3)
    a[~fast] = 1.0
    decade = np.zeros(len(x), dtype=np.uint8)  # e + 4
    for power in _DECADES:
        decade += a >= power
    scaled = a * _SCALES[decade]
    significand = np.rint(scaled)
    fast &= np.abs(scaled - significand) < 0.499
    whole, fraction = _split(significand.astype(np.int64) * _SHIFTS[decade], 10 ** 15)
    fast &= whole < 1000
    high, low = _split(fraction, 10 ** 8)
    g1, g2 = _split(high.astype(np.uint32), 10 ** 4)
    g3, g4 = _split(low.astype(np.uint32), 10 ** 4)
    plain3 = g4 != 0
    plain2 = plain3 | (g3 != 0)
    plain1 = plain2 | (g2 != 0)
    out = np.empty((len(x), 5), dtype=np.uint32)
    out[:, 0] = head[np.minimum(whole, 999) + 1000 * (x < 0)]
    out[:, 1] = dot[g1 + 1000 * plain1]
    out[:, 2] = quad[g2 + 10000 * plain2]
    out[:, 3] = quad[g3 + 10000 * plain3]
    out[:, 4] = quad[g4]
    return fast, out


def _g12_cells(x) -> np.ndarray:
    """``"%.12g" % v`` for every value of a float array, as the rows of a
    NUL-padded (size, _G12_WIDTH) uint8 matrix.

    _g12_fast formats the values it can decide; Python's ``%`` formats the
    rest (zeros of either sign, NaN, infinities, values outside its window
    and near-ties), so every float64 gets its exact ``%.12g`` text.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    fast, words = _g12_fast(x)
    cells = words.view(np.uint8)
    slow = np.flatnonzero(~fast)
    if len(slow):
        texts = _text_cells(["%.12g" % v for v in x[slow].tolist()])
        cells[slow] = 0
        cells[slow, :texts.shape[1]] = texts
    return cells


def _row_blocks(n: int) -> list:
    """Slices of the n rows of an n-by-n grid, each of about _GRID_BLOCK_POINTS points."""
    rows = max(1, _GRID_BLOCK_POINTS // n)
    return [slice(start, min(start + rows, n)) for start in range(0, n, rows)]


def _csv_lines(shape: tuple, columns) -> str:
    """CSV lines over the points of ``shape``, without the final newline.

    Each column is a NUL-padded uint8 array of cell texts that broadcasts to
    ``shape + (width,)``.  The lines are laid out in one byte matrix, cells
    joined by ``,``, and one boolean compaction drops every NUL.
    """
    widths = [col.shape[-1] for col in columns]
    mat = np.empty(shape + (sum(widths) + len(widths),), dtype=np.uint8)
    end = 0
    for col, width in zip(columns, widths):
        mat[..., end:end + width] = col
        mat[..., end + width] = ord(",")
        end += width + 1
    mat[..., -1] = ord("\n")
    mat.flat[-1] = 0  # the last newline is the writer's
    return str(mat[mat != 0].data, "ascii")


def _write_csv(path: Optional[str], chunks) -> None:
    """Write CSV chunks, each one or more whole lines without the final
    newline, one at a time, so the whole text is never built."""
    if path is None:
        sys.stdout.writelines(chunk + "\n" for chunk in chunks)
        return
    with open(path, "w", newline="\n") as fh:
        fh.writelines(chunk + "\n" for chunk in chunks)


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def run_simulate(cfg: RunConfig) -> list:
    bench = bench_from_config(cfg)
    kraus = propagate(bench)
    amap = affine_map(kraus)
    report = polar_decompose(amap.matrix)
    lams = chi_eigenvalues(chi_from_kraus(kraus))
    header = (
        [f"m{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)]
        + ["t1", "t2", "t3", "r1", "r2", "r3", "det_sign", "axis_aligned"]
        + [f"lambda{i}" for i in (1, 2, 3, 4)]
    )
    row = (
        [_fmt(v) for v in amap.matrix.ravel()]
        + [_fmt(v) for v in amap.translation]
        + [_fmt(v) for v in report.radii]
        + [_fmt(report.det_sign), "true" if report.axis_aligned else "false"]
        + [_fmt(v) for v in lams]
    )
    return [",".join(header), ",".join(row)]


def _sweep_row_count(start: float, stop: float, step: float) -> int:
    """Rows of a sweep: the least k with ``start + k*step > stop + 1e-9``.

    Counts above ``_MAX_GRID_POINTS`` come back as ``_MAX_GRID_POINTS + 1``.
    ``start + k*step`` never decreases with k, so a bisection finds k
    without stepping through the rows.
    """
    limit = stop + 1e-9
    lo, hi = 0, _MAX_GRID_POINTS + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if start + mid * step > limit:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _sweep_thetas(cfg: RunConfig) -> list:
    count = _sweep_row_count(cfg.theta2_start, cfg.theta2_stop, cfg.theta2_step)
    return [cfg.theta2_start + k * cfg.theta2_step for k in range(count)]


def _fit_row(settings: TomoSettings, chi: np.ndarray, row: int) -> tuple:
    """The MLE fit of sweep row ``row``, from counts drawn as ``simulate_counts``
    draws them for a Kraus set with process matrix ``chi``."""
    fit = qpt_mle(_draw_counts(_PROCESS_DESIGN, chi, INPUT_LABELS, settings, row))
    return fit.converged, chi_eigenvalues(fit.chi)


def run_sweep(cfg: RunConfig, jobs: int, seed: int) -> list:
    """Sweep rows, propagated in blocks of ``_SWEEP_BLOCK`` benches.

    The sweep builds one fig1 bench, and a block's benches are its copies with the
    control plate at the block's angles (``_control_plate_benches``).  A block's chi
    comes from ``_kept_chi``, and its radii, spectra and degrees of polarization from
    one call each of ``_compensated_radii``, ``chi_eigenvalues``, ``radii_closed_form``
    and ``dop_isotropic``.  Row i's counts come from stream i of ``seed``, so output
    is independent of ``jobs``, which sets the threads of the per-row MLE fits, and
    rows of different seeds share no random numbers.  Rows whose fit did not
    converge are reported on stderr after the fits.
    """
    thetas = _sweep_thetas(cfg)
    on_iso_line = any(abs(cfg.theta1 - root) < 1e-6 for root in isotropic_theta1_angles())
    header = (
        ["theta2", "r1_closed", "r2_closed", "r3_closed", "dop_closed",
         "r1_sim", "r2_sim", "r3_sim"]
        + [f"lambda{i}" for i in (1, 2, 3, 4)]
        + [f"lambda{i}_mle" for i in (1, 2, 3, 4)]
        + ["seed"]
    )
    lines = [",".join(header)]
    settings = TomoSettings(shots=cfg.n, seed=seed) if cfg.tomo else None
    bench = build_bench(DepolarizerSettings(cfg.theta1, cfg.theta2_start, cfg.length1, cfg.length2))
    unconverged = []
    pool = ThreadPoolExecutor(max_workers=jobs) if cfg.tomo and jobs > 1 else nullcontext()
    with pool as executor:
        fit_map = map if executor is None else executor.map
        for start in range(0, len(thetas), _SWEEP_BLOCK):
            block = thetas[start:start + _SWEEP_BLOCK]
            chis = _kept_chi(propagate_stack(_control_plate_benches(bench, block))[1])
            values = np.column_stack((*radii_closed_form(cfg.theta1, block), _compensated_radii(chis)[0],
                                      chi_eigenvalues(chis))).tolist()
            dops = [_fmt(d) for d in dop_isotropic(block).tolist()] if on_iso_line else [""] * len(block)
            rows = [[_fmt_angle(t2), *map(_fmt, row[:3]), dop, *map(_fmt, row[3:])]
                    for t2, dop, row in zip(block, dops, values)]
            if not cfg.tomo:
                lines += [",".join(cells + ["", "", "", "", ""]) for cells in rows]
                continue
            streams = range(start, start + len(block))
            fits = fit_map(lambda task: _fit_row(settings, *task), zip(chis, streams))
            for i, (cells, (converged, lams_mle)) in enumerate(zip(rows, fits), start=start):
                lines.append(",".join(cells + [_fmt(v) for v in lams_mle] + [str(seed)]))
                if not converged:
                    unconverged.append(i)
    for i in unconverged:
        sys.stderr.write(f"polarchan: warning: sweep row {i} (theta2 = {_fmt_angle(thetas[i])}): "
                         "MLE fit did not converge\n")
    return lines


def run_tomo(cfg: RunConfig, seed: int) -> list:
    bench = bench_from_config(cfg)
    kraus = propagate(bench)
    settings = TomoSettings(shots=cfg.n, seed=seed)
    record = simulate_counts(kraus, settings)
    if cfg.counts_out:
        record.to_csv(cfg.counts_out)
    fit = qpt_mle(record)
    truth = chi_eigenvalues(chi_from_kraus(kraus))
    recon = chi_eigenvalues(fit.chi)
    header = (
        [f"lambda{i}_mle" for i in (1, 2, 3, 4)]
        + [f"lambda{i}_true" for i in (1, 2, 3, 4)]
        + ["tp_deviation", "nll", "converged", "iterations", "n", "seed"]
    )
    row = (
        [_fmt(v) for v in recon]
        + [_fmt(v) for v in truth]
        + [_fmt(fit.tp_deviation), _fmt(fit.nll),
           "true" if fit.converged else "false", str(fit.iterations),
           str(cfg.n), str(seed)]
    )
    return [",".join(header), ",".join(row)]


def run_feasibility(cfg: RunConfig) -> list:
    values = np.arange(-1.0, 1.0 + cfg.r_step / 2, cfg.r_step)
    r1, r2 = np.meshgrid(values, values, indexing="ij")
    feasible, lam = pauli_feasible(r1, r2, r2)
    reachable = in_reachable_region(r1, r2)
    bad = np.argwhere(reachable & ~feasible)
    if len(bad):
        i, j = bad[0]
        raise AssertionError(
            f"reachable point ({values[i]}, {values[j]}) is outside the feasible set"
        )
    n = len(values)
    axis = _g12_cells(values)
    flags = _text_cells(["false", "true"])
    chunks = ["r1,r2,lambda0,lambda1,lambda2,lambda3,feasible,reachable"]
    for rows in _row_blocks(n):
        lams = _g12_cells(lam[rows]).reshape(-1, n, 4, _G12_WIDTH)
        chunks.append(_csv_lines(lams.shape[:2], (
            axis[rows, None], axis[None], *(lams[:, :, k] for k in range(4)),
            flags[feasible[rows].astype(np.intp)], flags[reachable[rows].astype(np.intp)])))
    return chunks


def run_region(cfg: RunConfig) -> list:
    """One chunk per block of theta1 rows; the angle cells are formatted once
    and the r1, r2 cells by _g12_cells."""
    n = cfg.grid_n
    angles = _text_cells(["%.6f" % a for a in np.linspace(0.0, 45.0, n).tolist()])
    # the scan's points run theta2 fastest, so row i holds theta1 = angle i
    scan = reachable_region_scan(n).reshape(n, n, 2)
    chunks = ["theta1,theta2,r1,r2"]
    for rows in _row_blocks(n):
        radii = _g12_cells(scan[rows]).reshape(-1, n, 2, _G12_WIDTH)
        chunks.append(_csv_lines(radii.shape[:2], (angles[rows, None], angles[None],
                                                   radii[:, :, 0], radii[:, :, 1])))
    return chunks


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # validation failures exit 1 (argparse defaults to 2, reserved here for I/O)
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


_EPILOG = f"""modes:
  simulate     one-shot channel report (Stokes map, radii, eigenvalue spectrum)
  sweep        fig1 control-angle sweep: closed-form vs simulated radii,
               eigenvalue spectrum, optional tomography reconstruction
  tomo         simulated process tomography of one bench (counts + MLE fit)
  feasibility  (R1, R2=R3) grid: physicality and reachability flags
  region       closed-form (R1, R2) scan of the reachable zone

presets: {", ".join(PRESETS)}

the {ENV_SEED} environment variable supplies a default seed; --seed and the
config 'seed' key take precedence (in that order)."""


def _resolve_seed(args_seed, cfg_seed) -> int:
    if args_seed is not None:
        if args_seed < 0:
            raise ConfigError([f"--seed must be non-negative, got {args_seed}"])
        return args_seed
    if cfg_seed is not None:
        return cfg_seed
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ConfigError([f"environment variable {ENV_SEED}={_echo(env)} is not an integer"])
        if seed < 0:
            raise ConfigError([f"environment variable {ENV_SEED} must be non-negative, got {_echo(seed)}"])
        return seed
    return 0


def _show_warning(pass_on, message, category, *rest) -> None:
    """Print a degenerate-ratio warning on stderr as ``polarchan: warning: <message>``;
    hand any other warning to ``pass_on``."""
    if issubclass(category, DegenerateLengthRatioWarning):
        sys.stderr.write(f"polarchan: warning: {message}\n")
    else:
        pass_on(message, category, *rest)


def main(argv=None) -> int:
    parser = _Parser(
        prog="polarchan",
        description="Simulate crystal/wave-plate depolarizing channels and their tomography.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("mode", choices=MODES, help="run mode (must match the config file)")
    parser.add_argument("--config", required=True, help="path to a key = value config file")
    parser.add_argument("--out", help="output CSV path (default: stdout)")
    parser.add_argument("--jobs", type=int, default=1, help="concurrent sweep workers")
    parser.add_argument("--seed", type=int, help="tomography seed override")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        sys.stderr.write(f"polarchan: cannot read config {args.config!r}: {exc}\n")
        return 2
    except UnicodeDecodeError as exc:
        sys.stderr.write(f"polarchan: config {args.config!r} is not UTF-8 text "
                         f"({exc.reason} at byte {exc.start})\n")
        return 1

    try:
        cfg = parse_config(text)
        if cfg.mode != args.mode:
            raise ConfigError([f"mode mismatch: command line says {args.mode!r}, "
                               f"config says {_echo(cfg.mode)}"])
        seed = _resolve_seed(args.seed, cfg.seed)
        if args.jobs < 1:
            raise ConfigError([f"--jobs must be at least 1, got {args.jobs}"])

        with warnings.catch_warnings():
            # "default" shows each message once per location; the filter change
            # makes Python forget what earlier runs showed
            warnings.simplefilter("default", DegenerateLengthRatioWarning)
            warnings.showwarning = functools.partial(_show_warning, warnings.showwarning)
            if cfg.mode == "simulate":
                chunks = run_simulate(cfg)
            elif cfg.mode == "sweep":
                chunks = run_sweep(cfg, args.jobs, seed)
            elif cfg.mode == "tomo":
                chunks = run_tomo(cfg, seed)
            elif cfg.mode == "feasibility":
                chunks = run_feasibility(cfg)
            else:
                chunks = run_region(cfg)
    except ConfigError as exc:
        for message in exc.errors:
            sys.stderr.write(f"polarchan: {message}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"polarchan: I/O failure while running {args.mode}: {exc}\n")
        return 2

    out_path = args.out if args.out is not None else cfg.out
    try:
        _write_csv(out_path, chunks)
    except OSError as exc:
        name = "<stdout>" if out_path is None else repr(out_path)
        sys.stderr.write(f"polarchan: cannot write output {name}: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
