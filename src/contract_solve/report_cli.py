"""Command line front end: solves both regimes and emits CSV datasets.

Each subcommand writes its tables plus a manifest.json into the output
directory. CSVs are the figure-reproduction interface: comma separated,
17 significant digits, LF line endings, one header row. Identical config
and seed give byte-identical CSVs, so the files double as regression
fixtures. write_csv formats a table of at least two _CSV_BLOCK blocks of
rows across the CPUs in the affinity mask, in forked children, with the
bytes of the serial writer. paths.csv holds the first _RECORDED_PATHS
paths of the run (all of them when sim.n_paths is smaller), while the
manifest's Monte Carlo estimate and counts cover every path.

_SUBCOMMANDS maps each subcommand to its stages, run in order over one
per-run dict of second-best solutions by sigma; report is the five stages
together. Before the first stage, one sigma_sweep call solves each distinct
sigma the run's stages need (cfg's own, and sweep.sigmas for the sweep).
The stages write into a staging directory in the output directory, and
only a run whose every stage succeeded moves the files out of it, the
manifest last: a run that fails writes nothing (a killed one can leave
its .contract-solve-* staging directory behind).

Exit codes: 0 success, 1 validation problem (bad flag, unknown key, value
out of range, output directory not writable), 2 solver failure. A closed
stdout does not change them: the list of files written is dropped.
"""

from __future__ import annotations

import contextlib
import dataclasses
import errno
import json
import os
import shutil
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, load
from .first_best import BracketFailure, continuation_boundary, principal_value_fb, schedules
from . import hjbvi
from .hjbvi import Grid
from .model import ModelParams
from .simulate import (InvalidStart, PolicyOutOfRange, _run_forked, _shard_count, simulate_paths,
                       summarize_paths)

_USAGE = """\
usage: contract-solve <subcommand> [--config FILE] [--out DIR] [--set KEY=VALUE]...

subcommands:
  first-best    fb_value.csv, fb_schedule.csv
  second-best   sb_solution.csv
  simulate      paths.csv
  voi           voi.csv
  sweep         sweep.csv
  report        all of the above

The CONTRACT_SOLVE_OUT environment variable overrides --out. --set may be
repeated; keys are the config-file keys.
"""


_CSV_BLOCK = 4096  # rows per chunk; bounds the text held in memory at once
_RECORDED_PATHS = 100  # paths written to paths.csv, the first by id
_RESIDUAL_BOUND = 1e-8  # acceptance criterion 05's bound on the solve's defect
_UNQUOTABLE = frozenset("\0,\r\n")  # characters a CSV field would need quoted
# Each field fills whole little-endian uint64 words of a chunk's row buffer;
# its byte 0 takes the separator before it ("\n" starts a row) and unused
# bytes stay NUL. A float field is 4 words: byte 1 the sign, 2-6 the "0.000"
# prefix, 7 the first digit, 8-24 the other 16 digits with the point slotted
# in, 25-28 the "e-dd" exponent. An int field has the sign in byte 3 and its
# digits from byte 4.
_FLOAT_WORDS = 4
# uint64 operands stay uint64: numpy 1.x promotes uint64 with a Python int to float64
_U0, _U1, _U8, _U32, _U56, _U63 = (np.uint64(k) for k in (0, 1, 8, 32, 56, 63))
_LO32, _ZEROS = np.uint64(0xFFFFFFFF), np.uint64(0x3030303030303030)
_E4, _E8, _E16, _E17 = (np.uint64(10 ** k) for k in (4, 8, 16, 17))
_MINUS, _ZERO = np.uint64(ord("-")), np.uint64(ord("0"))
_POW5 = np.array([5 ** k for k in range(28)], dtype=np.uint64)  # 5**27 < 2**63
# 4 ASCII digits of 0..9999 packed little-endian, the first digit lowest
_QUAD = sum((np.arange(10000, dtype=np.uint64) // np.uint64(10 ** (3 - i)) % np.uint64(10)
             + _ZERO) << np.uint64(8 * i) for i in range(4))


def _word(text: bytes) -> int:
    return int.from_bytes(text.ljust(8, b"\0"), "little")


def _below(c: int, k: int) -> int:
    """Mask of the bytes of word k that hold slots 0..c-1 of a run of words."""
    return (1 << 8 * min(max(c - 8 * k, 0), 8)) - 1


def _eight_digits(h):
    """The 8 ASCII digits of each h < 10**8 as a word, the first digit lowest."""
    q = h // _E4
    return _QUAD.take(q) | (_QUAD.take(h - q * _E4) << _U32)


# by decimal exponent + 10, for exponents -10..14: the prefix bytes of word 0,
# the exponent bytes of word 3 and the tail slot of the point (16: no point)
_PREFIX = np.array([_word(b"\0\0" + (b"0." + b"0" * (-k - 1) if -4 <= k < 0 else b""))
                    for k in range(-10, 15)], dtype=np.uint64)
_EXPONENT = np.array([_word(b"\0" + (b"e-%02d" % -k if k < -4 else b""))
                      for k in range(-10, 15)], dtype=np.uint64)
_POINT = np.array([k if k >= 0 else 0 if k < -4 else 16 for k in range(-10, 15)])
# by the count c of tail digits kept: the masks of tail words 0 and 1
_KEEP = np.array([[_below(c, 0), _below(c, 1)] for c in range(17)], dtype=np.uint64)
# by point slot p, + 17 if the point is written: the masks of the tail slots
# below p in tail words 0 and 1, and the point's byte in tail words 0, 1, 2
_SPLIT = np.array([[_below(p, 0), _below(p, 1)]
                   + [dot * ((_below(p + 1, k) ^ _below(p, k)) & 0x2E2E2E2E2E2E2E2E)
                      for k in range(3)]
                   for dot in (0, 1) for p in range(17)], dtype=np.uint64)


def _scaled(mant, exp2, scale):
    """floor(mant * 5**scale / 2**k), k = 53 - exp2 - scale in [0, 63], and
    whether it rounds up, half to even; the product is held in two uint64
    limbs, so it is exact."""
    b = _POW5.take(scale)
    a_lo, a_hi, b_lo, b_hi = mant & _LO32, mant >> _U32, b & _LO32, b >> _U32
    low = a_lo * b_lo
    cross = (low >> _U32) + a_hi * b_lo + a_lo * b_hi  # < 2**63 + 2**53 + 2**32
    lo = (cross << _U32) | (low & _LO32)
    hi = (cross >> _U32) + a_hi * b_hi
    k = (53 - exp2 - scale).astype(np.uint64)
    q = (lo >> k) | ((hi << _U1) << (_U63 - k))
    rem = lo & ((_U1 << k) - _U1)
    half = (_U1 << k) >> _U1
    return q, (rem > half) | ((rem == half) & (rem != _U0) & ((q & _U1) == _U1))


def _float_words(x):
    """The 4 field words of "%.17g" % v for each v of the float64 array x,
    and the indices of the values left to the fallback."""
    mag = np.abs(x)
    fast = (mag >= 1e-10) & (mag < 1e15)
    zero = mag == 0.0
    v = np.where(fast, mag, 1.0)
    m, exp2 = np.frexp(v)
    mant = (m * 2.0 ** 53).astype(np.uint64)  # v = mant * 2**(exp2 - 53)
    scale = 16 - np.floor(np.log10(v)).astype(np.int64)
    q, up = _scaled(mant, exp2, scale)
    while True:  # log10 may be off by one next to a power of ten
        low, high = q < _E16, q >= _E17
        fix = np.flatnonzero(low | high)
        if not fix.size:
            break
        scale[fix] += low[fix].astype(np.int64) - high[fix]
        q[fix], up[fix] = _scaled(mant[fix], exp2[fix], scale[fix])
    num = q + up  # 17 digits; no double in range rounds up to 10**17
    exp10 = 26 - scale  # decimal exponent + 10
    num[zero] = _U0
    exp10[zero] = 10

    first = num // _E16
    tail = num - first * _E16  # the other 16 digits: two words of 8 ASCII digits
    hi8 = tail // _E8
    t0, t1 = _eight_digits(hi8), _eight_digits(tail - hi8 * _E8)
    # 1 + index of the highest nonzero tail digit (0 if none): each byte of
    # t ^ _ZEROS is at most 9, so the float's exponent finds it exactly
    z0, z1 = ((t ^ _ZEROS).astype(np.float64) for t in (t0, t1))
    last = (np.frexp(z1 * 2.0 ** 64 + z0)[1] + 7) // 8
    kept = _KEEP.take(np.maximum(last, exp10 - 10), axis=0)  # integer digits stay
    t0 &= kept[:, 0]
    t1 &= kept[:, 1]
    point = _POINT.take(exp10)
    split = _SPLIT.take(point + 17 * (last > point), axis=0)
    up0, up1 = t0 & ~split[:, 0], t1 & ~split[:, 1]  # slots from the point on move up a byte
    return [np.where(np.signbit(x), _MINUS << _U8, _U0) | _PREFIX.take(exp10)
            | ((first + _ZERO) << _U56),
            (t0 & split[:, 0]) | (up0 << _U8) | split[:, 2],
            (t1 & split[:, 1]) | (up1 << _U8) | (up0 >> _U56) | split[:, 3],
            (up1 >> _U56) | split[:, 4] | _EXPONENT.take(exp10)], np.flatnonzero(~fast & ~zero)


def _int_words(col):
    """The field words of "%d" % v for each integer or bool v of col: byte 3
    the sign, then groups of 4 digits from byte 4, leading zeros NUL."""
    neg = col < 0
    u = col.astype(np.uint64)  # two's complement for negatives
    mag = np.where(neg, ~u + _U1, u)
    groups = -(-len(str(int(mag.max()))) // 4)
    ndigits = 1 + sum((mag >= np.uint64(10 ** k)).astype(np.int64) for k in range(1, 4 * groups))
    lead = 4 * groups + 4 - ndigits  # bytes before the first digit
    quads = []
    for _ in range(groups):
        q = mag // _E4
        quads.insert(0, _QUAD.take(mag - q * _E4))
        mag = q
    quads.append(_U0)
    low_bytes = _KEEP[:9, 0]  # _KEEP's word-0 column: the low 0..8 bytes
    words = [(quads[0] << _U32) & ~low_bytes.take(np.minimum(lead, 8))
             | np.where(neg, _MINUS << np.uint64(24), _U0)]
    for k in range(1, (groups + 2) // 2):
        words.append((quads[2 * k - 1] | (quads[2 * k] << _U32))
                      & ~low_bytes.take(np.clip(lead - 8 * k, 0, 8)))
    return words


def _text(col):
    """str(v) of each value of col, UTF-8 encoded, as NUL-padded rows of bytes."""
    text = np.array([str(v).encode() for v in col.tolist()], dtype=np.bytes_)
    return text.view(np.uint8).reshape(col.size, -1)


def _csv_rows(columns, buf: bytearray) -> bytearray:
    """CSV rows of equal-length columns, each led by "\\n": every value's text
    goes into fixed, NUL-padded byte slots of whole words of the row buffer
    buf (resized to fit, every byte rewritten), then one bytes.translate
    drops the NULs."""
    n = len(columns[0])
    plan = []  # (words, dtype kind, data); floats are formatted while filling
    for col in columns:
        kind = col.dtype.kind
        if kind == "f":
            plan.append((_FLOAT_WORDS, kind, col.astype(np.float64, copy=False)))
        elif kind in "biu":
            words = _int_words(col)
            plan.append((len(words), kind, words))
        else:
            text = _text(col)
            plan.append(((text.shape[1] + 8) // 8, kind, text))
    starts = np.cumsum([0] + [width for width, _, _ in plan])
    size = 8 * n * int(starts[-1])
    del buf[size:]
    buf.extend(bytes(size - len(buf)))
    words = np.frombuffer(buf, dtype="<u8").reshape(n, -1)
    chars = words.view(np.uint8)
    for at, (width, kind, data) in zip(starts, plan):
        if kind == "f":
            field, slow = _float_words(data)
        elif kind in "biu":
            field, slow = data, ()
        else:
            words[:, at:at + width] = 0
            chars[:, 8 * at + 1:8 * at + 1 + data.shape[1]] = data
            continue
        for k, w in enumerate(field):
            words[:, at + k] = w
        if len(slow):
            text = np.array([b"\0%.17g" % v for v in data[slow].tolist()], dtype="S32")
            words[slow, at:at + _FLOAT_WORDS] = text.view("<u8").reshape(-1, _FLOAT_WORDS)
    chars[:, 8 * starts[:-1]] = np.array([10] + [44] * (len(plan) - 1), dtype=np.uint8)
    return buf.translate(None, b"\0")


def _unquotable(texts, what):
    """Raise ValueError at the first of texts that holds NUL, ",", CR or LF:
    the writer does not quote, so such a text would change the table."""
    for text in texts:
        if not _UNQUOTABLE.isdisjoint(text):
            raise ValueError(f"{what} {text!r} holds NUL, ',', CR or LF, which CSV "
                             f"needs quoted; write_csv does not quote")


def write_csv(path, header, columns) -> None:
    """One header row plus data rows, LF endings, 17 significant digits.

    columns is one table of equal-length 1-D columns (arrays or sequences),
    one per header name, written row by row; a column count other than the
    header's, a column of another shape, columns that differ in length, or
    a header name or text value holding NUL, ",", CR or LF raise ValueError
    before the file is opened. A table of zero rows (or no columns) gives
    the header alone. Each column's dtype picks its format: "%d" for
    integers and bools (1/0), "%.17g" for floats, str() otherwise.

    The rows are split into _shard_count(rows, _CSV_BLOCK) contiguous
    ranges, run by simulate._run_forked: this process writes the header and
    the first range into a new file beside path, and a forked child each
    other range into an unnamed temporary file in path's directory, which
    this process then appends to the first in the kernel (os.sendfile),
    reading none of its bytes. The whole file then replaces path
    (os.replace); a write that fails removes it, leaving path as it was.
    Each range is formatted _CSV_BLOCK rows at a time into one reused row
    buffer. A row's text does not depend on where blocks or ranges are cut,
    so the bytes are the same for any range count.

    Floats get exactly the bytes of "%.17g" % x. With x = m * 2**e from
    frexp, the 17 digits N = round(x * 10**s) are m * 2**53 * 5**s shifted
    right by k = 53 - e - s bits: the product is held exactly in two uint64
    limbs and rounded half to even, as the correctly rounded dtoa behind
    "%.17g" does. The scale s = 16 - floor(log10|x|) is corrected until
    10**16 <= floor(x * 10**s) < 10**17, so a log10 off by one next to a
    power of ten does no harm. On [1e-10, 1e15), 5**s fits in one limb,
    0 <= k <= 63, and no double lies within half a unit of the 17th digit
    below a power of ten, so rounding never carries to 10**17. Other
    magnitudes and non-finite values fall back to "%.17g" per value; +-0.0
    take the fast path.
    """
    columns = [np.asarray(col) for col in columns]
    if columns and len(columns) != len(header):
        raise ValueError(f"{len(header)} header names for {len(columns)} columns")
    if any(col.ndim != 1 for col in columns):
        raise ValueError(f"columns must be 1-D, not of shapes {[col.shape for col in columns]}")
    rows = len(columns[0]) if columns else 0
    if any(len(col) != rows for col in columns):
        raise ValueError(f"columns differ in length: {[len(col) for col in columns]}")
    _unquotable(header, "header name")
    for col in columns:
        if col.dtype.kind not in "biuf":
            _unquotable(map(str, col.tolist()), "text value")
    k = _shard_count(rows, _CSV_BLOCK)
    bounds = [rows * i // k for i in range(k + 1)]
    directory, base = os.path.split(os.path.abspath(path))
    head = os.path.join(directory, f".{base}.{os.urandom(6).hex()}.tmp")
    # a new file, with the permissions open(path, "wb") would give one
    fh = os.fdopen(os.open(head, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "wb")
    try:
        with fh, contextlib.ExitStack() as stack:
            parts = [fh] + [stack.enter_context(tempfile.TemporaryFile(dir=directory))
                            for _ in range(1, k)]

            def run(i):
                out, buf = parts[i], bytearray()
                if i == 0:
                    out.write(",".join(header).encode())
                for start in range(bounds[i], bounds[i + 1], _CSV_BLOCK):
                    stop = min(start + _CSV_BLOCK, bounds[i + 1])
                    out.write(_csv_rows([col[start:stop] for col in columns], buf))
                if i == k - 1:
                    out.write(b"\n")
                out.flush()  # a child leaves by os._exit, which flushes nothing

            _run_forked(run, k)
            for part in parts[1:]:
                size, done = os.fstat(part.fileno()).st_size, 0
                while done < size:
                    done += os.sendfile(fh.fileno(), part.fileno(), done, size - done)
        os.replace(head, path)
    except BaseException:
        os.unlink(head)
        raise


@dataclasses.dataclass(frozen=True)
class VoiTable:
    x: np.ndarray
    v_fb: np.ndarray
    v_sb: np.ndarray
    voi: np.ndarray


def value_of_information(params: ModelParams, x_grid, solution) -> VoiTable:
    """Full-information value minus second-best value on x_grid.

    The second-best value is linearly interpolated from the supplied
    solution on its own grid; the full-information value is solved point by
    point. x_grid must be non-empty and inside both solvers' domains,
    [0, min(continuation_boundary, grid.x_max)], or ValueError is raised.
    """
    x_grid = np.asarray(x_grid, dtype=float)
    grid = solution.grid
    hi = min(continuation_boundary(params), grid.x_max)
    if x_grid.size == 0:
        raise ValueError("x_grid is empty")
    if np.any(x_grid < 0.0) or np.any(x_grid > hi):
        raise ValueError(f"x_grid must lie within [0, {hi:.6g}]")
    v_fb = np.array([principal_value_fb(params, float(x)).value for x in x_grid])
    v_sb = np.interp(x_grid, grid.x, solution.w)
    return VoiTable(x=x_grid, v_fb=v_fb, v_sb=v_sb, voi=v_fb - v_sb)


def sigma_sweep(params: ModelParams, sigmas, *, grid: Grid,
                tol: float = hjbvi.DEFAULT_TOL, max_iter: int = hjbvi.DEFAULT_MAX_ITER):
    """Second-best solves of every sigma on a shared grid, in one
    howard_solve_many batch. This is the CLI's batch: each run solves the
    sigmas its stages need with one call.

    Returns a dict from each distinct sigma, in input order, to its
    solution or to the exception that failed it, as howard_solve_many
    returns them: ValueError for a sigma <= 0, NoConvergence or
    NonMonotoneScheme. A failed sigma does not abort the sweep, and the
    other sigmas keep their bitwise solutions. A max_iter below 1 or not an
    integer, or a tol that is not finite and > 0, raises howard_solve_many's
    ValueError.
    """
    sigmas = list(dict.fromkeys(float(sg) for sg in sigmas))
    if not sigmas:
        raise ValueError("sigma_sweep needs at least one sigma")
    return dict(zip(sigmas, hjbvi.howard_solve_many(params, sigmas, grid, tol=tol,
                                                    max_iter=max_iter)))


# A stage is (cfg, outdir, solved) -> (files, diagnostics). solved is
# sigma_sweep's dict for the sigmas the run needs; cfg's own sigma is a
# solution whenever a stage reads it.


def _first_best(cfg: RunConfig, outdir, solved):
    xs = np.linspace(cfg.fb_x_min, cfg.fb_x_max, cfg.fb_x_n)
    sols = [principal_value_fb(cfg.params, float(x)) for x in xs]
    write_csv(os.path.join(outdir, "fb_value.csv"),
              ("x", "lambda_lag", "tau_star", "value"),
              (xs, [s.lambda_lag for s in sols], [s.tau_star.value for s in sols],
               [s.value for s in sols]))

    anchor = principal_value_fb(cfg.params, cfg.params.x_reserve)
    ts = np.linspace(0.0, cfg.fb_t_max, cfg.fb_t_n)
    write_csv(os.path.join(outdir, "fb_schedule.csv"), ("t", "rent", "effort", "H"),
              (ts, *schedules(cfg.params, anchor.lambda_lag, ts)))
    diag = {
        "schedule_x": cfg.params.x_reserve,
        "schedule_lambda_lag": anchor.lambda_lag,
    }
    return ["fb_value.csv", "fb_schedule.csv"], diag


def _second_best(cfg: RunConfig, outdir, solved):
    sol = solved[cfg.params.sigma]
    g = sol.grid
    write_csv(os.path.join(outdir, "sb_solution.csv"),
              ("x", "w", "r_star", "a_star", "stop"),
              (g.x, sol.w, sol.r_star, sol.a_star, sol.stop))
    diag = {
        "b_hat": sol.b_hat,
        "iterations": sol.iterations,
        "residual": sol.residual,
        "residual_within_bound": sol.residual <= _RESIDUAL_BOUND,
        "k_growth": sol.k_growth,
        "effort_convex_nodes": sol.effort_convex_nodes,
        "level_sweeps": [list(level) for level in sol.level_sweeps],
    }
    if not diag["residual_within_bound"]:
        print(f"warning: residual {sol.residual:.3e} is above criterion 05's bound of "
              f"{_RESIDUAL_BOUND:g} (howard.tol = {cfg.howard_tol:g})", file=sys.stderr)
    return ["sb_solution.csv"], diag


def _simulate(cfg: RunConfig, outdir, solved):
    sol = solved[cfg.params.sigma]
    table = simulate_paths(cfg.params, sol, cfg.sim_x0, cfg.sim,
                           n_recorded=min(_RECORDED_PATHS, cfg.sim.n_paths))
    names = ("path_id", "t", "j", "x", "dw", "stopped")
    write_csv(os.path.join(outdir, "paths.csv"), names, [getattr(table, k) for k in names])
    mc = summarize_paths(cfg.params, sol, cfg.sim, table)
    diag = {
        "x0": cfg.sim_x0,
        "n_paths": mc.n_paths,
        "mc_estimate": mc.estimate,
        "mc_std_error": mc.std_error,
        "n_floor": mc.n_floor,
        "n_stopped": mc.n_paths - mc.n_floor - mc.n_censored,
        "n_censored": mc.n_censored,
        "path_steps": int(table.steps.sum()),
        "censoring_bias_bound": mc.censoring_bias_bound,
    }
    return ["paths.csv"], diag


def _voi(cfg: RunConfig, outdir, solved):
    sol = solved[cfg.params.sigma]
    try:
        table = value_of_information(cfg.params, np.linspace(0.0, cfg.voi_x_max, cfg.voi_x_n), sol)
    except ValueError as exc:  # the config keeps voi.x_max <= grid.x_max, not the boundary
        raise ConfigError(f"voi.x_max = {cfg.voi_x_max:.6g}: {exc}") from None
    write_csv(os.path.join(outdir, "voi.csv"),
              ("x", "v_fb", "v_sb", "voi"),
              (table.x, table.v_fb, table.v_sb, table.voi))
    diag = {"voi_min": float(table.voi.min())}
    return ["voi.csv"], diag


def _sweep(cfg: RunConfig, outdir, solved):
    failed = [sg for sg in cfg.sweep_sigmas if isinstance(solved[sg], Exception)]
    per_sigma = [(np.full(solved[sg].grid.n, sg), solved[sg].grid.x, solved[sg].w)
                 for sg in cfg.sweep_sigmas if sg not in failed]
    write_csv(os.path.join(outdir, "sweep.csv"), ("sigma", "x", "w"),
              [np.concatenate(col) for col in zip(*per_sigma)])
    diag = {
        "sweep_sigmas": list(cfg.sweep_sigmas),
        "sweep_failures": [f"{sg}: {type(solved[sg]).__name__}: {solved[sg]}" for sg in failed],
    }
    # the sweep's own solutions are freed with this stage
    for sg in cfg.sweep_sigmas:
        if sg != cfg.params.sigma:
            solved.pop(sg, None)
    return ["sweep.csv"], diag


def _own_sigma(cfg: RunConfig):
    return (cfg.params.sigma,)


# (timings key prefix, stage, the sigmas it needs solved) in run order
_FB, _SB, _VOI, _SWEEP, _SIM = (("fb", _first_best, lambda cfg: ()),
                                ("sb", _second_best, _own_sigma),
                                ("voi", _voi, _own_sigma),
                                ("sweep", _sweep, lambda cfg: cfg.sweep_sigmas),
                                ("sim", _simulate, _own_sigma))
_SUBCOMMANDS = {
    "first-best": (_FB,),
    "second-best": (_SB,),
    "simulate": (_SIM,),
    "voi": (_VOI,),
    "sweep": (_SWEEP,),
    "report": (_FB, _SB, _VOI, _SWEEP, _SIM),
}


def _parse_argv(argv):
    if not argv:
        raise ConfigError("missing subcommand")
    sub = argv[0]
    if sub in ("-h", "--help", "help"):
        return None, None, None, None
    if sub not in _SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {sub!r}")
    config_path = None
    out_dir = None
    overrides = []
    i = 1
    while i < len(argv):
        flag = argv[i]
        if flag in ("--config", "--out", "--set"):
            if i + 1 >= len(argv):
                raise ConfigError(f"{flag} needs a value")
            value = argv[i + 1]
            i += 2
        else:
            raise ConfigError(f"unknown argument {flag!r}")
        if flag == "--config":
            config_path = value
        elif flag == "--out":
            out_dir = value
        else:
            overrides.append(value)
    return sub, config_path, out_dir, overrides


def cli_dispatch(argv) -> int:
    """Run one subcommand; returns the process exit code."""
    t_start = time.perf_counter()
    try:
        sub, config_path, out_dir, overrides = _parse_argv(list(argv))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(_USAGE, file=sys.stderr, end="")
        return 1
    if sub is None:
        _print_out(_USAGE)
        return 0

    out_dir = os.environ.get("CONTRACT_SOLVE_OUT") or out_dir or "out"
    try:
        cfg = load(config_path, overrides)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    stages = _SUBCOMMANDS[sub]
    sigmas = [sg for _, _, need in stages for sg in need(cfg)]
    files, diag, timings = [], {}, {}
    staging = None
    try:
        os.makedirs(out_dir, exist_ok=True)
        staging = tempfile.mkdtemp(prefix=".contract-solve-", dir=out_dir)
        solved = {}
        if sigmas:
            t0 = time.perf_counter()
            # no other reference to a solution outlives solved, so the sweep stage frees its own
            solved = sigma_sweep(cfg.params, sigmas, grid=cfg.grid, tol=cfg.howard_tol,
                                 max_iter=cfg.howard_max_iter)
            timings["solve_seconds"] = time.perf_counter() - t0
        own = solved.get(cfg.params.sigma)
        if isinstance(own, Exception) and any(need is _own_sigma for _, _, need in stages):
            print(f"solver failure: {type(own).__name__}: {own}", file=sys.stderr)
            return 2
        for key, stage, _ in stages:
            t0 = time.perf_counter()
            stage_files, stage_diag = stage(cfg, staging, solved)
            timings[f"{key}_seconds"] = time.perf_counter() - t0
            files += stage_files
            diag.update(stage_diag)
        manifest = {
            "tool_version": __version__,
            "subcommand": sub,
            "config": cfg.snapshot,
            "files": sorted(files + ["manifest.json"]),
            "diagnostics": diag,
            "timings": {**timings, "total_seconds": time.perf_counter() - t_start},
        }
        with open(os.path.join(staging, "manifest.json"), "w", encoding="utf-8",
                  newline="") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        names = files + ["manifest.json"]  # the manifest last: it marks a whole run
        for name in names:  # a directory in a file's place fails the run before any move
            target = os.path.join(out_dir, name)
            if os.path.isdir(target) and not os.path.islink(target):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), target)
        for name in names:
            os.replace(os.path.join(staging, name), os.path.join(out_dir, name))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvalidStart as exc:  # a bad sim.x0, not a solver failure
        print(f"error: sim.{exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot write to {out_dir}: {exc}", file=sys.stderr)
        return 1
    except (BracketFailure, PolicyOutOfRange) as exc:
        print(f"solver failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        if staging is not None:
            shutil.rmtree(staging, ignore_errors=True)
    _print_out("".join(os.path.join(out_dir, name) + "\n" for name in manifest["files"]))
    return 0


def _print_out(text: str) -> None:
    """Write text to stdout. A reader that closed it (a pipe into head) is
    not an error: stdout then goes to the null device, so neither this write
    nor the interpreter's flush at exit raises."""
    try:
        print(text, end="", flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))
