"""CSV text of float blocks as ASCII bytes, each cell exactly as the "%.{p}g" template prints it.

The kernel makes a whole block's text in numpy passes. One correctly rounded
multiply by an exact power of ten scales a value to its p digits; that gives
the digits of the exact value unless the product lies within 2 ulp of a half,
where the rounding is not proven (Loitsch's Grisu3 rule: print fast where the
digits are proven, defer the rest to an exact printer). Those cells, cells in
exponent notation, zeros and non-finite values take the template's text, and
so do whole blocks too small to repay the passes and every block at p > 14:
at p = 15 the 2-ulp window around a half holds about 40 % of the scaled
values of a trajectory, so the kernel would defer most of them.
"""

from __future__ import annotations

import functools

import numpy as np

# Warm, the kernel breaks even near 600 cells; a process's first kernel call also builds its tables (about 1 ms).
_MIN_CELLS = 1200
# Cells per kernel pass: each temporary stays under glibc's first mmap threshold (128 KiB), so the passes never
# move malloc's dynamic thresholds (8192-cell passes did, and later calls took fresh pages in some processes only).
# At 4096 cells a float64 or intp column is 32 KiB, and the (cells, words) uint32 text 112 KiB at p <= 14 and
# |x| < 10^4 (7 words: the separator, one integer word, five fraction words); 2048-cell passes cost twice the
# per-pass numpy dispatch.
_MAX_CELLS = 4096
_MAX_KERNEL_PRECISION = 14
_P10 = np.array([float(10**k) for k in range(23)])  # every one exact in a double
_BYTE0 = np.frombuffer(b"\xff\0\0\0", np.uint32)[0]  # the first byte of a word
# a cell's first word, by 2 * separator + negative; the separator before the cell is none (the block's
# first cell), a comma or a newline
_LEAD = np.frombuffer(b"\0\0\0\0" b"\0-\0\0" b",\0\0\0" b",-\0\0" b"\n\0\0\0" b"\n-\0\0", np.uint32)


def _groups(v: np.ndarray, n: int) -> list[np.ndarray]:
    """The last n 4-digit groups of each integer v >= 0, most significant first."""
    out = []
    for _ in range(n):
        q = v // 10_000
        out.insert(0, v - 10_000 * q)
        v = q
    return out


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """The 4 ASCII digits of each group 0000..9999 as one uint32, and its trailing zeros (4 for 0000)."""
    abc = np.arange(10_000, dtype=np.uint16)
    digits = np.stack([abc // 10**k % 10 + ord("0") for k in (3, 2, 1, 0)], axis=1).astype(np.uint8).view(np.uint32)
    return digits.ravel(), sum((abc % 10**k == 0).view(np.uint8) for k in (1, 2, 3, 4))


@functools.lru_cache(maxsize=4)  # a file's passes share one shape but the last; at most 4 KiB each
def _separators(rows: int, cols: int) -> np.ndarray:  # each cell's separator, an index into _LEAD before its sign
    sep = np.full((rows, cols), 2, np.uint8)
    sep[:, 0], sep[0, 0] = 4, 0
    return np.frombuffer(sep.tobytes(), np.uint8)  # read-only, as a cached result must be


@functools.cache
def _masks(p: int) -> np.ndarray:
    """The masks of a cell's words after its first, by key = f * (p + 4) + z, as rows of uint32 by word.

    f = p - 1 - exponent counts the fraction digits and z the trailing zeros among them. The integer digits
    are right-aligned in 4 * ceil(p / 4) bytes. The fraction region's first byte is the point, and its
    digits are right-aligned in the rest. A mask byte is 0xFF where a digit shows, "." for the point, else 0.
    """
    point = 4 * -(-p // 4)
    width = point + 4 * (-(-p // 4) + 1)  # the point and at most p + 3 fraction digits
    f, zeros = np.divmod(np.arange((p + 4) ** 2)[:, None], p + 4)
    byte = np.arange(width)
    shown = (byte >= point - np.maximum(p - f, 1)) & (byte < point) | (byte >= width - f) & (byte < width - zeros)
    masks = np.where(shown, 255, np.where(byte == point, ord(".") * (zeros < f), 0))
    return masks.astype(np.uint8).view(np.uint32).T.copy()


def _round(x: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where the kernel prints x (ok), the exponent of "%.{p}g" (e) and its p digits as an integer (n).

    e and n are set to 0 and 10^(p-1) where ok is false.
    """
    a = np.abs(x)
    ok = (a > 0.0) & (a < np.inf)
    a = np.where(ok, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)  # perhaps off by one
    s = a * np.take(_P10, p - 1 - e, mode="clip")
    off = np.flatnonzero((s >= _P10[p]) | (s < _P10[p - 1]))  # rescaled alone: p digits before the point
    e[off] += np.where(s[off] >= _P10[p], 1, -1)
    s[off] = a[off] * np.take(_P10, p - 1 - e[off], mode="clip")
    n = np.rint(s)
    # s is within ulp(s) / 2 of the exact product, and s * 2^-51 is at least 2 ulp(s): n is its rounding
    ok &= (s >= _P10[p - 1]) & (s < _P10[p]) & (np.abs(s - n) < 0.5 - s * 2.0**-51)
    carry = n == _P10[p]  # 99.99..5 rounds up to 10^p: one more exponent, digits 10^(p-1)
    e += carry
    ok &= (e >= -4) & (e < p)  # "%g" prints fixed notation
    return ok, np.where(ok, e, 0), np.where(ok & ~carry, n, _P10[p - 1])


def _words(x: np.ndarray, p: int, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Where the kernel prints x, and each cell's bytes with the separator before it, padded with zero bytes.

    A cell is uint32 words: the separator and sign, the integer digits, then the point and fraction digits.
    """
    ok, e, n = _round(x, p)
    f = p - 1 - e  # fraction digits, trailing zeros included
    scale = _P10[f]
    i = np.floor(n / scale)  # exact while n < 2^52
    fraction = (n - i * scale).astype(np.intp)
    del e, n
    masks, (digits, trailing) = _masks(p), _digit_tables()
    n_int, n_frac = -(-max(p - int(f.min()), 1) // 4), -(-p // 4) + 1  # integer words written, fraction words
    groups = _groups(i.astype(np.intp), n_int) + _groups(fraction, n_frac)
    zeros = 0  # trailing zeros of the fraction region
    for g in groups[n_int:]:
        zeros = trailing[g] + (g == 0) * zeros
    key = f * (p + 4) + np.minimum(zeros, f)
    out = np.empty((len(x), 1 + len(groups)), np.uint32)
    out[:, 0] = _LEAD[_separators(rows, cols) + (x < 0.0)]
    for k, g in enumerate(groups):
        word = digits[g]
        if k == n_int:
            word |= _BYTE0  # the point's byte, set by its mask
        np.bitwise_and(word, masks[len(masks) - n_frac - n_int + k][key], out=out[:, 1 + k])
    return ok, out.view(np.uint8)


def csv_rows(block: np.ndarray, precision: int) -> bytes:
    """Rows of a 2-D float64 block joined by ',' and ended by '\\n', each cell "%.{precision}g" % cell, as ASCII."""
    rows, cols = block.shape
    template = f"%.{precision}g"
    if precision > _MAX_KERNEL_PRECISION or block.size < _MIN_CELLS:
        return (((",".join([template] * cols) + "\n") * rows) % tuple(block.ravel().tolist())).encode()
    step = max(_MAX_CELLS // cols, 1)
    if rows > step:
        return b"".join([csv_rows(block[j : j + step], precision) for j in range(0, rows, step)])
    x = block.ravel()
    ok, out = _words(x, max(precision, 1), rows, cols)  # "%.0g" prints one digit
    bad = np.flatnonzero(~ok)
    if bad.size:
        texts = "".join([(template % v).ljust(out.shape[1] - 1, "\0") for v in x[bad].tolist()])
        out[bad, 1:] = np.frombuffer(texts.encode(), np.uint8).reshape(bad.size, -1)
    return out.tobytes().translate(None, b"\0") + b"\n"
