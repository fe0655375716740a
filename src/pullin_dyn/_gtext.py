"""CSV text of float blocks as ASCII bytes, each cell exactly as the "%.{p}g" template prints it.

The kernel makes a whole block's text in numpy passes. One correctly rounded
multiply by an exact power of ten scales a value to its p digits; that gives
the digits of the exact value unless the product lies within 2 ulp of a half,
where the rounding is not proven (Loitsch's Grisu3 rule: print fast where the
digits are proven, defer the rest to an exact printer). A pass bounds 2 ulp of
every product below 10^p by one number, 10^p * 2^-51. Deferred cells, cells in
exponent notation, zeros and non-finite values take the template's text, and
so do blocks too small to repay the passes and every block at p > 14 (at
p = 15 the window holds about 40 % of a trajectory's scaled values).

A cell is uint32 words gathered from digit tables whose blanks are NUL bytes,
which one `translate` strips: integer digits with NUL leading zeros, then the
fraction left-aligned, the point and 3 digits, then 4 digits a word, each from
one of two tables picked by whether a later digit is nonzero (trailing zeros,
and a point with no digit after it, are NUL). Where every integer part of a
pass is below 100, the separator, the sign and the integer share one word;
elsewhere the separator and sign take a word and the integer words of its own.
"""

from __future__ import annotations

import functools

import numpy as np

# Alone and warm, the kernel breaks even at 350-400 cells, but whole 800-cell adaptive runs took 1-9 % longer with it
# than with the template (best of 15, in one process); a first call builds the tables (about 1 ms).
_MIN_CELLS = 1200
# Cells per kernel pass: each temporary stays under glibc's first mmap threshold (128 KiB), so the passes never
# move malloc's dynamic thresholds (8192-cell passes did, and later calls took fresh pages in some processes only).
# At 4096 cells a float64, uint64 or intp column is 32 KiB, and the (cells, words) uint32 text 112 KiB at p <= 14
# and |x| < 10^4 (7 words: the separator, one integer word, five fraction words); 2048-cell passes cost twice the
# per-pass numpy dispatch.
_MAX_CELLS = 4096
_MAX_KERNEL_PRECISION = 14
_P10 = np.array([float(10**k) for k in range(23)])  # every one exact in a double
_P10_INT = np.array([10**k for k in range(20)], np.uint64)
# a cell's first word, by 2 * separator + negative; the separator before the cell is none (the block's
# first cell), a comma or a newline
_LEAD = np.frombuffer(b"\0\0\0\0" b"\0-\0\0" b",\0\0\0" b",-\0\0" b"\n\0\0\0" b"\n-\0\0", np.uint32)


@functools.cache
def _table(name: str) -> np.ndarray:
    """One digit table, built on first use: uint32 words of ASCII bytes, NUL for a blank. lead[6 * i + s]: the
    separator and sign s (as in _LEAD) and the digits of i < 100. integer[1 + 2 * g + full]: the 4 digits of g < 10^4,
    leading zeros NUL unless full (g = 0 shows "0"), and integer[0] all NUL. point[2 * g + more], fraction[2 * g +
    more]: "." and the 3 digits of g < 1000, the 4 of g < 10^4, trailing zeros (and the point of ".000") NUL unless
    more (a later digit is nonzero)."""
    width = {"lead": 2, "point": 3}.get(name, 4)
    digits = np.indices((10,) * width, np.uint8).reshape(width, -1)  # digits[k, g]: the k-th digit of g from the left
    if name == "point":  # a first row for the point, which shows where a digit does
        digits = np.vstack([np.zeros((1, 1000), np.uint8), digits])
    shown, leading = digits != 0, name in ("lead", "integer")
    for k in range(1, width) if leading else range(len(digits) - 2, -1, -1):  # a few row ops; accumulate is slower
        shown[k] |= shown[k - 1 if leading else k + 1]  # after a nonzero digit (integers) or before one (fractions)
    shown[-1] |= leading  # an integer's units digit
    text = digits + np.uint8(ord("0"))
    if name == "point":
        text[0] = ord(".")
    blanked = np.where(shown, text, 0)
    if name == "lead":
        signs = np.tile(_LEAD.view(np.uint8).reshape(6, 4)[:, :2], (100, 1))
        return np.hstack([signs, np.repeat(blanked.T, 6, axis=0)]).view(np.uint32).ravel()
    both = np.stack([blanked, text]).transpose(2, 0, 1).reshape(-1, 4)  # by entry, then blanked and full
    return (np.vstack([np.zeros((1, 4), np.uint8), both]) if name == "integer" else both).view(np.uint32).ravel()


@functools.lru_cache(maxsize=4)  # a file's passes share one shape but the last; at most 4 KiB each
def _separators(rows: int, cols: int) -> np.ndarray:  # each cell's separator, an index into _LEAD before its sign
    sep = np.full((rows, cols), 2, np.uint8)
    sep[:, 0], sep[0, 0] = 4, 0
    return np.frombuffer(sep.tobytes(), np.uint8)  # read-only, as a cached result must be


def _round(x: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cells the kernel defers (bad), the exponent of "%.{p}g" (e) and its p digits as an integer (n);
    e and n are p - 1 and 0 at the deferred cells, which then print as "0"."""
    with np.errstate(divide="ignore", invalid="ignore"):  # zeros and non-finite cells fail the range test
        a = np.abs(x)
        e = np.floor(np.log10(a)).astype(np.intp)  # perhaps off by one
        s = a * np.take(_P10, p - 1 - e, mode="clip")
        off = np.flatnonzero((s >= _P10[p]) | (s < _P10[p - 1]))  # rescaled alone: p digits before the point
        e[off] += np.where(s[off] >= _P10[p], 1, -1)
        s[off] = a[off] * np.take(_P10, p - 1 - e[off], mode="clip")
        n = np.rint(s)
        # s is within ulp(s) / 2 of the exact product, and 10^p * 2^-51 > s * 2^-51 >= 2 ulp(s): n is its rounding
        ok = (s >= _P10[p - 1]) & (s < _P10[p]) & (np.abs(s - n) < 0.5 - _P10[p] * 2.0**-51)
    carry = np.flatnonzero(n == _P10[p])  # 99.99..5 rounds up to 10^p: one more exponent, digits 10^(p-1)
    e[carry], n[carry] = e[carry] + 1, _P10[p - 1]
    bad = np.flatnonzero(~ok | (e < -4) | (e >= p))  # "%g" prints fixed notation only from 1e-4 to 10^p
    e[bad], n[bad] = p - 1, 0.0
    return bad, e, n


def _words(x: np.ndarray, p: int, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """The cells the kernel defers, and each cell's bytes with the separator before it, padded with NUL bytes."""
    bad, e, n = _round(x, p)
    f = p - 1 - e  # fraction digits, trailing zeros included
    scale = _P10[f]
    i = np.floor(n / scale)  # exact while n < 2^52
    fw = int(f.max()) // 4 * 4 + 3  # fraction digits in the slots: 3 after the point, then 4 a word
    r = (n - i * scale).astype(np.uint64) * _P10_INT[fw - f]  # the fraction, left-aligned
    i = i.astype(np.intp)
    iw = 0 if (top := int(i.max())) < 100 else (len(str(top)) + 3) // 4  # integer words of their own
    # room for a deferred cell's template text: sign, p digits, point and "e+308"
    words = max(1 + iw + (fw + 1) // 4, -(-(p + 8) // 4) if bad.size else 0)
    sign = _separators(rows, cols) + (x < 0.0)
    out = np.empty((len(x), words), np.uint32)
    if iw:
        out[:, 0] = _LEAD[sign]
        for k in range(iw, 0, -1):  # least significant word first
            q = i // 10_000
            out[:, k] = _table("integer")[2 * (i - 10_000 * q) + (q != 0) + ((i != 0) | (k == iw))]
            i = q
    else:
        out[:, 0] = _table("lead")[6 * i + sign]
    for k in range(fw // 4):  # each fraction word but the last, from the table its later digits pick
        g = r // (unit := _P10_INT[fw - 3 - 4 * k])
        r -= g * unit
        out[:, 1 + iw + k] = _table("fraction" if k else "point")[(2 * g + (r != 0)).view(np.intp)]
    out[:, iw + (fw + 1) // 4] = _table("fraction" if fw > 3 else "point")[(2 * r).view(np.intp)]
    out[:, 1 + iw + (fw + 1) // 4 :] = 0
    return bad, out.view(np.uint8)


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
    bad, out = _words(x, max(precision, 1), rows, cols)  # "%.0g" prints one digit
    if bad.size:
        texts = "".join([(template % v).ljust(out.shape[1] - 1, "\0") for v in x[bad].tolist()])
        out[bad, 1:] = np.frombuffer(texts.encode(), np.uint8).reshape(bad.size, -1)
    return out.tobytes().translate(None, b"\0") + b"\n"
