"""The byte format of every CSV and JSON run artifact.

Tables are UTF-8 with '\\n' line ends, quoted by `csv.writer`; documents
are JSON with two-space indent, sorted keys and a final newline, and hold
finite numbers only. Keeping the format here alone is what makes reruns
byte-identical everywhere.

An edge list row reads `f"{i},{j},{g!r}\\n"`: every strength in
`network.csv` is its `repr` text. `edge_rows` writes a block of rows with
numpy, computing each strength's shortest round-trip digits exactly; a
block holding a value the kernel does not decide goes through the `%`
template `_repr_rows` instead, which calls `repr` itself.
"""

from __future__ import annotations

import csv
import json

import numpy as np


def _halves(x):
    """Veltkamp's split of doubles x into hi + lo, each with at most 26
    significant bits, so that a product of two halves is exact."""
    c = x * 134217729.0  # 2**27 + 1
    hi = c - (c - x)
    return hi, x - hi


# 10**k for k <= 22, where every one is an exact double, and its halves.
_TEN_F = np.array([float(10**k) for k in range(23)])
_TEN_HI, _TEN_LO = _halves(_TEN_F)
# The doubles nearest 1e-4 ... 1e16. Those below 1 all lie above the
# power they stand for, so `a >= _BOUNDS[k]` holds exactly when
# a >= 10**(k - 4) for every double a.
_BOUNDS = np.array([float(f"1e{k}") for k in range(-4, 17)])


def write_csv(path, header, rows) -> None:
    """Write a header row, then every row of `rows`."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, payload) -> None:
    """Write `payload` as a document; a NaN or infinite number in it is a
    ValueError that names the file, raised before the file is opened."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text + "\n")


def _reject_constant(name):
    raise ValueError(f"expected finite numbers, got {name}")


def read_json(path):
    """Parse a JSON file; a file that is not UTF-8 JSON, or that holds
    NaN, Infinity or -Infinity, raises a ValueError that names it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=_reject_constant)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None


def edge_rows(edges, gamma) -> bytes:
    """The bytes of `f"{i},{j},{g!r}\\n"` for each row of an (E, 2) int64
    array of non-negative ids and its E float64 strengths: by arrays, or
    by the `%` template when `_shortest` leaves a strength undecided."""
    found = _shortest(np.abs(gamma))
    if found is None:
        return _repr_rows(edges, gamma)
    digits, scale = found
    # Each field holds one row of ASCII codes per place, with the edges
    # along it: the digits by power of ten, top power first, where each
    # shows if it is in the fraction, the units digit or no leading zero;
    # a point after the units of each scale in use; "0" after the point
    # at scale 0. Zeros mark unused places: the edges' rows read without
    # them give the text.
    top = max(int(scale.max()), 16)
    figures = _ascii(digits, top + 1, scale)
    fields = [_ascii(edges[:, 0]), 44, _ascii(edges[:, 1]), 44, (gamma < 0) * np.uint8(45)]
    done = 0
    for s in np.flatnonzero(np.bincount(scale))[::-1].tolist():
        fields += [figures[done : top - s + 1], (scale == s) * np.uint8(46)]
        done = top - s + 1
    fields += [figures[done:], (scale == 0) * np.uint8(48), 10]
    fields = [np.atleast_2d(f) for f in fields]
    rows = np.empty((gamma.shape[0], sum(f.shape[0] for f in fields)), dtype=np.uint8)
    at = 0
    for f in fields:
        rows[:, at : at + f.shape[0]] = f.T
        at += f.shape[0]
    del fields, figures  # free them before the copies below
    return rows[rows != 0].tobytes()


def _repr_rows(edges, gamma) -> bytes:
    # One % call formats the whole block in C: %d writes str(int) and %r
    # writes repr(float), so no string is built per row.
    fields = [None] * (3 * gamma.shape[0])
    fields[0::3] = edges[:, 0].tolist()
    fields[1::3] = edges[:, 1].tolist()
    fields[2::3] = gamma.tolist()
    return (("%d,%d,%r\n" * gamma.shape[0]) % tuple(fields)).encode()


def _shortest(a):
    """The digits D and scale s, 0 <= s <= 20, that `repr` writes for each
    double 1e-4 <= a < 1e16 (its shortest digits, read as D / 10**s), or
    None where some a is outside that domain or is one whose digits the
    checks below cannot settle.

    At the scale of 16 significant digits the check D / 10**s == a is
    exact, as D < 2**53 and 10**s are both doubles. Where 16 digits fail
    the nearest 17-digit value is the answer; where they hold, shorter
    scales are tried on those rows. A product at exactly half between two
    integers ends the attempt: `repr` breaks such ties itself, and every
    non-integer power of two, whose rounding interval is lopsided, meets
    one on the way down.
    """
    # The scale of 16 significant digits: a in [1e(15 - scale), 1e(16 - scale)).
    scale = 20 - np.searchsorted(_BOUNDS, a, side="right")
    if not ((scale >= 0) & (scale < 20)).all():
        return None
    digits, tie = _nearest(a, scale)
    if tie.any() or (digits >= 2**53).any():
        return None
    live = digits / _TEN_F[scale] == a
    d, tie = _nearest(a, scale + 1)
    if (tie & ~live).any():
        return None
    np.copyto(digits, d, where=~live)
    scale += ~live
    # Whole-block arrays throughout: arrays of the rows still stepping
    # would come in every small size, and numpy and malloc keep freed
    # small buffers of each size for reuse.
    live &= scale > 0
    while live.any():
        s = scale - live
        d, tie = _nearest(a, s)
        if (tie & live).any():
            return None
        live &= d / _TEN_F[s] == a
        np.copyto(digits, d, where=live)
        np.copyto(scale, s, where=live)
        live &= scale > 0
    return digits, scale


def _nearest(a, s):
    """The integer nearest a * 10**s for doubles a > 0 and 0 <= s <= 22
    with product below 2**57, and where its distance to the product
    cannot be told from 1/2.

    With p + e the exact product, p's integer part plus a rounding of
    (p - floor(p)) + e decides the nearest; the rounding is monotone, so
    it can turn a fraction off 1/2 into exactly 1/2 (flagged) but never
    across it.
    """
    p, e = _two_product(a, s)
    whole = p.astype(np.int64)
    p -= whole
    p += e
    p += 16.0  # > 0: |e| <= ulp(p) / 2 <= 8
    ahead = p.astype(np.int64)
    p -= ahead
    whole += ahead - 16
    return whole + (p > 0.5), p == 0.5


def _two_product(a, s):
    """p = a * 10**s rounded, and its error e, so that p + e is the exact
    product for doubles 0 < a < 1e17 and 0 <= s <= 22 (Dekker)."""
    p = a * _TEN_F[s]
    hi, lo = _halves(a)
    t_hi, t_lo = _TEN_HI[s], _TEN_LO[s]
    return p, ((hi * t_hi - p) + hi * t_lo + lo * t_hi) + lo * t_lo


def _ascii(x, width=None, units=0):
    """ASCII codes of the last `width` decimal digits of non-negative ints
    x (all of the largest one's by default), top power first, one row
    each, with 0 for each leading zero above power `units` (an int, or
    one per x). A digit is the difference of two successive quotients by
    10, exact in their low bytes. Each numpy call works on one row: a
    broadcast one would take a buffer of 8192 elements per operand."""
    width = width or len(str(int(x.max())))
    codes = np.empty((width, x.shape[0]), dtype=np.uint8)
    low = x.astype(np.uint8)
    for power in range(width):
        shown = (x > 0) | (units >= power)  # x is the ints // 10**power here
        x = x // 10
        high = x.astype(np.uint8)
        codes[width - 1 - power] = (low - 10 * high + 48) * shown
        low = high
    return codes
