"""The byte format of every CSV and JSON run artifact.

Tables are UTF-8 with '\\n' line ends, quoted by `csv.writer`; documents
are JSON with two-space indent, sorted keys and a final newline, and hold
finite numbers only. Keeping the format here alone is what makes reruns
byte-identical everywhere.

An edge list row reads `f"{i},{j},{g!r}\\n"`: every strength in
`network.csv` is its `repr` text. `edge_rows` writes a block of rows with
numpy, computing each strength's shortest round-trip digits exactly. A
block holding a value that `repr` must decide itself goes through the `%`
template `_repr_rows` instead: a non-finite value, |g| outside [1e-4,
1e16), a 16-digit value >= 2**53, or a true 16- or 17-digit tie.
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
# 10**min(k, 17) as int64 for k <= 20: D // _SPLIT[s] is the whole part
# of D / 10**s, as every D is below 10**17.
_SPLIT = 10 ** np.minimum(np.arange(21), 17)
# The four ASCII codes of each of "0000" to "9999" as one uint32.
_QUADS = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48
_QUADS = _QUADS.astype(np.uint8).view(np.uint32).ravel()
# Row w, column k: word w of the six uint32 words whose last k bytes are
# 0xff, for k <= 24.
_MASKS = (np.uint8(255) * (np.arange(24) >= 24 - np.arange(25)[:, None])).view(np.uint32).T.copy()


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
    return _lines(edges, gamma, *found).T.tobytes().translate(None, b"\0")


def _lines(edges, gamma, digits, scale):
    """The rows of `edge_rows` as uint32 words, one row of the result per
    word of a line, to be read without their zero bytes. A line holds a
    field of whole words for each of i, j and the strength's whole and
    fractional part, D / 10**s split at the point; each field holds its
    digits last, zeros in the places above them, and in its first bytes
    room for the ',', '-' or '.' ahead of it. A last word holds the '\\n'."""
    whole, fraction = np.divmod(digits, _SPLIT[scale])
    ints = [edges[:, 0], edges[:, 1], whole]
    widths = [len(str(int(x.max()))) for x in ints] + [max(int(scale.max()), 1)]
    shown = [_digit_count(x, w) for x, w in zip(ints, widths)] + [np.maximum(scale, 1)]
    heads = [b"", b",", b",-", b"."]  # the "-" only where gamma < 0
    marks = [_word(h) for h in heads]
    marks[2] = np.where(gamma < 0, marks[2], _word(b","))
    sizes = [-(-(w + len(h)) // 4) for w, h in zip(widths, heads)]
    words = np.empty((sum(sizes) + 1, gamma.shape[0]), dtype=np.uint32)
    at = 0
    for x, places, mark, size in zip(ints + [fraction], shown, marks, sizes):
        _ascii(x, places, words[at : at + size])
        words[at] |= mark
        at += size
    words[at] = _word(b"\n")
    return words


def _word(text):
    """The uint32 whose bytes are `text`, then zeros."""
    return np.frombuffer(text.ljust(4, b"\0"), dtype=np.uint32)[0]


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
    the nearest 17-digit value is the answer. Where they hold, the rows
    step down to shorter scales while their digits still hold, rounding
    the 16-digit D half-up at each unit. Half an ulp of a is under 1.11
    units of the 16th digit, and a unit below 16 digits is at least 10 of
    them, so the farther candidate is at least 5 such units from a and
    only the nearer one can hold; at a dropped half both are at least 4.5
    away and neither can, whether or not the interval is the lopsided one
    of a power of two. A 16- or 17-digit product at exactly half between
    two integers, a true tie, ends the attempt: `repr` breaks it itself.
    """
    if not (a.min() >= _BOUNDS[0] and a.max() < _BOUNDS[-1]):  # NaN fails both
        return None
    # The scale of 16 significant digits: a in [1e(15 - scale), 1e(16 - scale)).
    scale = 20 - np.searchsorted(_BOUNDS, a, side="right")
    digits, tie = _nearest(a, scale)
    if tie.any() or (digits >= 2**53).any():
        return None
    live = digits / _TEN_F[scale] == a
    if not live.all():
        out = np.flatnonzero(~live)
        d, tie = _nearest(a[out], scale[out] + 1)
        if tie.any():
            return None
        digits[out] = d
        scale[out] += 1
    # Only the rows still live step down.
    rows = np.flatnonzero(live & (scale > 0))
    top, s, target = digits[rows], scale[rows], a[rows]
    unit = 1
    while rows.shape[0]:
        unit *= 10
        d, rest = np.divmod(top, unit)
        # Half-up; `>` would do as well, as at a half neither candidate holds.
        d += 2 * rest >= unit
        s -= 1
        held = d / _TEN_F[s] == target
        digits[rows[held]] = d[held]
        scale[rows[held]] = s[held]
        held &= s > 0
        rows, top, s, target = rows[held], top[held], s[held], target[held]
    return digits, scale


def _nearest(a, s):
    """The integer D nearest a * 10**s for doubles a > 0 and 0 <= s <= 22
    with product below 2**57, and where the product's distance to D cannot
    be told from 1/2, a tie.

    With p + e the exact product, p's integer part plus a rounding of
    (p - floor(p)) + e decides the nearest; the rounding is monotone, so
    it can turn a fraction off 1/2 into exactly 1/2 (a tie), but never
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


def _ascii(x, shown, out):
    """Write into the (w, E) uint32 rows `out` the ASCII codes of the last
    4w decimal digits of non-negative ints x below 10**(4w), top word
    first, each word holding four places; of each x only the last `shown`
    places (one count per x, at most 24) keep their codes, and the rest
    read 0. Four digits at a time come from a table of "0000" to "9999"."""
    width = out.shape[0]
    for w in range(width - 1, 0, -1):
        high = x // 10000
        _QUADS.take(x - high * 10000, out=out[w])
        x = high
    _QUADS.take(x, out=out[0])
    out &= _MASKS[6 - width :].take(shown, axis=1)


def _digit_count(x, width):
    """The decimal digits of each non-negative int x below 10**width, at
    least one."""
    count = np.ones(x.shape[0], dtype=np.intp)
    for k in range(1, width):
        count += x >= 10**k
    return count
