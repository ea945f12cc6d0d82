"""CSV files of floats in "%.8e": write_csv, a whole block at a time with numpy.

format_rows gives exactly the bytes of ``%`` with "%.8e" per value, ","
between a row's values and "\\n" after each row, or None where it cannot
prove that.  Per value x:

1. e = floor(log10|x|), the decimal exponent (perhaps off by one).
2. s = |x| * 10**(8 - e), with 10**(8 - e) the correctly rounded double;
   two roundings leave s within 2**-52 * s (~2.3e-7 below 1e9) of exact.
3. m = rint(s), the 9 significant digits.  Unless s lies within
   _TIE_MARGIN of a rounding tie, m is the correct rounding of the exact
   value, and if m is in [1e8, 1e9) then "m[0].m[1:]e<e>" is what "%.8e"
   prints, whether or not log10 was exact.
4. The text is gathered from NUL-padded 4-byte word tables and the padding
   deleted.

write_csv formats a block with ``%`` when this returns None: a value
non-finite, with |e| > _EXP_LIMIT (subnormals, 3-digit exponents near the
float range's ends), near a tie, or rounding to 1e9 (the next decade).
"""

from __future__ import annotations

import functools
from typing import Iterable, Sequence, TextIO

import numpy as np

# 10**(8 - e) stays a normal float for |e| <= this, and |x| * 10**(8 - e)
# stays in range
_EXP_LIMIT = 290
# wider than the ~2.3e-7 error of s, so rint rounds s as it would the exact
# value wherever s is further than this from a tie
_TIE_MARGIN = 1e-6
# rows formatted per write: the trace's 125k rows never exist as one string,
# and format_rows' temporaries stay at ~0.7 MB (~2.8 MB at 4096 rows)
_BLOCK_ROWS = 1024


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """10**(8 - e) per exponent e, and the ASCII words: "[-]d." per sign
    and leading digit, "dddd" per 4-digit group, and "e+XX" with its "," or
    "\\n" as two words per exponent.  Built on first use (~2 ms)."""
    exps = range(-_EXP_LIMIT, _EXP_LIMIT + 1)
    scale = np.array([float(f"1e{8 - e}") for e in exps])
    lead = b"".join(f"{s}{d}.".encode().ljust(4, b"\0") for s in ("", "-") for d in range(10))
    k = np.arange(10_000, dtype=np.uint16)
    groups = np.stack([k // 1000, k // 100 % 10, k // 10 % 10, k % 10], axis=1) + ord("0")
    tails = b"".join(f"e{e:+03d}{sep}".encode().ljust(8, b"\0") for e in exps for sep in ",\n")
    tail_words = np.frombuffer(tails, np.uint32).reshape(-1, 2)
    return (
        scale,
        np.frombuffer(lead, np.uint32),
        groups.astype(np.uint8).view(np.uint32).ravel(),
        tail_words[:, 0].copy(),
        tail_words[:, 1].copy(),
    )


def format_rows(block: np.ndarray) -> str | None:
    """The rows of a 2-D float block as "%.8e" CSV lines, or None when some
    value is not proven to come out as ``%`` prints it."""
    scale, lead, groups, tail0, tail1 = _tables()
    x = block.ravel()
    a = np.abs(x)
    zero = a == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
    e[zero] = 0.0
    if not (np.abs(e) <= _EXP_LIMIT).all():  # NaN and inf as well
        return None
    row = e.astype(np.intp) + _EXP_LIMIT
    s = a * scale[row]
    m = np.rint(s)
    if (np.abs(s - m) > 0.5 - _TIE_MARGIN).any():
        return None
    if not (((m >= 1e8) & (m < 1e9)) | zero).all():
        return None
    hi, lo = np.divmod(m.astype(np.int64), 10_000)
    d0, mid = np.divmod(hi, 10_000)
    last = np.zeros(block.shape[1], np.intp)
    last[-1] = 1  # a row's last value ends in "\n", the others in ","
    tail = (2 * row.reshape(block.shape) + last).ravel()
    words = np.empty((x.size, 5), np.uint32)
    words[:, 0] = lead[d0 + 10 * np.signbit(x)]
    words[:, 1] = groups[mid]
    words[:, 2] = groups[lo]
    words[:, 3] = tail0[tail]
    words[:, 4] = tail1[tail]
    return words.tobytes().translate(None, b"\0").decode("ascii")


def write_csv(fh: TextIO, names: Sequence[str],
              chunks: Iterable[Sequence[Sequence[float]]]) -> None:
    """Write the column names, then the rows of each chunk of equal-length
    columns in turn, _BLOCK_ROWS rows at a time, so memory grows with neither
    the row count nor the chunk size.  Chunks may hold any number of rows.
    A block that format_rows declines goes through one ``%`` over its
    flattened values; the bytes are the same either way."""
    row = ",".join(["%.8e"] * len(names)) + "\n"
    fh.write(",".join(names) + "\n")
    for chunk in chunks:
        cols = [np.asarray(col, dtype=float) for col in chunk]
        for i in range(0, len(cols[0]), _BLOCK_ROWS):
            block = np.column_stack([col[i:i + _BLOCK_ROWS] for col in cols])
            text = format_rows(block)
            if text is None:
                text = row * len(block) % tuple(block.ravel().tolist())
            fh.write(text)
