"""CPython 3.12's sum() on an older interpreter, for checking the pins.

compensated_sum emulates the sum() of CPython 3.12 and later:

- ints and bools add exactly, as a C long while the total fits in one;
- floats add with Neumaier's compensation, which joins the total at the
  end, or before an item of another type, only when it is finite;
- an int among floats adds as a double, without compensation;
- anything else adds with +.

Every float total in fragsim is a left-to-right fold, so its digests and
CSVs must match their pins under this sum() as under 3.11's. Tests swap
builtins.sum for it with monkeypatch; sitecustomize.py, beside this
module, swaps it at start-up for a whole run:

    PYTHONPATH=tests/sum312:src python -c 'assert sum([0.1] * 10) == 1.0'
"""

import math

_LONG_MIN, _LONG_MAX = -2 ** 63, 2 ** 63 - 1


def compensated_sum(iterable, /, start=0):
    """sum(iterable, start) as CPython 3.12 and later add it."""
    for kind, name, join in ((str, "strings", "''"), (bytes, "bytes", "b''"),
                             (bytearray, "bytearray", "b''")):
        if isinstance(start, kind):
            raise TypeError(f"sum() can't sum {name} "
                            f"[use {join}.join(seq) instead]")
    items = iter(iterable)
    result = start
    if type(result) is int and _LONG_MIN <= result <= _LONG_MAX:
        for item in items:
            if type(item) in (int, bool) and \
                    _LONG_MIN <= result + item <= _LONG_MAX:
                result += item
                continue
            result = result + item
            break
    if type(result) is float:
        total, comp = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    comp += (total - t) + item
                else:
                    comp += (item - t) + total
                total = t
            elif isinstance(item, int) and _LONG_MIN <= item <= _LONG_MAX:
                total += float(item)
            else:
                if comp and math.isfinite(comp):
                    total += comp
                result = total + item
                break
        else:
            if comp and math.isfinite(comp):
                total += comp
            return total
    for item in items:
        result = result + item
    return result

