"""Output checks for every op kind.

The checks recompute what they compare against with their own leaf loops
and never call into ``dyadicops``, so a defect in the program cannot hide
by also sitting in the reference.  Each checker returns ``None`` when the
output is right and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import NamedTuple

FLOAT_TOL = 1e-9


class Result(NamedTuple):
    """What one op returned: exit code, captured stdout, and the bytes of
    each file it wrote."""

    rc: int
    stdout: str
    files: dict


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= FLOAT_TOL * max(1.0, abs(want))


def _decode(value, mode: str):
    """A JSON scalar as float, or as Fraction in rational mode; a value
    with a nonzero sqrt(2) part decodes to None."""
    if mode == "float64":
        return float(value)
    if isinstance(value, list):
        a, b = value
        return Fraction(a) if Fraction(b) == 0 else None
    return Fraction(value)


def _to_float(value) -> float:
    """Any JSON scalar, including an [a, b] pair for a + b*sqrt(2), as a float."""
    if isinstance(value, list):
        a, b = value
        return float(Fraction(a)) + float(Fraction(b)) * math.sqrt(2.0)
    return float(Fraction(value)) if isinstance(value, str) else float(value)


def _compare_values(got: list, meta: dict, what: str) -> str | None:
    want = meta["values"]
    if len(got) != len(want):
        return f"{what}: {len(got)} leaves, want {len(want)}"
    for leaf, (g, w) in enumerate(zip(got, want)):
        if g is None:
            return f"{what}: leaf {leaf} has an irrational part"
        ok = g == w if meta["mode"] == "rational" else _close(g, w)
        if not ok:
            return f"{what}: leaf {leaf} is {g}, want {w}"
    return None


def _same_function(obj: dict, meta: dict, what: str) -> str | None:
    if obj.get("depth") != meta["depth"] or obj.get("mode") != meta["mode"]:
        return f"{what}: depth/mode {obj.get('depth')}/{obj.get('mode')} differ from the input"
    return _compare_values([_decode(v, meta["mode"]) for v in obj["values"]], meta, what)


# -- verify ---------------------------------------------------------------------


def check_verify(result: Result, meta: dict) -> str | None:
    if result.rc != 0:
        return f"verify {meta['suite']} exited {result.rc}"
    obj = json.loads(result.stdout)
    if obj.get("ok") is not True or obj.get("failures") != 0:
        return f"verify {meta['suite']} reported {obj.get('failures')} failures"
    if obj.get("suite") != meta["suite"] or obj.get("trials") != meta["trials"]:
        return f"verify report is for {obj.get('suite')} x {obj.get('trials')} trials"
    return None


# -- estimate / weak --------------------------------------------------------------


def _weak_quasinorm(mags: list[float], n: int, r: float) -> float:
    """max over the distinct nonzero values v of |g| of v * |{|g| >= v}|**(1/r)."""
    best = 0.0
    ordered = sorted(mags, reverse=True)
    for count, v in enumerate(ordered, start=1):
        if v == 0.0:
            break
        if count == len(ordered) or ordered[count] != v:
            best = max(best, v * (count / n) ** (1.0 / r))
    return best


def closed_form_bound(meta: dict) -> float | None:
    """The extremal lower bound from the closed forms of the sharp families
    (acceptance criteria 04a-c, and 04d for the weak case-I commutator):
    the maximum over intervals of the ratio each family attains."""
    depth = meta["depth"]
    n = 1 << depth
    form = meta["form"]
    r = float(1 / sum(Fraction(1) / Fraction(p) for p in meta["p"]))
    b = meta.get("b")
    best = None
    for level in range(depth):
        width = n >> level
        half = width >> 1
        for pos in range(1 << level):
            start = pos * width
            if form == "paraproduct":
                ratio = 1.0
            elif form == "multiplier":
                ratio = abs(float(meta["symbol"].get((level, pos), 0)))
            elif form == "pi":
                # |<b, h_I>| / sqrt(|I|)
                diff = sum(b[start + half:start + width]) - sum(b[start:start + half])
                ratio = abs(diff) * (1 << level) / n
            elif form == "commutator-II":
                # |I|**(-1/r) times the L^r oscillation of b on I
                seg = b[start:start + width]
                avg = sum(seg) / width
                ratio = (sum(abs(v - avg) ** r for v in seg) / width) ** (1.0 / r)
            elif form == "commutator-I-weak":
                # output is +-2**((level-1)/2) (b - <b>_I) 1_I; inputs 1_I, h_parent
                if level == 0:
                    continue
                seg = b[start:start + width]
                avg = sum(seg) / width
                scale = 2.0 ** ((level - 1) / 2.0)
                weak = _weak_quasinorm([abs(v - avg) * scale for v in seg], n, r)
                ratio = weak * (1 << level)
            else:
                raise ValueError(f"unknown closed form {form!r}")
            best = ratio if best is None else max(best, ratio)
    return best


def check_estimate(result: Result, meta: dict, path: str) -> str | None:
    if result.rc != 0:
        return f"estimate exited {result.rc}"
    if result.files.get(path) != result.stdout.encode():
        return "report file and stdout differ"
    report = json.loads(result.stdout)
    if report.get("trials") != meta["trials"] or report["grid"]["depth"] != meta["depth"]:
        return "report is for another grid or trial count"
    best, ext = report["best_ratio"], report["extremal_lower_bound"]
    if ext is None or not math.isfinite(best) or not math.isfinite(ext):
        return f"best_ratio {best} / extremal_lower_bound {ext} not finite"
    if not best >= ext:
        return f"best_ratio {best!r} < extremal_lower_bound {ext!r}"
    want = closed_form_bound(meta)
    if abs(ext - want) > FLOAT_TOL * abs(want):
        return f"extremal_lower_bound {ext!r}, closed form gives {want!r}"
    return None


# -- data commands -------------------------------------------------------------------


def check_analyze(result: Result, meta: dict, path: str) -> str | None:
    if result.rc != 0:
        return f"analyze exited {result.rc}"
    obj = json.loads(result.files[path])
    mean = _decode(obj["mean"], meta["mode"])
    want = sum(meta["values"]) / len(meta["values"])
    ok = mean == want if meta["mode"] == "rational" else _close(mean, want)
    return None if ok else f"spectrum mean {mean}, want {want}"


def check_synthesize(result: Result, meta: dict, path: str) -> str | None:
    if result.rc != 0:
        return f"synthesize exited {result.rc}"
    return _same_function(json.loads(result.files[path]), meta, "synthesize(analyze(f))")


def check_norms(result: Result, meta: dict, path: str) -> str | None:
    if result.rc != 0:
        return f"norms exited {result.rc}"
    obj = json.loads(result.files[path])
    vals = meta["values"]
    n = len(vals)
    mags = [abs(float(v)) for v in vals]
    if not _close(float(obj["lp"]["1"]), sum(mags) / n):
        return f"lp 1 is {obj['lp']['1']}, want {sum(mags) / n}"
    if not _close(float(obj["lp"]["inf"]), max(mags)):
        return f"lp inf is {obj['lp']['inf']}, want {max(mags)}"
    mx = obj["maximal"]
    for leaf, (m, v) in enumerate(zip(mx["values"], vals)):
        got = _decode(m, mx["mode"])
        if got is None or got < abs(v):
            return f"maximal {m} < |f| = {abs(v)} at leaf {leaf}"
    # Parseval: ||Sf||_2^2 = ||f - <f>||_2^2
    energy = sum(_to_float(s) ** 2 for s in obj["square"]["values"]) / n
    mean = sum(float(v) for v in vals) / n
    want = sum((float(v) - mean) ** 2 for v in vals) / n
    if not _close(energy, want):
        return f"||Sf||_2^2 is {energy}, want {want}"
    return None


def check_czd(result: Result, meta: dict, path: str) -> str | None:
    if result.rc != 0:
        return f"czd exited {result.rc}"
    obj = json.loads(result.files[path])
    mode, depth = meta["mode"], meta["depth"]
    n = 1 << depth
    zero = Fraction(0) if mode == "rational" else 0.0
    total = [_decode(v, mode) for v in obj["good"]["values"]]
    covered = [False] * n
    for part in obj["parts"]:
        level, pos = part["interval"]["level"], part["interval"]["pos"]
        width = n >> level
        span = range(pos * width, (pos + 1) * width)
        b = [_decode(v, mode) for v in part["b"]["values"]]
        for leaf in span:
            if covered[leaf]:
                return f"selected intervals overlap at leaf {leaf}"
            covered[leaf] = True
        if any(b[leaf] != zero for leaf in range(n) if leaf not in span):
            return f"part on ({level},{pos}) is nonzero outside its interval"
        mean = sum(b[leaf] for leaf in span) / width
        if not (mean == zero if mode == "rational" else _close(mean, 0.0)):
            return f"part on ({level},{pos}) has mean {mean}"
        # the stopping rule: a selected interval's |f|-average exceeds the height
        if not sum(abs(meta["values"][leaf]) for leaf in span) > meta["height"] * width:
            return f"({level},{pos}) was selected but its |f|-average is not above the height"
        total = [t + v for t, v in zip(total, b)]
    return _compare_values(total, meta, "czd good + bad")


def check(kind: str, result: Result, meta: dict, outputs: list[str]) -> str | None:
    """Dispatch to the checker of one op kind."""
    if kind == "verify":
        return check_verify(result, meta)
    checker = {
        "estimate": check_estimate,
        "analyze": check_analyze,
        "synthesize": check_synthesize,
        "norms": check_norms,
        "czd": check_czd,
    }[kind]
    return checker(result, meta, outputs[0])
