"""Layer tracing from outside the program.

The tracer replaces the public callables of each ``dyadicops`` module with
timing wrappers.  A callable is found by identity at every binding in the
``dyadicops.*`` module dicts and class dicts, so a function imported into
another module (``_engine`` into ``multipliers``, ``lp_norm`` into
``normlab``, the harness entry points into ``cli``) is traced wherever it
is called from.

Every wrapped call records a span (name, start, end, parent span, op id);
a group's self time is its spans' durations minus their child spans.
``Exact`` arithmetic runs too often for spans (10 decomposition trials
make about 140k calls), so the scalars layer keeps only counters and the
aggregate time of its outermost calls, which is also subtracted from the
self time of the span it ran under.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

# group -> (module, attribute path) of every callable it wraps
SPAN_TARGETS = {
    "core.tables": [
        ("core", "interval_integrals"), ("core", "average_table"),
        ("core", "coefficient_table"),
    ],
    "core.transform": [("core", "analyze"), ("core", "synthesize")],
    "core.json": [
        ("core", "StepFunction.to_json_dict"), ("core", "StepFunction.from_json_dict"),
        ("core", "HaarSpectrum.to_json_dict"), ("core", "HaarSpectrum.from_json_dict"),
    ],
    "core.pairing": [("core", "pairing"), ("core", "inner_product")],
    "core.norm": [
        ("core", "lp_norm"), ("core", "lp_norm_pow"),
        ("core", "weak_lp_quasinorm"), ("core", "weak_lp_quasinorm_pow"),
    ],
    "core.stepfn": [
        ("core", f"StepFunction.{name}")
        for name in (
            "__init__", "from_values", "constant", "zeros", "indicator", "haar",
            "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "scale",
            "abs", "restrict", "as_float64",
        )
    ],
    "paraproducts.engine": [("paraproducts", "_engine")],
    "paraproducts.residual": [
        ("paraproducts", name)
        for name in (
            "product_decomposition_residual", "localized_average_residual",
            "adjoint_residual", "transpose_residual",
        )
    ],
    "multipliers.symbol_table": [("multipliers", "SymbolSequence.table")],
    "multipliers.apply": [
        ("multipliers", name)
        for name in (
            "multilinear_multiplier", "commutator", "linear_multiplier",
            "commutator_linear",
        )
    ],
    "sublinear.maximal": [("sublinear", "maximal")],
    "sublinear.square": [("sublinear", "square_function"), ("sublinear", "square_function_sq")],
    "sublinear.bmo": [
        ("sublinear", name)
        for name in (
            "bmo_norm", "bmo_norm_pow", "bmo2_via_haar", "bmo2_via_haar_sq",
            "bstar_seminorm",
        )
    ],
    "sublinear.czd": [("sublinear", "cz_decompose")],
    "normlab.extremal": [("normlab", "extremal_tuple")],
    "normlab.apply": [("normlab", "OperatorDescriptor.apply")],
    "normlab.sample": [("normlab", "SamplerSpec.draw_tuple")],
    "normlab.outnorm": [("normlab", "_lr_quasinorm"), ("normlab", "_weak_lr_quasinorm")],
    "normlab.harness": [("normlab", "estimate_operator_norm"), ("normlab", "weak_type_ratio")],
    "cli": [("cli", "main")],
}

# Exact method -> counter category
EXACT_TARGETS = {
    "__mul__": "mul", "__rmul__": "mul", "__pow__": "mul",
    "__add__": "addsub", "__radd__": "addsub", "__sub__": "addsub",
    "__rsub__": "addsub", "__neg__": "addsub",
    "__truediv__": "div", "__rtruediv__": "div",
    "__bool__": "test", "__eq__": "test", "__ne__": "test", "__lt__": "test",
    "__le__": "test", "__gt__": "test", "__ge__": "test", "sign": "test",
    "__abs__": "test",
}


class Tracer:
    """Spans, call counters and self times of one traced run."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []  # frames [span id, start, child seconds]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.exact_calls: Counter = Counter()
        self.exact_self_s = 0.0
        self._in_exact = False
        self.op = None
        self.jobs = 0
        self.skipped_jobs = 0
        self.missing: list[str] = []
        self.bindings = 0
        self._undo: list = []

    # -- wrappers ---------------------------------------------------------------

    def _span_wrapper(self, group: str, name: str, fn):
        tracer = self
        is_harness = group == "normlab.harness"

        def traced(*args, **kwargs):
            stack = tracer.stack
            sid = len(tracer.spans)
            parent = stack[-1][0] if stack else None
            tracer.spans.append(None)
            frame = [sid, perf_counter(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                tracer.calls[group] += 1
                tracer.self_s[group] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                tracer.spans[sid] = (name, frame[1], end, parent, tracer.op)
            if is_harness:
                ratios = [ratio for _, ratio in out.trial_ratios]
                tracer.jobs += len(ratios)
                tracer.skipped_jobs += sum(ratio is None for ratio in ratios)
            return out

        traced.__wrapped__ = fn
        return traced

    def _exact_wrapper(self, category: str, fn):
        tracer = self

        def counted(*args):
            tracer.exact_calls[category] += 1
            if tracer._in_exact:
                return fn(*args)
            tracer._in_exact = True
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                duration = perf_counter() - start
                tracer._in_exact = False
                tracer.exact_self_s += duration
                if tracer.stack:
                    tracer.stack[-1][2] += duration

        counted.__wrapped__ = fn
        return counted

    # -- installation -------------------------------------------------------------

    def install(self, package: str = "dyadicops") -> None:
        """Wrap every target at every binding in the loaded package;
        ``uninstall`` puts the originals back."""
        self.missing, self.bindings, self._undo = [], 0, []
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))
        ]
        namespaces = []
        for module in modules:
            namespaces.append(module)
            namespaces += [
                v for v in vars(module).values()
                if isinstance(v, type) and v.__module__.startswith(package)
            ]
        replacements = {}
        for group, targets in SPAN_TARGETS.items():
            for module_name, path in targets:
                fn = self._resolve(f"{package}.{module_name}", path)
                if fn is not None:
                    replacements[id(fn)] = (fn, self._span_wrapper(group, path, fn))
        exact = sys.modules[f"{package}.scalars"].Exact
        for attr, category in EXACT_TARGETS.items():
            fn = exact.__dict__.get(attr)
            if fn is None:
                self.missing.append(f"scalars.Exact.{attr}")
                continue
            # __radd__ = __add__ etc.: each name gets its own category
            self._replace(exact, attr, fn, self._exact_wrapper(category, fn))
        seen = set()
        for ns in namespaces:
            if id(ns) in seen:
                continue
            seen.add(id(ns))
            for key, value in list(vars(ns).items()):
                raw = value.__func__ if isinstance(value, (classmethod, staticmethod)) else value
                hit = replacements.get(id(raw))
                if hit is None or hit[0] is not raw:
                    continue
                wrapper = hit[1]
                if isinstance(value, classmethod):
                    wrapper = classmethod(wrapper)
                elif isinstance(value, staticmethod):
                    wrapper = staticmethod(wrapper)
                self._replace(ns, key, value, wrapper)
                self.bindings += 1

    def _replace(self, ns, key: str, old, new) -> None:
        self._undo.append((ns, key, old))
        setattr(ns, key, new)

    def uninstall(self) -> None:
        for ns, key, old in reversed(self._undo):
            setattr(ns, key, old)
        self._undo = []

    def _resolve(self, module_name: str, path: str):
        obj = sys.modules.get(module_name)
        *owners, attr = path.split(".")
        for owner in owners:
            obj = getattr(obj, owner, None)
        raw = vars(obj).get(attr) if obj is not None else None
        if isinstance(raw, (classmethod, staticmethod)):
            raw = raw.__func__
        if raw is None:
            self.missing.append(f"{module_name}.{path}")
        return raw

    # -- results --------------------------------------------------------------------

    def layer_metrics(self, cycles: int, bytes_written: int) -> dict[str, float]:
        """Per-cycle counts and self times under their metric names."""
        c, s = self.calls, self.self_s

        def calls(*groups):
            return sum(c[g] for g in groups) / cycles

        def secs(*groups):
            return sum(s[g] for g in groups) / cycles

        sublinear = ("sublinear.maximal", "sublinear.square", "sublinear.bmo", "sublinear.czd")
        apply_calls = c["normlab.apply"]
        return {
            "scalars.exact_mul_calls": self.exact_calls["mul"] / cycles,
            "scalars.exact_addsub_calls": self.exact_calls["addsub"] / cycles,
            "scalars.exact_div_calls": self.exact_calls["div"] / cycles,
            "scalars.exact_test_calls": self.exact_calls["test"] / cycles,
            "scalars.exact_self_s": self.exact_self_s / cycles,
            "core.tables_calls": calls("core.tables"),
            "core.tables_self_s": secs("core.tables"),
            "core.transform_calls": calls("core.transform"),
            "core.transform_self_s": secs("core.transform"),
            "core.json_self_s": secs("core.json"),
            "core.pairing_calls": calls("core.pairing"),
            "core.pairing_self_s": secs("core.pairing"),
            "core.norm_calls": calls("core.norm"),
            "core.norm_self_s": secs("core.norm"),
            "core.stepfn_calls": calls("core.stepfn"),
            "core.stepfn_self_s": secs("core.stepfn"),
            "paraproducts.engine_calls": calls("paraproducts.engine"),
            "paraproducts.engine_self_s": secs("paraproducts.engine"),
            "paraproducts.residual_calls": calls("paraproducts.residual"),
            "paraproducts.residual_self_s": secs("paraproducts.residual"),
            "multipliers.symbol_table_calls": calls("multipliers.symbol_table"),
            "multipliers.symbol_table_self_s": secs("multipliers.symbol_table"),
            "multipliers.apply_calls": calls("multipliers.apply"),
            "multipliers.apply_self_s": secs("multipliers.apply"),
            "multipliers.symbol_tables_per_apply": (
                c["multipliers.symbol_table"] / apply_calls if apply_calls else 0.0
            ),
            "sublinear.calls": calls(*sublinear),
            "sublinear.maximal_self_s": secs("sublinear.maximal"),
            "sublinear.square_self_s": secs("sublinear.square"),
            "sublinear.bmo_self_s": secs("sublinear.bmo"),
            "sublinear.czd_self_s": secs("sublinear.czd"),
            "normlab.extremal_calls": calls("normlab.extremal"),
            "normlab.extremal_self_s": secs("normlab.extremal"),
            "normlab.apply_calls": calls("normlab.apply"),
            "normlab.apply_self_s": secs("normlab.apply"),
            "normlab.sample_calls": calls("normlab.sample"),
            "normlab.sample_self_s": secs("normlab.sample"),
            "normlab.outnorm_self_s": secs("normlab.outnorm"),
            "normlab.harness_self_s": secs("normlab.harness"),
            "normlab.jobs": self.jobs / cycles,
            "normlab.skipped_jobs": self.skipped_jobs / cycles,
            "normlab.useful_job_ratio": (
                (self.jobs - self.skipped_jobs) / self.jobs if self.jobs else 0.0
            ),
            "cli.self_s": secs("cli"),
            "cli.bytes_written": bytes_written / cycles,
        }
