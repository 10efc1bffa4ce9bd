"""Spans around the public entry points of each ``superelliptic`` module.

The tracer patches functions and methods from outside the package: each
wrapped callable records a span (name, start, end, parent, request id) or,
for the hot L0 domain methods and ``UniPoly.__mul__``, only adds its call
count and self time to a per-request aggregate.  Per-call spans of those
would not fit in memory: a single ``tower_orbits`` pass makes millions of
``Rationals`` calls.

Self time is a span's duration minus the time its child spans cover.  The
work a probe does after the wrapped call returns (measuring coefficient
bit lengths) is excluded from the parent's self time as well.

A function imported by name into another module (``mp_gcd``,
``poly_gcd``, ``mobius_transport``, ...) is replaced in every module of
the package that holds it, so that calls through any namespace are seen.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

PKG = "superelliptic"

# Domain classes whose public methods are aggregated (not spanned).
DOMAIN_LAYERS = {
    "Rationals": "rings.qq",
    "PrimeField": "rings.fp",
    "QuotientRing": "rings.qr",
    "FunctionField": "rings.ff",
}

# Domain methods whose result is a new element; its coefficients are
# measured for the peak bit length.
ARITH = {"add", "sub", "neg", "mul", "inv", "div", "exact_div", "pow", "scale",
         "from_coeffs", "from_poly"}


def leaf_bits(raw) -> int:
    """Largest numerator/denominator bit length among the rational or
    integer leaves of a raw domain element."""
    if isinstance(raw, int):
        return raw.bit_length()
    if isinstance(raw, tuple):
        return max((leaf_bits(x) for x in raw), default=0)
    if isinstance(raw, dict):
        return max((leaf_bits(x) for x in raw.values()), default=0)
    num = getattr(raw, "numerator", None)
    if num is not None:
        return max(int(num).bit_length(), int(raw.denominator).bit_length())
    return 0


def fixture_builders(catalog) -> list:
    """The cached fixture builders of the catalog (``functools.cache``)."""
    return [fn for attr, fn in vars(catalog).items()
            if attr.endswith("_fixture") and hasattr(fn, "cache_info")]


class Tracer:
    def __init__(self):
        self.request = None
        self.stack: list[list] = []  # [child_time, span_id or None]
        self.spans: list[tuple] = []  # (id, name, start, end, parent, request)
        self.agg: dict = defaultdict(lambda: [0, 0.0])  # (request, name) -> [calls, self_s]
        self.counters: dict = defaultdict(int)
        self.peaks: dict = defaultdict(int)
        self.active = False
        self._patches: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _parent_span(self):
        for frame in reversed(self.stack):
            if frame[1] is not None:
                return frame[1]
        return None

    def wrap(self, fn, name: str, hot: bool, probe=None):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            span_id = None
            parent = None
            if not hot:
                parent = tracer._parent_span()
                span_id = len(tracer.spans)
                tracer.spans.append(None)  # reserve the id in call order
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                entry = tracer.agg[(tracer.request, name)]
                entry[0] += 1
                entry[1] += (t1 - t0) - frame[0]
                if span_id is not None:
                    tracer.spans[span_id] = (span_id, name, t0, t1, parent, tracer.request)
            if probe is not None:
                probe(tracer, args, out)
            if stack:
                stack[-1][0] += clock() - t0
            return out

        return traced

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def _patch_function(self, fn, name: str, hot: bool = False, probe=None) -> None:
        """Replace ``fn`` in every package module that holds it by name."""
        wrapped = self.wrap(fn, name, hot, probe)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PKG or mod_name.startswith(PKG + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapped)

    def _patch_methods(self, cls, name: str, hot: bool, probe_for=None, only=None) -> None:
        for attr in dir(cls):
            if attr.startswith("_") and attr not in (only or ()):
                continue
            if only is not None and attr not in only:
                continue
            raw = inspect.getattr_static(cls, attr)
            if not inspect.isfunction(raw):
                continue  # properties, static/class methods, plain values
            probe = probe_for(attr) if probe_for else None
            self._set(cls, attr, self.wrap(raw, name, hot, probe))

    def install(self) -> None:
        # by module path: the package attribute ``invariants`` is the function
        (catalog, cli, covers, groups, invariants, moduli, parser, rings, unipoly) = (
            importlib.import_module(f"{PKG}.{name}") for name in
            ("catalog", "cli", "covers", "groups", "invariants", "moduli", "parser", "rings", "unipoly"))

        def bits_probe(layer):
            def probe(tracer, args, out):
                b = leaf_bits(out)
                if b > tracer.peaks[layer]:
                    tracer.peaks[layer] = b
            return probe

        def qr_probe(attr):
            if attr == "inv":
                def probe(tracer, args, out):
                    tracer.counters[(tracer.request, "rings.qr.inv_calls")] += 1
                    bits_probe("rings.qr")(tracer, args, out)
                return probe
            return bits_probe("rings.qr") if attr in ARITH else None

        def ff_probe(attr):
            return bits_probe("rings.ff") if attr in ARITH else None

        probes = {"QuotientRing": qr_probe, "FunctionField": ff_probe}
        for cls_name, layer in DOMAIN_LAYERS.items():
            self._patch_methods(getattr(rings, cls_name), layer, True, probes.get(cls_name))

        def gcd_probe(tracer, args, out):
            if any(any(e) for e in out):
                tracer.counters[(tracer.request, "rings.mp_gcd.nontrivial")] += 1

        self._patch_function(rings.mp_gcd, "rings.mp_gcd", hot=True, probe=gcd_probe)

        self._patch_methods(unipoly.UniPoly, "unipoly.mul", True, only=("__mul__",))
        self._patch_function(unipoly.mobius_transport, "unipoly.mobius_transport")
        self._patch_function(unipoly.poly_gcd, "unipoly.poly_gcd")
        self._patch_function(unipoly.resultant, "unipoly.resultant")
        self._patch_function(unipoly.discriminant, "unipoly.resultant")

        for mod, layer in ((covers, "covers"), (invariants, "invariants"), (moduli, "moduli")):
            self._patch_module(mod, layer)

        for fn_name in ("group_elements", "orbit_decomposition", "is_invariant", "classify"):
            self._patch_function(getattr(groups, fn_name), f"groups.{fn_name}")

        for fn in fixture_builders(catalog):
            self._patch_function(fn, "catalog.build")

        for fn_name in ("parse_expression", "parse_constant", "build_domain", "domain_with_sugar"):
            self._patch_function(getattr(parser, fn_name), "parser")
        self._patch_function(cli.run, "cli.run")
        self.active = True

    def _patch_module(self, mod, layer: str) -> None:
        """Public functions defined in ``mod`` and public methods of its classes."""
        for attr, value in list(vars(mod).items()):
            if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(value):
                self._patch_function(value, layer)
            elif inspect.isclass(value) and not issubclass(value, BaseException):
                self._patch_methods(value, layer, False)

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, old in reversed(self._patches):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._patches.clear()

    # -- reporting -------------------------------------------------------

    def totals(self) -> dict:
        out: dict = defaultdict(lambda: [0, 0.0])
        for (_, name), (calls, self_s) in self.agg.items():
            out[name][0] += calls
            out[name][1] += self_s
        return out

    def counter(self, name: str) -> int:
        return sum(v for (_, n), v in self.counters.items() if n == name)

    def dump(self, path) -> None:
        """Write spans and per-request aggregates as one JSON document."""
        doc = {
            "span_fields": ["id", "name", "start", "end", "parent", "request"],
            "spans": [s for s in self.spans if s is not None],
            "aggregates": [
                {"request": req, "name": name, "calls": c, "self_s": s}
                for (req, name), (c, s) in self.agg.items()
            ],
            "counters": [
                {"request": req, "name": name, "value": v}
                for (req, name), v in self.counters.items()
            ],
            "peak_coeff_bits": dict(self.peaks),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class _Missing:
    pass


_MISSING = _Missing()
