"""Per-layer spans and counters, recorded from outside the program.

``Tracer.install`` wraps every public function defined in each layer
module of lpverify and rebinds the wrapper under every name that binds the
original in any ``lpverify`` module namespace, so calls made through
``from .spectral import transform_forward`` are seen as well as calls made
through ``spectral.transform_forward``.  Each call records a span (layer,
name, start, end, parent span, operation id); spans stay in memory until
``metrics`` reduces them.  A span's self time is its duration minus the
time its child spans cover and minus the time the tracer's own hooks spent
while it was open.

Besides spans, hooks count the work each layer does: transformed points,
padded products, painted and nonzero coefficients, ledger evaluations by
(field, level), multiplier builds by (grid, kind, level), Picard iterations
and bytes written.  FFTs that ``products.samples_on`` calls directly in
SciPy count toward ``products.self_s``.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import os
import sys
import time
from pathlib import Path

LAYERS = (
    "cli",
    "suites",
    "ledger",
    "paraproduct",
    "forge",
    "products",
    "norms",
    "dyadic",
    "spectral",
    "snapshot",
)

#: public functions that evaluate a ledger, or one per level of the range
LEDGER_EVALS = (
    "ledger_classical",
    "ledger_fractional_low",
    "ledger_fractional_high",
    "support_audit",
    "remainder_decay",
)
PAINTERS = ("generate", "scalar_band", "harmonic", "taylor_green")

# span fields
_LAYER, _NAME, _START, _END, _PARENT, _OP, _RAISED, _HOOK = range(8)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _field_digest(u) -> str:
    """Content hash of a vector field, so equal fields share one key."""
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((u.grid.n, u.grid.box_length)).encode())
    for c in u.components:
        h.update(c.coeffs.tobytes())
    return h.hexdigest()


def _coefficients(out) -> list:
    return [c.coeffs for c in out.components] if hasattr(out, "components") else [out.coeffs]


def _declare() -> dict[str, tuple[str, str]]:
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = ("count", "lower")
        out[f"{layer}.self_s"] = ("s", "lower")
        out[f"{layer}.errors"] = ("count", "lower")
    out.update({
        "forge.support_ratio": ("ratio", "higher"),
        "forge.picard_iters": ("count", "lower"),
        "forge.advective_per_iter": ("ratio", "lower"),
        "ledger.evals": ("count", "lower"),
        "ledger.unique_ratio": ("ratio", "higher"),
        "dyadic.filter_calls": ("count", "lower"),
        "dyadic.first_use_ratio": ("ratio", "higher"),
        "spectral.points": ("count", "lower"),
        "products.padded_ratio": ("ratio", "lower"),
        "snapshot.mib": ("MiB", "lower"),
        "suites.report_mib": ("MiB", "lower"),
        # traced wall / untraced wall - 1, filled in by run.py
        "trace.overhead_ratio": ("ratio", "lower"),
    })
    return out


#: every per-layer metric, name -> (unit, better), in report order
METRICS = _declare()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.points = 0
        self.samples_on = 0
        self.padded = 0
        self.painted = 0
        self.nonzero = 0
        self.picard_iters = 0
        self.ledger_keys: list[tuple] = []
        self.filter_calls = 0
        self.filter_keys: set[tuple] = set()
        self.io_bytes = {"snapshot": 0, "suites": 0}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        hooks = {
            ("spectral", "transform_forward"): self._on_forward,
            ("spectral", "transform_inverse"): self._on_inverse,
            ("products", "samples_on"): self._on_samples_on,
            ("forge", "picard_solve"): self._on_picard,
            ("snapshot", "snapshot_write"): self._on_snapshot_write,
            ("snapshot", "snapshot_read"): self._on_snapshot_read,
            ("suites", "write_report"): self._on_write_report,
        }
        hooks.update({("forge", name): self._on_paint for name in PAINTERS})
        hooks.update({("ledger", name): self._on_ledger for name in LEDGER_EVALS})
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"lpverify.{layer}")
            for name, fn in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrappers[id(fn)] = (fn, self._wrap(layer, name, fn, hooks.get((layer, name))))
        # multiplier builds are private to dyadic; they are counted, not spanned
        dyadic = importlib.import_module("lpverify.dyadic")
        probe = getattr(dyadic, "_multiplier", None)
        if probe is not None:
            wrappers[id(probe)] = (probe, self._count_filters(probe))
        for modname, mod in list(sys.modules.items()):
            if modname != "lpverify" and not modname.startswith("lpverify."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def _wrap(self, layer: str, name: str, fn, hook):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [layer, name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.op_id, False, 0.0]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[_RAISED] = True
                raise
            finally:
                span[_END] = time.perf_counter()
                stack.pop()
            if hook is not None:
                t0 = time.perf_counter()
                hook(idx, args, kwargs, out)
                if span[_PARENT] >= 0:
                    spans[span[_PARENT]][_HOOK] += time.perf_counter() - t0
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def _count_filters(self, fn):
        def counted(*args, **kwargs):
            grid = _arg(args, kwargs, 0, "grid")
            key = (grid.n, grid.box_length, *(_arg(args, kwargs, i, name)
                                              for i, name in ((1, "kind"), (2, "k"), (3, "profile"))))
            self.filter_calls += 1
            self.filter_keys.add(key)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _ancestor(self, idx: int, layer: str, names) -> bool:
        p = self.spans[idx][_PARENT]
        while p >= 0:
            if self.spans[p][_LAYER] == layer and self.spans[p][_NAME] in names:
                return True
            p = self.spans[p][_PARENT]
        return False

    # -- hooks --------------------------------------------------------------

    def _on_forward(self, idx, args, kwargs, out):
        self.points += _arg(args, kwargs, 0, "grid").n ** 3

    def _on_inverse(self, idx, args, kwargs, out):
        self.points += _arg(args, kwargs, 0, "u").grid.n ** 3

    def _on_samples_on(self, idx, args, kwargs, out):
        self.samples_on += 1
        self.padded += _arg(args, kwargs, 1, "dst").n > _arg(args, kwargs, 0, "u").grid.n

    def _on_paint(self, idx, args, kwargs, out):
        parent = self.spans[idx][_PARENT]
        if parent >= 0 and self.spans[parent][_LAYER] == "forge":
            return
        for c in _coefficients(out):
            self.painted += c.size
            self.nonzero += int((c != 0).sum())

    def _on_picard(self, idx, args, kwargs, out):
        self.picard_iters += out.iterations

    def _on_ledger(self, idx, args, kwargs, out):
        if self._ancestor(idx, "ledger", LEDGER_EVALS):
            return
        u = _arg(args, kwargs, 0, "u")
        digest = _field_digest(u)
        if self.spans[idx][_NAME] == "remainder_decay":
            levels = sorted(_arg(args, kwargs, 2, "k_range"))
        else:
            levels = [_arg(args, kwargs, 1, "k")]
        self.ledger_keys.extend((digest, k) for k in levels)

    def _on_snapshot_write(self, idx, args, kwargs, out):
        self.io_bytes["snapshot"] += os.path.getsize(_arg(args, kwargs, 1, "path"))

    def _on_snapshot_read(self, idx, args, kwargs, out):
        self.io_bytes["snapshot"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    def _on_write_report(self, idx, args, kwargs, out):
        out_dir = Path(_arg(args, kwargs, 1, "out_dir"))
        self.io_bytes["suites"] += sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())

    # -- reduction ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        spans = self.spans
        covered = [0.0] * len(spans)
        for sp in spans:
            if sp[_PARENT] >= 0:
                covered[sp[_PARENT]] += sp[_END] - sp[_START]
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        errors = dict.fromkeys(LAYERS, 0)
        advective_in_picard = 0
        for i, sp in enumerate(spans):
            layer = sp[_LAYER]
            calls[layer] += 1
            self_s[layer] += sp[_END] - sp[_START] - covered[i] - sp[_HOOK]
            errors[layer] += sp[_RAISED]
            if sp[_NAME] == "advective_term" and self._ancestor(i, "forge", ("picard_solve",)):
                advective_in_picard += 1
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.errors"] = errors[layer]

        def ratio(a, b) -> float:
            return a / b if b else 0.0

        out["forge.support_ratio"] = ratio(self.nonzero, self.painted)
        out["forge.picard_iters"] = self.picard_iters
        out["forge.advective_per_iter"] = ratio(advective_in_picard, self.picard_iters)
        out["ledger.evals"] = len(self.ledger_keys)
        out["ledger.unique_ratio"] = ratio(len(set(self.ledger_keys)), len(self.ledger_keys))
        out["dyadic.filter_calls"] = self.filter_calls
        out["dyadic.first_use_ratio"] = ratio(len(self.filter_keys), self.filter_calls)
        out["spectral.points"] = self.points
        out["products.padded_ratio"] = ratio(self.padded, self.samples_on)
        out["snapshot.mib"] = self.io_bytes["snapshot"] / 2**20
        out["suites.report_mib"] = self.io_bytes["suites"] / 2**20
        return out
