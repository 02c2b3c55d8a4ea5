"""In-memory span tracing of the ``uncross`` layers, installed from outside.

``Tracer.install()`` wraps every public function of the layer modules, the
``AuctionBook.apply`` and ``PriceGrid.index_of`` methods and the callbacks of
the CLI commands, and rebinds each ``uncross.*`` module attribute that points
at a wrapped function, so calls made from inside the package are traced too.
``Tracer.uninstall()`` puts the original objects back.  Nothing in ``src/``
knows about any of this.

A span records its name, start, end, parent and trace id (one per pass, or
per day in the batch workload).  Functions called once per event or per price
lookup (``HOT``) are folded into one span per parent: it keeps the first start,
the last end, the call count and the summed busy time.  Every span has
``busy`` (time inside the call) and ``count``; for a plain span ``busy`` is
``end - start``.  Self time is ``busy`` minus the busy time of the children,
and since single-threaded calls never overlap that is exactly the part of the
span not covered by a child.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

LAYERS = (
    "events", "book", "grid", "clearing", "impact", "density",
    "regime", "response", "stats", "flowgen",
)
METHODS = (("book", "AuctionBook", "apply"), ("grid", "PriceGrid", "index_of"))
# called per event or per price lookup: one folded span per parent
HOT = frozenset({
    "events.read_events", "events.format_event", "events.format_price",
    "book.AuctionBook.apply", "grid.PriceGrid.index_of",
    "clearing.uncross_values", "response.classify_marketable",
})
MARK = "__perfbench_original__"


class Span:
    __slots__ = ("id", "name", "parent", "trace", "start", "end", "count", "busy",
                 "folded", "child_busy")

    def __init__(self, sid, name, parent, trace):
        self.id = sid
        self.name = name
        self.parent = parent
        self.trace = trace
        self.start = None
        self.end = None
        self.count = 0
        self.busy = 0.0
        self.folded = {}  # name -> folded child span
        self.child_busy = 0.0

    @property
    def self_s(self) -> float:
        return self.busy - self.child_busy

    def record(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "trace": self.trace, "start": self.start, "end": self.end,
                "count": self.count, "busy": self.busy, "self": self.self_s}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._stack: list[Span] = []
        self._rebinds: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------------- spans

    def _enter(self, name: str, trace: str | None = None) -> Span:
        parent = self._stack[-1] if self._stack else None
        if parent is not None and name in HOT:
            span = parent.folded.get(name)
            if span is None:
                span = self._new(name, parent, trace)
                parent.folded[name] = span
        else:
            span = self._new(name, parent, trace)
        self._stack.append(span)
        return span

    def _new(self, name, parent, trace) -> Span:
        if trace is None:
            trace = parent.trace if parent is not None else ""
        span = Span(len(self.spans), name, None if parent is None else parent.id, trace)
        self.spans.append(span)
        return span

    def _exit(self, span: Span, t0: float) -> None:
        t1 = perf_counter()
        dt = t1 - t0
        if span.start is None:
            span.start = t0
        span.end = t1
        span.count += 1
        span.busy += dt
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_busy += dt

    @contextlib.contextmanager
    def span(self, name: str, trace: str | None = None):
        """Open a plain span (a pass, a day, a set-up) around a block."""
        span = self._enter(name, trace)
        t0 = perf_counter()
        try:
            yield span
        finally:
            self._exit(span, t0)

    def call(self, name: str, fn, /, *args, **kwargs):
        span = self._enter(name)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            self.counters[f"{name}:raised:{type(exc).__name__}"] += 1
            raise
        finally:
            self._exit(span, t0)

    # ------------------------------------------------------------- wrapping

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self._traced_iter(name, fn(*args, **kwargs))
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                out = self.call(name, fn, *args, **kwargs)
                if hook is not None:
                    hook(self.counters, args, out)
                return out
        setattr(wrapper, MARK, fn)
        return wrapper

    def _traced_iter(self, name: str, gen):
        while True:
            span = self._enter(name)
            t0 = perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                self._exit(span, t0)
                return
            except BaseException:
                self._exit(span, t0)
                raise
            self._exit(span, t0)
            self.counters[f"{name}:items"] += 1
            yield item

    def _rebind(self, owner, attr: str, value) -> None:
        self._rebinds.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced target and rebind all references to it."""
        if self._rebinds:
            raise RuntimeError("tracer already installed")
        import uncross.cli as cli

        wrapped: dict[int, object] = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = sys.modules[f"uncross.{layer}"]
            for attr, fn in public_functions(mod):
                wrapped[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for mod_name in [m for m in sys.modules if m == "uncross" or m.startswith("uncross.")]:
            mod = sys.modules[mod_name]
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped and inspect.isfunction(value):
                    self._rebind(mod, attr, wrapped[id(value)])
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"uncross.{layer}"], cls_name)
            self._rebind(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", vars(cls)[meth]))
        for cmd_name, cmd in cli.main.commands.items():
            self._rebind(cmd, "callback", self._wrap(f"cli.{cmd_name}", cmd.callback))

    def uninstall(self) -> None:
        while self._rebinds:
            owner, attr, value = self._rebinds.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.record()) + "\n")


def public_functions(mod):
    """(name, function) for each public function a module defines itself."""
    return [
        (attr, fn) for attr, fn in vars(mod).items()
        if inspect.isfunction(fn) and not attr.startswith("_")
        and fn.__module__ == mod.__name__
    ]


def untraced_violations() -> list[str]:
    """Names of traced targets that are not the original objects (should be empty)."""
    import uncross.cli as cli

    bad = []
    for mod_name in [m for m in sys.modules if m == "uncross" or m.startswith("uncross.")]:
        mod = sys.modules[mod_name]
        for attr, value in vars(mod).items():
            if not inspect.isfunction(value):
                continue
            if hasattr(value, MARK):
                bad.append(f"{mod_name}.{attr}")
                continue
            home = sys.modules.get(value.__module__)
            if value.__module__.startswith("uncross") and getattr(home, value.__name__, None) is not value:
                bad.append(f"{mod_name}.{attr}")
    for layer, cls_name, meth in METHODS:
        if hasattr(vars(getattr(sys.modules[f"uncross.{layer}"], cls_name))[meth], MARK):
            bad.append(f"{layer}.{cls_name}.{meth}")
    bad += [f"cli.{n}" for n, c in cli.main.commands.items() if hasattr(c.callback, MARK)]
    return bad


# -------------------------------------------------------------------- hooks
# Counters taken at the layer boundary from a call's arguments and result.


def _apply_hook(counters, args, out):
    counters[f"book.{args[1].action.lower()}"] += 1


def _clear_hook(counters, args, out):
    book = args[0]
    live, ticks = len(book.orders), len(book.buy_volume.keys() | book.sell_volume.keys())
    counters["clearing.orders_scanned"] += live
    counters["clearing.fills"] += len(out.fills)
    counters["book.live_orders"] = max(counters["book.live_orders"], live)
    counters["book.ticks"] = max(counters["book.ticks"], ticks)


def _series_hook(counters, args, out):
    counters["clearing.snapshots"] += len(out[1])


def _collect_hook(counters, args, out):
    counters["response.recorded"] += len(out[0])
    counters["response.skipped_no_cross"] += out[1]


def _curve_hook(counters, args, out):
    counters["impact.breakpoints"] += len(out.breakpoints)


def _changepoint_hook(counters, args, out):
    counters["regime.changepoint_points"] += out.n_points


def _profile_hook(counters, args, out):
    counters["density.orders_binned"] += sum(
        1 for r in args[0].orders.values() if r.is_resting and not r.is_market
    )


def _generate_hook(counters, args, out):
    counters["flowgen.events"] += len(out[0])


HOOKS = {
    "flowgen.generate": _generate_hook,
    "book.AuctionBook.apply": _apply_hook,
    "clearing.clear": _clear_hook,
    "clearing.indicative_series": _series_hook,
    "response.collect_marketable": _collect_hook,
    "impact.impact_curve": _curve_hook,
    "regime.changepoint": _changepoint_hook,
    "density.day_profile": _profile_hook,
}
