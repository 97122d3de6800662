"""Span tracer installed from outside the program.

``Tracer.install()`` wraps every public function of the traced openqdyn
modules, plus ``BathModel.correlation_table``, and rebinds each wrapper under
every name that holds the original in any ``openqdyn.*`` namespace (modules
bind some functions by name at import, e.g. ``nonmarkov`` binds ``expm``).
The CLI's lazy ``from .x import f`` reads the module attribute at call time,
so it picks the wrapper up too.

Per function it records calls, self time (span minus child spans) and the
exceptions that propagated out of it.  ``span(name)`` opens a root span
around benchmark-side work (one per job), so a job's self times sum to its
traced wall time.
"""
import contextlib
import functools
import inspect
import sys
import time

TRACED_MODULES = ("weakcoupling", "gksl", "liouville", "maps", "spectra", "nonmarkov")


class Stat:
    __slots__ = ("calls", "self_s", "fails", "max_side", "intervals", "singular")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.fails = 0
        self.max_side = 0
        self.intervals = 0
        self.singular = 0


def _observe_expm(stat, args, result):
    stat.max_side = max(stat.max_side, int(result.shape[0]))


def _observe_witness(stat, args, result):
    stat.intervals += len(result.intervals)
    stat.singular += sum(1 for iv in result.intervals if iv.singular)


OBSERVERS = {"liouville.expm": _observe_expm,
             "maps.divisibility_witness": _observe_witness}


class Tracer:
    def __init__(self):
        self.stats = {}
        self._children = []     # child-span time of each open span

    def stat(self, name):
        if name not in self.stats:
            self.stats[name] = Stat()
        return self.stats[name]

    def reset(self):
        self.stats = {}

    def _enter(self):
        self._children.append(0.0)
        return time.perf_counter()

    def _exit(self, stat, t0):
        span = time.perf_counter() - t0
        stat.calls += 1
        stat.self_s += span - self._children.pop()
        if self._children:
            self._children[-1] += span

    @contextlib.contextmanager
    def span(self, name):
        """Root span around benchmark-side work."""
        stat = self.stat(name)
        t0 = self._enter()
        try:
            yield
        except BaseException:
            stat.fails += 1
            raise
        finally:
            self._exit(stat, t0)

    def wrap(self, name, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat = self.stat(name)
            t0 = self._enter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.fails += 1
                raise
            finally:
                self._exit(stat, t0)
            if observe is not None:
                observe(stat, args, result)
            return result

        return wrapper

    def install(self):
        """Wrap the traced functions and rebind every name that holds one."""
        import openqdyn
        import openqdyn.cli
        from openqdyn.weakcoupling import BathModel

        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "openqdyn" or n.startswith("openqdyn.")]
        targets = []
        for short in TRACED_MODULES:
            mod = getattr(openqdyn, short)
            for attr, obj in sorted(vars(mod).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    targets.append((f"{short}.{attr}", obj))
        targets.append(("cli.read_map_family_csv", openqdyn.cli.read_map_family_csv))
        for name, fn in targets:
            wrapper = self.wrap(name, fn)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, key, wrapper)
        BathModel.correlation_table = self.wrap("weakcoupling.BathModel.correlation_table",
                                                BathModel.correlation_table)

    def metrics(self):
        """Flat ``<layer>.<stat>`` dict of everything recorded."""
        out = {}
        for name, s in self.stats.items():
            out[f"{name}.calls"] = s.calls
            out[f"{name}.self_s"] = s.self_s
            out[f"{name}.fails"] = s.fails
            if name in OBSERVERS:
                out[f"{name}.max_side"] = s.max_side
                if s.intervals:
                    out[f"{name}.singular_ratio"] = s.singular / s.intervals
        return out
