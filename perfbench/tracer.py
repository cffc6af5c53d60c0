"""Per-function spans for the appellfield modules, recorded from outside.

The tracer replaces the public module-level functions of the traced modules,
and the private entry points other modules call (``OPTIONAL``), by timing
wrappers. It rebinds every module global that holds such a function, so
calls made through another module's ``from .x import f`` binding and calls
through a module's own globals are both caught. Private helpers stay
unwrapped: their time counts as self time of the public function of their
own module that called them, which keeps the tracing overhead low.
``restore()`` puts the original functions back.

A span's self time is its duration minus the time covered by its child spans.
Stats are kept per key ``<module>.<fn>`` (or ``<module>.<fn>.<band>`` where a
key function splits a function by argument band): calls, self seconds, and
calls that ended by raising.
"""

import importlib
import inspect
import time

MODULES = ("elliptic", "jacobi", "hypergeom", "geometry", "fields", "oracle",
           "verify", "cli")


def _band(value):
    return "lt085" if value < 0.85 else "ge085"


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _appell_f2_band(args, kwargs):
    # appell_f2(alpha, beta, beta2, gamma, gamma2, x, y, ctl=None)
    return _band(_arg(args, kwargs, 5, "x") + _arg(args, kwargs, 6, "y"))


def _i_hyg_pi_band(args, kwargs):
    # i_hyg_pi(m, A, ctl=None)
    return _band(_arg(args, kwargs, 0, "m") + _arg(args, kwargs, 1, "A") ** 2)


# functions whose stats are split by an argument band
BANDS = {
    "hypergeom.appell_f2": _appell_f2_band,
    "hypergeom.i_hyg_pi": _i_hyg_pi_band,
}

# private entry points that other modules call and that later refactors may
# delete; a missing one is reported as absent
OPTIONAL = ("hypergeom._i_hyg_surface_quad", "hypergeom._i_hyg_surface_f43")


class Stat:
    __slots__ = ("calls", "self_s", "fail")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.fail = 0


class Tracer:
    """Wraps the appellfield module functions; use as a context manager."""

    def __init__(self):
        self.stats = {}
        self.absent = []
        self.integrand_evals = 0
        self.tube_points = set()
        self._child = [0.0]  # time covered by child spans, one slot per open span
        self._quad_depth = 0
        self._saved = []  # (module, name, original)

    # -- installation -----------------------------------------------------

    def install(self):
        mods = {name: importlib.import_module(f"appellfield.{name}") for name in MODULES}
        originals = {}
        for mname, mod in mods.items():
            for name, obj in vars(mod).items():
                key = f"{mname}.{name}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not name.startswith("_") or key in OPTIONAL)):
                    originals[id(obj)] = (key, obj)
        for key in OPTIONAL:
            mname, name = key.split(".", 1)
            if not inspect.isfunction(getattr(mods[mname], name, None)):
                self.absent.append(key)
        wrappers = {oid: self._wrap(key, fn) for oid, (key, fn) in originals.items()}
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers and obj is originals[id(obj)][1]:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, wrappers[id(obj)])
        return self

    def restore(self):
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    # -- spans ------------------------------------------------------------

    def _stat(self, key):
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = Stat()
        return st

    def _wrap(self, key, fn):
        if key == "oracle.quad_1d":
            return self._counting_quad(self._span(key, fn))
        if key == "fields.phi_tube":
            points = self.tube_points
            return self._span(key, fn, lambda args: points.add(
                (float(args[0][0]), float(args[0][1]))))
        return self._span(key, fn)

    def _span(self, key, fn, pre=None):
        band = BANDS.get(key)
        child = self._child
        clock = time.perf_counter
        stat = self._stat
        fixed = None if band else stat(key)

        def wrapper(*args, **kwargs):
            st = fixed if fixed is not None else stat(f"{key}.{band(args, kwargs)}")
            if pre is not None:
                pre(args)
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                st.fail += 1
                raise
            finally:
                dt = clock() - t0
                st.calls += 1
                st.self_s += dt - child.pop()
                child[-1] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting_quad(self, span):
        # integrand evaluations are counted only at the quad_1d depth that
        # handed the integrand in, so quad_1d recursing on a transformed
        # integrand does not count the same node twice
        tracer = self

        def counted(f, depth):
            def g(x):
                if tracer._quad_depth == depth:
                    tracer.integrand_evals += getattr(x, "size", 1)
                return f(x)
            return g

        def wrapper(f, *args, **kwargs):
            tracer._quad_depth += 1
            try:
                return span(counted(f, tracer._quad_depth), *args, **kwargs)
            finally:
                tracer._quad_depth -= 1

        wrapper.__wrapped__ = span.__wrapped__
        return wrapper

    # -- results ----------------------------------------------------------

    def stat(self, key):
        """Stats of one function, summed over its argument bands."""
        if key in self.stats:
            return self.stats[key]
        tot = Stat()
        for k, st in self.stats.items():
            if k.startswith(key + "."):
                tot.calls += st.calls
                tot.self_s += st.self_s
                tot.fail += st.fail
        return tot

    def module_totals(self):
        tot = {m: Stat() for m in MODULES}
        for key, st in self.stats.items():
            t = tot[key.split(".", 1)[0]]
            t.calls += st.calls
            t.self_s += st.self_s
            t.fail += st.fail
        return tot
