"""Per-layer tracing of superweil from outside the package.

Tracer.installed() replaces the public functions of each superweil module by
wrappers that time the call and count work, and restores them on exit.  A
function can be bound under several names (`from .matrix import inv_even` in
flag and suites, `from .rational import rat_det` in flag, and
`_kernel_py.mul_into`, which `mul_terms` calls through its own globals), so
every global of every loaded superweil module that refers to a traced
function is replaced, and unwrapped() lists any binding left over.

Spans are aggregated per name as they close: calls, self time (the span's
time minus the time its child spans cover), exceptions by type, and the
counts some metrics need.  Kernel calls are leaves; their time is charged to
the enclosing span as child time and their pairs to the nearest enclosing
matrix span.  The time spent counting pairs is charged to nobody.
"""

import contextlib
import sys
import time
from collections import Counter

from superweil import _backend, _kernel_py, algebra, cli, flag, groups, matrix
from superweil import rational, sampling, serialize, suites


class Stat:
    __slots__ = ("calls", "self_s", "raised", "series", "pairs", "useful",
                 "kernel_pairs", "nbytes")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.raised = Counter()
        self.series = 0
        self.pairs = 0
        self.useful = 0
        self.kernel_pairs = 0
        self.nbytes = 0


MATRIX_OPS = ("matmul", "det_even", "inv_even", "smat_inv", "berezinian",
              "exp_nilpotent")
GROUP_OPS = ("group_contains", "lie_algebra_contains", "random_group_element")
FLAG_OPS = ("flag_pi", "poincare_act", "poincare_decompose", "twistor_residual",
            "equivariance_residual", "jacobian_at_identity")
LINEAR_OPS = ("add_terms", "sub_terms", "neg_terms", "scale_terms")
RATIONAL_OPS = ("rat_det", "rat_rank", "rat_inv", "rat_matmul", "rat_transpose")
SAMPLERS = ("coeff", "soul_element", "even_invertible", "mixed_element",
            "graded_matrix", "graded_soul_matrix", "unimodular", "invertible_body",
            "orthogonal_body", "symplectic_body", "embed_body", "random_morphism",
            "random_column", "random_point", "random_poincare", "random_group_matrix",
            "random_big_cell_matrix", "random_stabilizer_matrix")
PARSERS = ("element_from_obj", "matrix_from_obj", "point_from_obj", "poincare_from_obj")
EMITTERS = ("element_to_obj", "matrix_to_obj", "point_to_obj", "poincare_to_obj",
            "jacobian_to_obj")
RANDOM_SUITES = ("algebra", "matrix", "groups", "flag")
COMPUTE_WHATS = ("ber", "pi", "act", "jacobian")


def _catalogue():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [
        ("kernel.mul_into.calls", "count", "lower"),
        ("kernel.mul_into.pairs", "count", "lower"),
        ("kernel.mul_into.useful_ratio", "ratio", "higher"),
        ("kernel.mul_into.self_s", "s", "lower"),
        ("kernel.linear.calls", "count", "lower"),
        ("kernel.linear.self_s", "s", "lower"),
        ("algebra.mul.calls", "count", "lower"),
        ("algebra.mul.self_s", "s", "lower"),
        ("algebra.inv.calls", "count", "lower"),
        ("algebra.inv.series_len", "mul/call", "lower"),
        ("algebra.inv.self_s", "s", "lower"),
        ("algebra.morphism.calls", "count", "lower"),
        ("algebra.morphism.self_s", "s", "lower"),
        ("rational.calls", "count", "lower"),
        ("rational.self_s", "s", "lower"),
    ]
    for op in MATRIX_OPS:
        out += [(f"matrix.{op}.calls", "count", "lower"),
                (f"matrix.{op}.self_s", "s", "lower")]
    out += [(f"matrix.{op}.kernel_pairs", "count", "lower")
            for op in ("matmul", "det_even", "inv_even")]
    out.append(("matrix.exp_nilpotent.series_len", "matmul/call", "lower"))
    for op in GROUP_OPS:
        out += [(f"groups.{op}.calls", "count", "lower"),
                (f"groups.{op}.self_s", "s", "lower")]
    for op in FLAG_OPS:
        out += [(f"flag.{op}.calls", "count", "lower"),
                (f"flag.{op}.self_s", "s", "lower")]
    out.append(("flag.flag_pi.in_cell_ratio", "ratio", "higher"))
    out += [("sampling.calls", "count", "lower"), ("sampling.self_s", "s", "lower")]
    out += [(f"suites.{s}.self_s", "s", "lower") for s in suites.SUITE_NAMES]
    out.append(("suites.resample_ratio", "ratio", "lower"))
    for side in ("parse", "emit"):
        out += [(f"serialize.{side}.calls", "count", "lower"),
                (f"serialize.{side}.self_s", "s", "lower"),
                (f"serialize.{side}.bytes", "B", "lower")]
    out += [(f"cli.compute.{w}.self_s", "s", "lower") for w in COMPUTE_WHATS]
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    return out


CATALOGUE = _catalogue()
# metrics that are exact work counts, compared across two traced runs
COUNTS = tuple(n for n, unit, _ in CATALOGUE
               if not n.endswith(".self_s") and n != "trace.overhead_ratio")


class Tracer:
    def __init__(self):
        self.stats = {}
        self._stack = [[0.0, 0, 0]]   # per open span: child seconds, series, kernel pairs
        self._matrix = []              # open matrix spans, innermost last

    def stat(self, name) -> Stat:
        s = self.stats.get(name)
        if s is None:
            s = self.stats[name] = Stat()
        return s

    # wrappers

    def span(self, name, fn, series_child=False, matrix_span=False, size=None):
        """Wrap fn as a span; size(args, result) adds to the span's bytes."""
        stat = self.stat(name)
        stack, mstack, clock = self._stack, self._matrix, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0, 0, 0]
            stack.append(frame)
            if matrix_span:
                mstack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                stat.raised[type(exc).__name__] += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                if matrix_span:
                    mstack.pop()
                    stat.kernel_pairs += frame[2]
                parent = stack[-1]
                parent[0] += dt
                if series_child:
                    parent[1] += 1
                stat.calls += 1
                stat.self_s += dt - frame[0]
                stat.series += frame[1]
            if size is not None:
                stat.nbytes += size(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf(self, name, fn):
        """Wrap a kernel function that calls no traced function."""
        stat = self.stat(name)
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args):
            t0 = clock()
            result = fn(*args)
            dt = clock() - t0
            stack[-1][0] += dt
            stat.calls += 1
            stat.self_s += dt
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def product(self, fn, accumulates):
        """Wrap mul_into(acc, a, b) or mul_terms(a, b), counting pairs."""
        stat = self.stat("kernel.mul_into")
        stack, mstack, clock = self._stack, self._matrix, time.perf_counter

        def wrapper(*args):
            t_in = clock()
            a, b = (args[1], args[2]) if accumulates else args
            pairs = len(a) * len(b)
            useful = sum([1 for ka in a for kb in b if not ka & kb])
            t0 = clock()
            result = fn(*args)
            t1 = clock()
            stack[-1][0] += t1 - t_in
            if mstack:
                mstack[-1][2] += pairs
            stat.calls += 1
            stat.self_s += t1 - t0
            stat.pairs += pairs
            stat.useful += useful
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _cli_main(self, fn):
        spans = {w: self.span(f"cli.compute.{w}", fn) for w in COMPUTE_WHATS}

        def main(argv=None):
            if argv and argv[0] == "compute" and len(argv) > 1 and argv[1] in spans:
                return spans[argv[1]](argv)
            return fn(argv)

        main.__wrapped__ = fn
        return main

    def _wrappers(self):
        """{original function: wrapper} for every traced module-level function."""
        w = {}
        mul_into = _backend.mul_into
        w[mul_into] = self.product(mul_into, accumulates=True)
        if _backend.kernel is not _kernel_py:
            # a compiled mul_terms does not call back into a Python mul_into
            w[_backend.mul_terms] = self.product(_backend.mul_terms, accumulates=False)
            w[_kernel_py.mul_into] = self.product(_kernel_py.mul_into, accumulates=True)
        for op in LINEAR_OPS:
            w[getattr(_backend, op)] = self.leaf("kernel.linear", getattr(_backend, op))
        for op in RATIONAL_OPS:
            w[getattr(rational, op)] = self.span("rational", getattr(rational, op))
        for op in MATRIX_OPS[1:]:  # matmul is a method, see _methods
            w[getattr(matrix, op)] = self.span(f"matrix.{op}", getattr(matrix, op),
                                               matrix_span=True)
        for module, ops in ((groups, GROUP_OPS), (flag, FLAG_OPS)):
            prefix = module.__name__.rsplit(".", 1)[1]
            for op in ops:
                w[getattr(module, op)] = self.span(f"{prefix}.{op}", getattr(module, op))
        for op in SAMPLERS:
            w[getattr(sampling, op)] = self.span("sampling", getattr(sampling, op))
        w[serialize.loads] = self.span("serialize.parse", serialize.loads,
                                       size=lambda args, out: len(args[0]))
        w[serialize.dumps] = self.span("serialize.emit", serialize.dumps,
                                       size=lambda args, out: len(out))
        for op in PARSERS:
            w[getattr(serialize, op)] = self.span("serialize.parse", getattr(serialize, op))
        for op in EMITTERS:
            w[getattr(serialize, op)] = self.span("serialize.emit", getattr(serialize, op))
        w[cli.main] = self._cli_main(cli.main)
        return w

    def _methods(self):
        """(class, attribute, wrapper) for traced methods."""
        E, M, S = algebra.AlgebraElement, algebra.AlgebraMorphism, matrix.SuperMatrix
        return [
            (E, "__mul__", self.span("algebra.mul", E.__mul__, series_child=True)),
            (E, "inv", self.span("algebra.inv", E.inv)),
            (M, "__call__", self.span("algebra.morphism", M.__call__)),
            (S, "__matmul__", self.span("matrix.matmul", S.__matmul__,
                                        series_child=True, matrix_span=True)),
        ]

    def _property_tables(self):
        """Suite property lists with each property wrapped as a suites span."""
        out = []
        for table in (suites.SUITES, suites.FIXED_SUITES):
            for suite, props in table.items():
                wrapped = [(name, self.span(f"suites.{suite}", fn)) for name, fn in props]
                out.append((props, wrapped))
        return out

    @contextlib.contextmanager
    def installed(self):
        undo = []
        try:
            wrappers = self._wrappers()
            for module in superweil_modules():
                for attr, value in list(vars(module).items()):
                    wrapper = _lookup(wrappers, value)
                    if wrapper is not None:
                        undo.append((module, attr, value))
                        setattr(module, attr, wrapper)
            for cls, attr, wrapper in self._methods():
                undo.append((cls, attr, cls.__dict__[attr]))
                setattr(cls, attr, wrapper)
            for props, wrapped in self._property_tables():
                undo.append((props, None, list(props)))
                props[:] = wrapped
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                if attr is None:
                    owner[:] = value
                else:
                    setattr(owner, attr, value)

    # results

    def metrics(self, overhead_ratio) -> dict:
        s = self.stats.get
        empty = Stat()

        def st(name):
            return s(name) or empty

        def ratio(num, den):
            return num / den if den else 0.0

        v = {}
        k = st("kernel.mul_into")
        v["kernel.mul_into.calls"] = k.calls
        v["kernel.mul_into.pairs"] = k.pairs
        v["kernel.mul_into.useful_ratio"] = ratio(k.useful, k.pairs)
        v["kernel.mul_into.self_s"] = k.self_s
        for name in ("kernel.linear", "algebra.mul", "algebra.inv", "algebra.morphism",
                     "rational", "sampling"):
            v[f"{name}.calls"] = st(name).calls
            v[f"{name}.self_s"] = st(name).self_s
        inv = st("algebra.inv")
        v["algebra.inv.series_len"] = ratio(inv.series, inv.calls)
        for op in MATRIX_OPS:
            m = st(f"matrix.{op}")
            v[f"matrix.{op}.calls"] = m.calls
            v[f"matrix.{op}.self_s"] = m.self_s
            v[f"matrix.{op}.kernel_pairs"] = m.kernel_pairs
        e = st("matrix.exp_nilpotent")
        v["matrix.exp_nilpotent.series_len"] = ratio(e.series, e.calls)
        for prefix, ops in (("groups", GROUP_OPS), ("flag", FLAG_OPS)):
            for op in ops:
                v[f"{prefix}.{op}.calls"] = st(f"{prefix}.{op}").calls
                v[f"{prefix}.{op}.self_s"] = st(f"{prefix}.{op}").self_s
        pi = st("flag.flag_pi")
        v["flag.flag_pi.in_cell_ratio"] = ratio(pi.calls - pi.raised["OutsideBigCell"],
                                                pi.calls)
        for suite in suites.SUITE_NAMES:
            v[f"suites.{suite}.self_s"] = st(f"suites.{suite}").self_s
        trials = sum(st(f"suites.{x}").calls for x in RANDOM_SUITES)
        resampled = sum(st(f"suites.{x}").raised["Resample"] for x in RANDOM_SUITES)
        v["suites.resample_ratio"] = ratio(resampled, trials)
        for side in ("parse", "emit"):
            x = st(f"serialize.{side}")
            v[f"serialize.{side}.calls"] = x.calls
            v[f"serialize.{side}.self_s"] = x.self_s
            v[f"serialize.{side}.bytes"] = x.nbytes
        for w in COMPUTE_WHATS:
            v[f"cli.compute.{w}.self_s"] = st(f"cli.compute.{w}").self_s
        v["trace.overhead_ratio"] = overhead_ratio
        return {name: {"value": v[name], "unit": unit} for name, unit, _ in CATALOGUE}


def _lookup(wrappers, value):
    try:
        return wrappers.get(value)
    except TypeError:  # unhashable module global
        return None


def superweil_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "superweil" or name.startswith("superweil."))]


def unwrapped():
    """Bindings in loaded superweil modules that still refer to a traced
    original while a tracer is installed; empty when every binding is wrapped."""
    originals = {id(value.__wrapped__)
                 for module in superweil_modules() for value in vars(module).values()
                 if callable(value) and getattr(value, "__wrapped__", None) is not None}
    return [f"{module.__name__}.{attr}"
            for module in superweil_modules() for attr, value in vars(module).items()
            if id(value) in originals]
