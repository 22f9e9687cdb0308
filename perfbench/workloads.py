"""The four benchmark workloads.

A workload turns the benchmark seed into a stream of inputs, runs one step on
an input (the timed part), and checks the step's output.  A step is one item,
except in `verify`, where a step is one trial of every property and each
property call is timed as its own item.

Inputs for dense_algebra, big_blocks and compute come from the generators in
this file, which use only superweil's public constructors, so a change to
superweil.sampling does not change what those workloads measure.  `verify`
runs superweil's own suites, whose draws come from the master seed.

Timed calls go through module attributes (sw.berezinian, cli.main), never
through names bound here at import, so the tracer's wrappers see them.
"""

import contextlib
import io
import random
from fractions import Fraction
from itertools import count

import oracle
import superweil as sw
from superweil import cli, serialize, suites

COEFFS = [Fraction(n, d) for n in (-3, -2, -1, 1, 2, 3) for d in (1, 2, 3)]
UNITS = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2),
         Fraction(-3, 2)]
SMALL = [Fraction(-1), Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2)]


def sig_name(sig) -> str:
    return f"Lambda({sig.even},{sig.odd})"


def shape_name(shape) -> str:
    return f"({shape[0]}|{shape[1]})"


# input generators

def _indices(mask):
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def monomials(sig, parity, max_degree):
    """Non-constant monomials (evens, odds) of the parity (0, 1, or None for any)."""
    out = []
    for em in range(1 << sig.even):
        for om in range(1 << sig.odd):
            odd = bin(om).count("1")
            if not 1 <= bin(em).count("1") + odd <= max_degree:
                continue
            if parity is None or odd % 2 == parity:
                out.append((_indices(em), _indices(om)))
    return out


class Draw:
    """Seeded draws of elements and matrices with a fixed number of terms."""

    def __init__(self, sig, rng, max_degree=None):
        self.sig = sig
        self.rng = rng
        top = max_degree or sig.even + sig.odd
        self._menu = {p: monomials(sig, p, top) for p in (0, 1, None)}

    def soul(self, parity, n_terms):
        menu = self._menu[parity]
        picks = self.rng.sample(menu, min(n_terms, len(menu)))
        return {m: self.rng.choice(COEFFS) for m in picks}

    def element(self, body, parity, n_terms):
        terms = self.soul(parity, n_terms)
        if body:
            terms[((), ())] = Fraction(body)
        return self.sig.from_terms(terms)

    def body(self, n):
        """Rational n x n matrix L U with every leading minor nonzero."""
        rng = self.rng
        lower = [[Fraction(int(i == j)) if j >= i else rng.choice(SMALL)
                  for j in range(n)] for i in range(n)]
        upper = [[rng.choice(UNITS) if i == j else
                  (rng.choice(SMALL) if j > i else Fraction(0))
                  for j in range(n)] for i in range(n)]
        return [[sum(lower[i][k] * upper[k][j] for k in range(n))
                 for j in range(n)] for i in range(n)]

    def matrix(self, shape, soul_terms):
        """Invertible grading-valid matrix: rational body plus sparse souls.

        Its body is block diagonal with leading minors nonzero, so both
        diagonal blocks and their upper-left corners are invertible.
        """
        m, n = shape
        bp, bs = self.body(m), self.body(n)
        rows = []
        for i in range(m + n):
            row = []
            for j in range(m + n):
                if (i < m) != (j < m):
                    row.append(self.element(0, 1, soul_terms))
                    continue
                b = bp[i][j] if i < m else bs[i - m][j - m]
                row.append(self.element(b, 0, soul_terms))
            rows.append(row)
        return sw.SuperMatrix(self.sig, shape, shape, rows)

    def block(self, row_shape, col_shape, body, soul_terms):
        nr, nc = sum(row_shape), sum(col_shape)
        rows = []
        for i in range(nr):
            row = []
            for j in range(nc):
                odd = (i < row_shape[0]) != (j < col_shape[0])
                b = 0 if odd or body is None else body[i][j]
                row.append(self.element(b, int(odd), soul_terms))
            rows.append(row)
        return sw.SuperMatrix(self.sig, row_shape, col_shape, rows)


class Workload:
    """Protocol: inputs() yields step inputs; run_timed(inp, timer) returns the
    step's output and times each of its items with timer(fn, *args);
    check(inp, out) returns the number of failed items."""

    name = ""
    trace_steps = 1

    def __init__(self, seed):
        self.seed = seed

    def describe(self) -> dict:
        raise NotImplementedError

    def warm_up(self, timer):
        """Run one step of every kind on fixed inputs outside the measured
        stream, so that set-up work does not depend on the seed."""
        stream = self.inputs(random.Random("warm-up"))
        for _ in range(self.cycle):
            self.run_timed(next(stream), timer)

    def run_timed(self, inp, timer):
        return timer(self.run, inp)


# verify: the suites users run

class Verify(Workload):
    name = "verify"
    cycle = 1
    trace_steps = 3

    def __init__(self, seed):
        super().__init__(seed)
        self.sig = suites.SuiteConfig(master_seed=seed, trials=1).signature

    def describe(self):
        return {"signature": sig_name(self.sig), "shapes": ["(2|2)", "(3|0)", "(4|1)"],
                "suites": list(suites.SUITE_NAMES)}

    def inputs(self, rng=None):
        # step k is trial k of run_suites(master_seed=seed); the fixed jacobian
        # checks run once, with trial 0, as in one `superweil verify` run.
        base = self.seed if rng is None else rng.randrange(1 << 30)
        for k in count():
            yield base, k

    def run_timed(self, inp, timer):
        base, k = inp
        names = suites.SUITE_NAMES if k == 0 else tuple(suites.SUITES)
        cfg = suites.SuiteConfig(master_seed=base + k, trials=1, suites=names)
        with _timed_properties(timer):
            report = suites.run_suites(cfg)
        obj = report.to_obj()
        del obj["wall_time"]
        return obj

    def check(self, inp, out):
        bad = 0
        for r in out["results"]:
            bad += r["failed"] + (r["passed"] + r["failed"] + r["resampled"] != 1)
        return bad


@contextlib.contextmanager
def _timed_properties(timer):
    """Time each property call of run_suites; restores the tables on exit."""
    def timed(fn):
        return lambda rng, sig: timer(fn, rng, sig)

    saved = []
    for table in (suites.SUITES, suites.FIXED_SUITES):
        for props in table.values():
            saved.append((props, list(props)))
            props[:] = [(name, timed(fn)) for name, fn in props]
    try:
        yield
    finally:
        for props, original in saved:
            props[:] = original


# dense_algebra: kernel arithmetic on dense elements

class DenseAlgebra(Workload):
    name = "dense_algebra"
    sig = sw.Signature(2, 8)
    terms = 38
    max_degree = 3
    kinds = ("mul", "inv", "morphism")
    cycle = 3
    trace_steps = 90

    def __init__(self, seed):
        super().__init__(seed)
        self.ref = oracle.GrassmannRef()

    def describe(self):
        return {"signature": sig_name(self.sig), "operand_terms": self.terms,
                "max_degree": self.max_degree, "kinds": list(self.kinds)}

    def inputs(self, rng=None):
        draw = Draw(self.sig, rng or random.Random(self.seed), self.max_degree)
        for i in count():
            kind = self.kinds[i % len(self.kinds)]
            x = draw.element(draw.rng.choice(UNITS), None, self.terms)
            if kind == "mul":
                yield kind, x, draw.element(draw.rng.choice(UNITS), None, self.terms)
            elif kind == "inv":
                yield kind, x, None
            else:
                evens = [self._square_zero(draw) for _ in range(self.sig.even)]
                odds = [draw.element(0, 1, 3) for _ in range(self.sig.odd)]
                yield kind, x, (evens, odds)

    @staticmethod
    def _square_zero(draw):
        # c * t_a t_b * (1 + w): even, square zero since t_a t_b repeats
        a, b = sorted(draw.rng.sample(range(1, draw.sig.odd + 1), 2))
        base = draw.sig.monomial((), (a, b), draw.rng.choice(COEFFS))
        return base * draw.element(1, 0, 2)

    def run(self, inp):
        kind, x, other = inp
        if kind == "mul":
            return x * other
        if kind == "inv":
            return x.inv()
        evens, odds = other
        return sw.AlgebraMorphism(self.sig, self.sig, evens, odds)(x)

    def check(self, inp, out):
        kind, x, other = inp
        got = oracle.terms(out)
        if kind == "mul":
            want = self.ref.mul(oracle.terms(x), oracle.terms(other))
        elif kind == "inv":
            want = oracle.ONE
            got = self.ref.mul(oracle.terms(x), got)
        else:
            want = oracle.morphism_image(self.ref, *other, oracle.terms(x))
        return int(got != want)


# big_blocks: matrix algorithms on large graded shapes

class BigBlocks(Workload):
    name = "big_blocks"
    sig = sw.Signature(0, 4)
    # berezinian is half the items, so item_p50_ms lands mid-cluster on it,
    # and the mean item stays near 0.1 s, so a run has over 100 items
    plan = (("det_even", (8, 0)), ("berezinian", (8, 4)), ("smat_inv", (6, 4)),
            ("berezinian", (8, 4)))
    cycle = 4
    trace_steps = 8

    def __init__(self, seed, plan=None):
        super().__init__(seed)
        if plan is not None:
            self.plan = plan
            self.cycle = len(plan)

    def describe(self):
        return {"signature": sig_name(self.sig),
                "items": [f"{k} {shape_name(s)}" for k, s in self.plan]}

    def inputs(self, rng=None):
        draw = Draw(self.sig, rng or random.Random(self.seed))
        for i in count():
            kind, shape = self.plan[i % len(self.plan)]
            yield kind, draw.matrix(shape, 1)

    def run(self, inp):
        kind, g = inp
        if kind == "det_even":
            return sw.det_even(g)
        if kind == "berezinian":
            return sw.berezinian(g)
        return sw.smat_inv(g)

    def check(self, inp, out):
        kind, g = inp
        if kind == "det_even":
            return int(out != oracle.elim_det(g.entries))
        if kind == "berezinian":
            return int(out != oracle.berezinian_alt(g))
        ident = sw.SuperMatrix.identity(self.sig, g.row_shape)
        ok = g @ out == ident and sw.berezinian(g) * sw.berezinian(out) == 1
        return int(not ok)


# compute: the CLI one-shots on canonical payload files

class Compute(Workload):
    name = "compute"
    sigs = (sw.Signature(0, 4), sw.Signature(1, 6))
    whats = ("ber", "pi", "act")
    bases = ("gl", "sl", "stabilizer")
    per_kind = 48
    cycle = 9

    def __init__(self, seed, workdir, per_kind=None):
        super().__init__(seed)
        self.per_kind = per_kind or self.per_kind
        self.payloads = []
        self.expected = {}
        draw = {s: Draw(s, random.Random(f"{seed}:{sig_name(s)}")) for s in self.sigs}
        for k in range(self.per_kind):
            for s in self.sigs:
                for what in self.whats:
                    value = self._draw(what, draw[s])
                    path = workdir / f"{what}-{s.even}-{s.odd}-{k}.json"
                    path.write_text(serialize.dumps(self._to_obj(what, value)))
                    self.payloads.append((["compute", what, "--in", str(path)], value))
            if k < len(self.bases):
                self.payloads.append((["compute", "jacobian", "--basis", self.bases[k]],
                                      self.bases[k]))
        self.trace_steps = len(self.payloads)

    def describe(self):
        return {"signatures": [sig_name(s) for s in self.sigs], "shapes": ["(4|1)"],
                "payloads": len(self.payloads), "bases": list(self.bases)}

    @staticmethod
    def _draw(what, draw):
        if what in ("ber", "pi"):
            return draw.matrix((4, 1), 2)
        even, odd_col, odd_row = ((2, 0), (2, 0)), ((2, 0), (0, 1)), ((0, 1), (2, 0))
        P = sw.PoincareElement(
            L=draw.block(*even, draw.body(2), 2),
            N=draw.block(*even, draw.body(2), 2),
            R=draw.block(*even, draw.body(2), 2),
            chi=draw.block(*odd_col, None, 2),
            phi=draw.block(*odd_row, None, 2),
            d=draw.element(draw.rng.choice(UNITS), 0, 2),
        )
        pt = sw.BigCellPoint(draw.block(*even, draw.body(2), 2),
                          draw.block(*odd_row, None, 2),
                          draw.block(*odd_col, None, 2))
        return P, pt

    @staticmethod
    def _to_obj(what, value):
        if what == "act":
            P, pt = value
            return {"poincare": serialize.poincare_to_obj(P),
                    "point": serialize.point_to_obj(pt)}
        return serialize.matrix_to_obj(value)

    @staticmethod
    def _direct(what, value):
        """The library result emitted without going through the CLI."""
        if what == "ber":
            return serialize.element_to_obj(sw.berezinian(value))
        if what == "pi":
            return serialize.point_to_obj(sw.flag_pi(value))
        if what == "act":
            return serialize.point_to_obj(sw.poincare_act(*value))
        return serialize.jacobian_to_obj(sw.jacobian_at_identity(value))

    def inputs(self, rng=None):
        order = list(range(len(self.payloads)))
        if rng is not None:
            rng.shuffle(order)
        for i in count():
            yield order[i % len(order)]

    def run(self, inp):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = cli.main(self.payloads[inp][0])
        return status, buf.getvalue()

    def check(self, inp, out):
        want = self.expected.get(inp)
        if want is None:
            argv, value = self.payloads[inp]
            want = serialize.dumps(self._direct(argv[1], value)) + "\n"
            self.expected[inp] = want
        return int(out != (0, want))


WORKLOADS = {w.name: w for w in (Verify, DenseAlgebra, BigBlocks, Compute)}


def create(name, seed, workdir):
    """Set up workload `name`; compute writes its payload files into workdir."""
    if name == Compute.name:
        return Compute(seed, workdir)
    return WORKLOADS[name](seed)
