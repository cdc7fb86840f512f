"""Per-request output checks, run in the benchmark process after a pass.

`Oracles.check` classifies one response as ``ok``, ``error`` (nothing
printed on stdout: the request raised or exited with a message) or
``wrong`` (an answer was printed and it is not the right one), and
measures the largest coefficient bit length the answer holds.

Checks by subcommand:

* verify   - exit 0, ``all_pass`` true, every check of the requested
             group passes with residual "0".
* basis    - the matrix equals `basic_sequence_by_recurrence`
             coefficient for coefficient.
* numcheck - every cell ``ok`` except Abel at (a, t) = (0.5, 0.1), which
             must report ``diverged`` (README, acceptance criterion 11).
* flow     - basic row 1 is the requested f; every row satisfies the
             autonomous recursion (n+1) B_(n+1) = f * dB_n/dx, and the
             monomial block agrees with the basic block under the
             recurrence basis, both through the full order, evaluated at
             a sample point (x, t) modulo a 64-bit prime; and
             `verify_delta_ode(f, Q, min(order, 4))` is zero.  The delta
             ODE is checked only through order 4 because its residual at
             order 32 over Q(i) costs about 30 s per request on a 2-CPU
             machine.
* solve    - the ``iterated`` column is this module's own Horner orbit,
             each ``equal`` cell says whether ``closed`` equals it, the
             exit code is 1 exactly when some row differs, and affine
             maps have ``closed == iterated`` on every row.  Exit 1 with
             ``equal=False`` on a nonlinear map is the documented answer.

Scalars are parsed by this module, into (re, im) pairs of Fractions or
into residues modulo P, so the solve and flow checks do not lean on
deltadyn's scalar types.  P = 1 (mod 4), so i maps to a square root of
-1 and reduction mod P is a ring map on every Q(i) value whose
denominators P does not divide (all of them here: they are products of
small primes).  A wrong row passes a residue check only if its error
vanishes at the sample point mod P.
"""

import hashlib
import json
import os
import re
from fractions import Fraction

_NUM = r"[+-]?\d+(?:/\d+)?"
_REAL_RE = re.compile(r"^(%s)$" % _NUM)
_COMPOSITE_RE = re.compile(r"^(%s)([+-]\d+(?:/\d+)?)\*i$" % _NUM)
_IMAG_RE = re.compile(r"^(%s)\*i$" % _NUM)

ZERO = (Fraction(0), Fraction(0))
P = 2 ** 64 - 59  # prime, = 1 (mod 4)
SAMPLE_X = 2
SAMPLE_T = 3
DELTA_ODE_ORDER = 4
CACHE_DIR = os.path.join("perfbench", ".cache")


def _sqrt_minus_one():
    c = next(c for c in range(2, 100) if pow(c, (P - 1) // 2, P) == P - 1)
    return pow(c, (P - 1) // 4, P)


I_P = _sqrt_minus_one()


# ---------------------------------------------------------------------------
# exact scalars as (re, im) pairs and polynomials as lists of pairs

def _add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _scale(a, k):
    return (a[0] * k, a[1] * k)


def _split(text):
    """(re, im) strings of a scalar; im is None for a rational."""
    s = text.strip()
    if _REAL_RE.match(s):
        return s, None
    m = _COMPOSITE_RE.match(s)
    if m:
        return m.group(1), m.group(2)
    m = _IMAG_RE.match(s)
    if m:
        return "0", m.group(1)
    raise ValueError("not an exact scalar: %r" % text[:80])


def parse(text):
    re_s, im_s = _split(text)
    return (Fraction(re_s), Fraction(im_s or 0))


def _rational_mod(text):
    num, _, den = text.partition("/")
    n = int(num)
    d = int(den) if den else 1
    return n * pow(d, -1, P) % P, max(abs(n).bit_length(), d.bit_length())


def parse_mod(text):
    """(residue mod P, largest numerator or denominator bit length)."""
    re_s, im_s = _split(text)
    v, bits = _rational_mod(re_s)
    if im_s is not None:
        w, b = _rational_mod(im_s)
        v, bits = (v + w * I_P) % P, max(bits, b)
    return v, bits


def _horner_mod(p, x):
    acc = 0
    for c in reversed(p):
        acc = (acc * x + c) % P
    return acc


def _bits(a):
    return max(
        a[0].numerator.bit_length(), a[0].denominator.bit_length(),
        a[1].numerator.bit_length(), a[1].denominator.bit_length(),
    )


def _trim(p):
    p = list(p)
    while p and p[-1] == ZERO:
        p.pop()
    return p


def _horner(p, x):
    acc = ZERO
    for c in reversed(p):
        acc = _add(_mul(acc, x), c)
    return acc


def _source_hash(pkg_dir):
    h = hashlib.sha1()
    for name in sorted(os.listdir(pkg_dir)):
        if name.endswith((".py", ".json")):
            with open(os.path.join(pkg_dir, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _digest(res):
    h = hashlib.sha1(res["stdout"].encode())
    return (res["rc"], res["raised"], h.hexdigest(), res["stderr"])


# ---------------------------------------------------------------------------

class Oracles:
    """Checks responses; expected values are built once per run and reused."""

    def __init__(self, root, reqs):
        from deltadyn import umbral

        self._umbral = umbral
        self._cache_dir = os.path.join(root, CACHE_DIR)
        self._src_hash = _source_hash(os.path.join(root, "src", "deltadyn"))
        self._verdicts = {}
        self._bases = {}
        self._q_at_t = {}
        self._ode = {}
        self._max_depth = {}
        for r in reqs:
            if r["kind"] in ("basis", "flow"):
                key = (r["op"], r["alpha"])
                depth = r["depth"] if r["kind"] == "basis" else r["order"]
                self._max_depth[key] = max(depth, self._max_depth.get(key, 0))
        with open(os.path.join(root, "src", "deltadyn", "corpus.json")) as fh:
            self._corpus = {e["name"]: e for e in json.load(fh)["maps"]}

    def check(self, req, res):
        """(verdict, max coefficient bits, detail) for one response."""
        key = (tuple(req["argv"]),) + _digest(res)
        if key not in self._verdicts:
            self._verdicts[key] = self._check(req, res)
        return self._verdicts[key]

    def _check(self, req, res):
        if res["raised"] is not None:
            return ("error", 0, res["raised"])
        if not res["stdout"].strip():
            return ("error", 0, "rc=%s %s" % (res["rc"], res["stderr"].strip()[:200]))
        try:
            bits = getattr(self, "_" + req["kind"])(req, res)
        except (AssertionError, ValueError, KeyError, IndexError, TypeError) as exc:
            return ("wrong", 0, "%s: %s" % (type(exc).__name__, str(exc)[:200]))
        return ("ok", bits, "")

    # -- cold workloads ------------------------------------------------------

    def _verify(self, req, res):
        out = json.loads(res["stdout"])
        _expect(res["rc"] == 0, "exit code %s" % res["rc"])
        _expect(out["all_pass"] is True, "all_pass is not true")
        _expect(len(out["checks"]) > 0, "no checks ran")
        for c in out["checks"]:
            _expect(c["group"] == req["group"], "check of group %s" % c["group"])
            _expect(c["pass"] is True and c["residual"] == "0",
                    "%s residual %s" % (c["name"], c["residual"][:40]))
        return 0

    def _basis_matrix(self, op, alpha):
        """(rows, column bits): rows[k][n] is the t^k coefficient of q_n as
        the CLI prints it, from the recurrence oracle."""
        key = (op, alpha)
        if key not in self._bases:
            depth = self._max_depth[key]
            rows = self._cached_rows(op, alpha, depth)
            col_bits = [max(parse_mod(rows[k][n])[1] for k in range(n + 1)) for n in range(depth + 1)]
            self._bases[key] = (rows, col_bits)
        return self._bases[key]

    def _cached_rows(self, op, alpha, depth):
        # The recurrence at depth 96 takes seconds per operator, so its
        # result is kept on disk, keyed by the package sources it came from.
        name = "basis-%s-%s-%d-%s.json" % (op, alpha.replace("/", "_"), depth, self._src_hash)
        path = os.path.join(self._cache_dir, name)
        try:
            with open(path) as fh:
                return json.load(fh)
        except (OSError, ValueError):
            pass
        from deltadyn.scalars import format_scalar

        basis = self._umbral.basic_sequence_by_recurrence(self._operator(op, alpha, depth), depth)
        rows = [[format_scalar(basis.beta(k, n)) for n in range(depth + 1)] for k in range(depth + 1)]
        os.makedirs(self._cache_dir, exist_ok=True)
        with open(path + ".tmp", "w") as fh:
            json.dump(rows, fh)
        os.replace(path + ".tmp", path)
        return rows

    def _operator(self, op, alpha, order):
        u = self._umbral
        if op == "abel":
            return u.abel(Fraction(alpha), order)
        return {"derivative": u.derivative, "forward": u.forward,
                "backward": u.backward, "touchard": u.touchard}[op](order)

    def _basis(self, req, res):
        _expect(res["rc"] == 0, "exit code %s" % res["rc"])
        out = json.loads(res["stdout"])
        d = req["depth"]
        _expect(out["basis"] == req["op"] and out["order"] == d, "wrong header")
        rows, col_bits = self._basis_matrix(req["op"], req["alpha"])
        coeffs = out["coeffs"]
        _expect(len(coeffs) == d + 1, "matrix has %d rows" % len(coeffs))
        for k in range(d + 1):
            _expect(coeffs[k] == rows[k][: d + 1], "row %d differs from the recurrence" % k)
        return max(col_bits[: d + 1])

    def _numcheck(self, req, res):
        _expect(res["rc"] == 1, "exit code %s (the Abel cell must fail the grid)" % res["rc"])
        out = json.loads(res["stdout"])
        _expect(len(out["cells"]) == 8, "%d cells" % len(out["cells"]))
        for c in out["cells"]:
            if (c["kind"], c["a"], c["t"]) == ("abel", 0.5, 0.1):
                _expect(c["status"].startswith("diverged"), "abel (0.5, 0.1) is %s" % c["status"])
            else:
                _expect(c["status"] == "ok", "%s %s %s is %s" % (c["kind"], c["a"], c["t"], c["status"]))
        _expect(out["lambert_pass"] is True, "lambert grid failed")
        _expect(out["all_pass"] is False, "all_pass despite the divergent cell")
        return 0

    # -- flow-session --------------------------------------------------------

    def _flow(self, req, res):
        _expect(res["rc"] == 0, "exit code %s" % res["rc"])
        out = json.loads(res["stdout"])
        N = req["order"]
        _expect(out["operator"] == req["op"] and out["order"] == N, "wrong header")
        _expect(len(out["basic"]) == N + 1 and len(out["monomial"]) == N + 1,
                "wrong number of rows")
        _expect(out["basic"][0] == ["0"] and out["monomial"][0] == ["0"], "row 0 is not zero")
        f = _trim(parse(c) for c in req["f"])
        _expect(_trim(parse(c) for c in out["basic"][1]) == f, "basic row 1 is not the generator")
        bits = 0
        rows = {}
        for block in ("basic", "monomial"):
            rows[block] = []
            for row in out[block]:
                parsed = [parse_mod(c) for c in row]
                rows[block].append([v for v, _ in parsed])
                bits = max([bits] + [b for _, b in parsed])
        basic, mono = rows["basic"], rows["monomial"]
        f_x = _horner_mod([parse_mod(c)[0] for c in req["f"]], SAMPLE_X)
        for n in range(1, N):
            lhs = (n + 1) * _horner_mod(basic[n + 1], SAMPLE_X) % P
            dx = [k * c % P for k, c in enumerate(basic[n])][1:]
            _expect(lhs == f_x * _horner_mod(dx, SAMPLE_X) % P,
                    "basic row %d breaks (n+1) B_(n+1) = f B_n'" % (n + 1))
        q_t = self._q_values(req["op"], req["alpha"])
        via_basic = sum(_horner_mod(basic[n], SAMPLE_X) * q_t[n] for n in range(1, N + 1)) % P
        via_mono = _horner_mod([_horner_mod(m, SAMPLE_X) for m in mono], SAMPLE_T)
        _expect(via_basic == via_mono, "monomial block disagrees with the basic block")
        _expect(self._delta_ode_zero(req), "verify_delta_ode residual is not zero")
        return bits

    def _q_values(self, op, alpha):
        """q_n(SAMPLE_T) mod P for the recurrence basis."""
        key = (op, alpha)
        if key not in self._q_at_t:
            rows, _ = self._basis_matrix(op, alpha)
            self._q_at_t[key] = [
                _horner_mod([parse_mod(rows[k][n])[0] for k in range(n + 1)], SAMPLE_T)
                for n in range(len(rows))
            ]
        return self._q_at_t[key]

    def _delta_ode_zero(self, req):
        key = (tuple(req["f"]), req["op"], req["alpha"], req["field"], min(req["order"], DELTA_ODE_ORDER))
        if key not in self._ode:
            from deltadyn.deltaflow import verify_delta_ode
            from deltadyn.scalars import parse_scalar
            from deltadyn.series import XSeries

            f = XSeries([parse_scalar(c, req["field"]) for c in req["f"]])
            order = key[-1]
            Q = self._operator(req["op"], req["alpha"], max(order, 16))
            self._ode[key] = verify_delta_ode(f, Q, order).is_zero
        return self._ode[key]

    def _map_coeffs(self, name):
        if ":" in name:
            kind, _, arg = name.partition(":")
            params = arg
        else:
            entry = self._corpus[name]
            kind = entry["kind"]
            params = entry.get("mu") or entry.get("c") or entry.get("g")
        if kind == "poly":
            coeffs = params.split(",") if isinstance(params, str) else params
            return [parse(c) for c in coeffs]
        p = parse(params)
        if kind == "logistic":
            return [ZERO, p, _scale(p, -1)]
        if kind == "quadratic":
            return [p, ZERO, (Fraction(1), Fraction(0))]
        raise ValueError("unknown map kind %r" % kind)

    def _solve(self, req, res):
        g = self._map_coeffs(req["map"])
        y = parse(req["x0"])
        lines = res["stdout"].strip().split("\n")
        _expect(lines[0] == "n,closed,iterated,equal", "header %r" % lines[0][:60])
        _expect(len(lines) == req["steps"] + 2, "%d rows" % (len(lines) - 1))
        bits = 0
        all_equal = True
        for n, line in enumerate(lines[1:]):
            cells = line.split(",")
            _expect(len(cells) == 4 and cells[0] == str(n), "row %d malformed" % n)
            closed, iterated = parse(cells[1]), parse(cells[2])
            _expect(iterated == y, "iterated value differs from the orbit at n=%d" % n)
            equal = closed == iterated
            _expect(cells[3] == str(equal), "equal cell wrong at n=%d" % n)
            if req["degree"] == 1:
                _expect(equal, "affine map: closed differs from the orbit at n=%d" % n)
            all_equal = all_equal and equal
            bits = max(bits, _bits(closed), _bits(iterated))
            y = _horner(g, y)
        _expect(res["rc"] == (0 if all_equal else 1), "exit code %s" % res["rc"])
        return bits


def _expect(cond, message):
    if not cond:
        raise AssertionError(message)
