"""Seeded request lists for the three workloads.

A request is a dict: ``argv`` is what `deltadyn.cli.cli_main` receives,
``kind`` names the subcommand, and the remaining keys describe the
request for the oracles and the per-layer metrics.  The package only
ever sees ``argv``.

Every pass of a workload holds the same mix of request shapes for every
seed; the seed draws the values inside a shape (coefficients, initial
values, Abel's alpha) and shuffles the order.  That keeps a pass's cost
comparable across seeds, which the run-to-run spread check needs.
"""

import random
from fractions import Fraction

WORKLOADS = ("verify", "basis-deep", "flow-session")

# Workloads whose requests each run in a fresh interpreter.
COLD = ("verify", "basis-deep")

VERIFY_GROUPS = ("core", "autonomous", "umbral", "deltaflow", "solver")
# (order, depth); includes the CLI defaults (10, 16).
VERIFY_GRID = ((8, 12), (10, 16))

BASIS_OPS = ("derivative", "forward", "backward", "touchard", "abel")
# Depth 24 also puts the median request among like-sized builds rather
# than at the jump between two depths.
BASIS_DEPTHS = (16, 24, 32, 48, 64, 96)
# Depth-96 builds of Touchard (7 s) and Abel (6-7 s, varying with alpha)
# are left out to keep one pass near half a minute on a 2-CPU machine;
# both are swept through 64, here and inside numcheck.
BASIS_SKIP = (("touchard", 96), ("abel", 96))
# Alphas of one height, so that Abel builds cost alike whatever the seed.
ABEL_ALPHAS = ("2/3", "3/2", "-2/3", "-3/2")
NUMCHECK_DEPTHS = (48, 64)

# Two operators at four orders: 8 basis builds per session, about 6% of
# its time, and every other flow request is a cache hit.
FLOW_OPS = ("forward", "touchard")
FLOW_ORDERS = (8, 16, 24, 32)
FLOW_FIELDS = ("Q", "Q", "Q", "Qi")  # a quarter of the flows are over Q(i)
FLOW_DEGREES = (1, 2, 3)
SMALL_RATIONALS = tuple(
    Fraction(s) for s in ("1", "-1", "2", "-2", "1/2", "-1/2", "1/3", "-2/3", "3/2")
)

# Initial values p/q with q a prime that divides no map parameter, so
# every orbit's denominators grow like q^(degree^n): steps 15 (quadratic
# maps) and 10 (cubic) always pass CPython's 4300-digit int-to-str limit
# and steps up to 11 (quadratic) and 7 (cubic) never do.
X0_DENOMS = (7, 11, 13)
X0_NUMERS = (1, 2, 3, 5)
AFFINE_STEPS = (5, 10, 15)
QUADRATIC_STEPS = (3, 7, 11, 15)
CUBIC_STEPS = (2, 4, 7, 10)
LOGISTIC_MUS = ("2", "3", "4", "5/2", "3/2")
QUADRATIC_CS = ("1/2", "-1", "1/4", "-3/4", "2")
AFFINE_SLOPES = ("2", "-1", "1/2", "3", "-2")
AFFINE_OFFSETS = ("1", "-1", "1/2", "2", "0")


def generate(workload, seed):
    """The request list of one pass of ``workload`` for ``seed``."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "verify":
        reqs = _verify(rng)
    elif workload == "basis-deep":
        reqs = _basis_deep(rng)
    elif workload == "flow-session":
        reqs = _flow_session(rng)
    else:
        raise ValueError("unknown workload %r" % workload)
    rng.shuffle(reqs)
    return reqs


def _verify(rng):
    return [
        {
            "kind": "verify",
            "group": group,
            "argv": ["verify", "--ops", group, "--order", str(o), "--depth", str(d)],
        }
        for group in VERIFY_GROUPS
        for o, d in VERIFY_GRID
    ]


def _basis_deep(rng):
    reqs = []
    for op in BASIS_OPS:
        for depth in BASIS_DEPTHS:
            if (op, depth) in BASIS_SKIP:
                continue
            alpha = rng.choice(ABEL_ALPHAS) if op == "abel" else "1"
            argv = ["basis", "--op", op, "--depth", str(depth)]
            if op == "abel":
                argv.insert(3, "--alpha=" + alpha)  # "=": a minus sign would read as an option
            reqs.append(
                {"kind": "basis", "op": op, "alpha": alpha, "depth": depth, "argv": argv}
            )
    for depth in NUMCHECK_DEPTHS:
        reqs.append(
            {"kind": "numcheck", "depth": depth, "argv": ["numcheck", "--depth", str(depth)]}
        )
    return reqs


def _fmt(value):
    # The same rendering as deltadyn.scalars.format_scalar, kept local so
    # that generating inputs does not run package code.
    if isinstance(value, tuple):
        re, im = value
        if im == 0:
            return str(re)
        return "%s%s%s*i" % (re, "+" if im > 0 else "-", abs(im))
    return str(Fraction(value))


def _flow_session(rng):
    reqs = []
    shape = 0
    for order in FLOW_ORDERS:
        for field in FLOW_FIELDS:
            for degree in FLOW_DEGREES:
                op = FLOW_OPS[shape % len(FLOW_OPS)]
                shape += 1
                coeffs = []
                for k in range(degree + 1):
                    re = rng.choice(SMALL_RATIONALS)
                    if field == "Qi":
                        im = rng.choice(SMALL_RATIONALS) if k == degree else rng.choice(
                            SMALL_RATIONALS + (Fraction(0),)
                        )
                        coeffs.append(_fmt((re, im)))
                    else:
                        coeffs.append(_fmt(re))
                # "--f=" because a leading minus sign would read as an option.
                argv = ["flow", "--f=" + ",".join(coeffs), "--op", op, "--order", str(order)]
                if field == "Qi":
                    argv += ["--field", "Qi"]
                reqs.append(
                    {
                        "kind": "flow",
                        "op": op,
                        "alpha": "1",
                        "order": order,
                        "field": field,
                        "f": coeffs,
                        "argv": argv,
                    }
                )

    def x0(field):
        q = rng.choice(X0_DENOMS)
        re = Fraction(rng.choice(X0_NUMERS), q)
        if field == "Qi":
            return _fmt((re, Fraction(rng.choice(X0_NUMERS), q)))
        return _fmt(re)

    maps = [("double", "Q", 1), ("shift", "Q", 1)]
    maps += [("poly:%s,%s" % (rng.choice(AFFINE_OFFSETS), rng.choice(AFFINE_SLOPES)), "Q", 1)
             for _ in range(2)]
    maps += [(name, "Q", 2) for name in ("logistic-2", "logistic-5/2", "logistic-4")]
    maps += [("quadratic-1/2", "Qi", 2)]
    maps += [("logistic:%s" % rng.choice(LOGISTIC_MUS), "Q", 2) for _ in range(2)]
    maps += [("quadratic:%s" % rng.choice(QUADRATIC_CS), "Q", 2) for _ in range(2)]
    maps += [("cubic", "Q", 3)]
    steps_for = {1: AFFINE_STEPS, 2: QUADRATIC_STEPS, 3: CUBIC_STEPS}
    for name, field, degree in maps:
        for steps in steps_for[degree]:
            start = x0(field)
            argv = ["solve", "--map", name, "--x0", start, "--steps", str(steps)]
            if field == "Qi":
                argv += ["--field", "Qi"]
            reqs.append(
                {
                    "kind": "solve",
                    "map": name,
                    "field": field,
                    "degree": degree,
                    "x0": start,
                    "steps": steps,
                    "argv": argv,
                }
            )
    return reqs
