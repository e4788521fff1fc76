"""Seeded inputs for the four workloads, and the checks on their answers.

Expected answers are known by construction (group identities, genus
theory, lattice arithmetic written here) or come from the brute-force
`k0av.oracle`; never from the code being measured.  Nothing here imports
the package at module level, so a worker can time the package import.

Inputs are laid out in rounds: every round holds the same mix of operation
kinds in a seeded order, so any prefix a time-bounded run gets through has
the same mix whatever the program's speed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from fractions import Fraction
from math import gcd

# Every timed loop runs at least inputs["floor"] operations, and in-process
# workloads read peak RSS right after that many: memory held by caches grows
# with the operations done, so a time-bounded count would make it follow the
# machine's speed.

# ---------------------------------------------------------------- certify

CERT_LEVELS = range(2, 25)
# Cyclic pairs at larger levels: prime-factor count and exponents set the
# recursion depth and the per-certificate cost tail.  One per round, the
# same for every seed: a tail pair's cost varies several-fold with the pair,
# and a seeded tail moved a run's derive work by 12% between seeds.
CERT_TAIL_LEVELS = (36, 48, 64, 96, 128, 210, 360, 720, 1000, 2310)
CERT_TAIL_SEED = 0
CERT_ROUNDS = 900
# Certificates of the first rounds are always derived, whatever the time
# budget, so that step and byte totals over them repeat exactly per seed.
CERT_FLOOR_ROUNDS = 10
CORRUPT_EVERY = 4
CORRUPTIONS = ("sign_flipped", "step_dropped", "basis_perturbed")


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def _hermite_basis(n: int, rows) -> tuple[int, int, int]:
    """(a, b, d) with [[a, b], [0, d]] (0 <= b < d) the Hermite basis of the
    lattice spanned by `rows` and n*Z^2, adding one row at a time."""
    a, b, d = n, 0, n
    for x, y in rows:
        g, s, t = _xgcd(a, x)
        # unimodular: (s, t) and (x/g, -a/g) have determinant 1
        a, b, w = g, s * b + t * y, (x // g) * b - (a // g) * y
        d = gcd(d, w)
        b %= d
    return a, b, d


def _order(n: int, basis) -> int:
    a, _, d = basis
    return n * n // (a * d)


def _cyclic_subgroup(rng: random.Random, n: int) -> tuple[int, int, int]:
    while True:
        x, y = rng.randrange(n), rng.randrange(n)
        if gcd(gcd(x, y), n) == 1:
            return _hermite_basis(n, [(x, y)])


def canonical_lattice(n: int, basis) -> dict:
    """The certificate encoding of the subgroup's lattice span(basis)/n."""
    a, b, d = basis
    g = gcd(gcd(n, a), gcd(b, d))
    return {"den": n // g, "basis": [[a // g, b // g], [0, d // g]]}


def make_certify(seed: int) -> dict:
    from k0av.oracle import exhaustive_subgroups

    rng, tail_rng = random.Random(seed), random.Random(CERT_TAIL_SEED)
    by_level = {}
    for n in CERT_LEVELS:
        subs = [(s.basis[0][0], s.basis[0][1], s.basis[1][1]) for s in exhaustive_subgroups(n)]
        by_level[n] = [s for s in subs if _order(n, s) == n]
    pairs = []
    for r in range(CERT_ROUNDS):
        block = []
        for n in CERT_LEVELS:
            c1, c2 = rng.sample(by_level[n], 2)
            block.append([n, c1, c2])
        n = CERT_TAIL_LEVELS[r % len(CERT_TAIL_LEVELS)]
        c1 = _cyclic_subgroup(tail_rng, n)
        c2 = c1
        while c2 == c1:
            c2 = _cyclic_subgroup(tail_rng, n)
        block.append([n, c1, c2])
        rng.shuffle(block)
        pairs.extend(block)
    return {"pairs": pairs, "floor": CERT_FLOOR_ROUNDS * (len(CERT_LEVELS) + 1)}


def corrupt(cert: dict, kind: str) -> dict:
    """A copy that validation must reject whatever the certificate holds:
    a flipped or dropped step leaves a nonzero relation vector in the
    telescoping sum, and doubling c1's first basis entry halves its
    subgroup order, so the two goal subgroups no longer have equal order."""
    bad = json.loads(json.dumps(cert))
    if kind == "sign_flipped":
        bad["steps"][0]["sign"] = -bad["steps"][0]["sign"]
    elif kind == "step_dropped":
        del bad["steps"][len(bad["steps"]) // 2]
    else:
        bad["c1"]["basis"][0][0] *= 2
    return bad


def check_certify(inputs: dict, out: dict) -> list[tuple[int, str, str]]:
    """`out`: certs (JSON text per derived pair, or the error it raised) and
    checks ([cert index, corruption kind or None, accepted or the error] per
    check op).  Returns (op index, "wrong", why) per failure;
    derive ops are numbered first, then check ops.  Every input is valid:
    a raise other than the package's K0Error rejection is a wrong answer."""
    failures = []
    pairs = inputs["pairs"]
    certs = out["certs"]
    for i, text in enumerate(certs):
        n, c1, c2 = pairs[i % len(pairs)]
        if not text.startswith("{"):
            failures.append((i, "wrong", f"derive at level {n} raised {text}"))
            continue
        cert = json.loads(text)
        want = {
            "format": "k0-derivation/1", "level": n, "degree": n,
            "c1": canonical_lattice(n, c1), "c2": canonical_lattice(n, c2),
        }
        if {k: cert.get(k) for k in want} != want or not cert.get("steps"):
            failures.append((i, "wrong", f"certificate at level {n} does not state the input pair"))
    for j, (index, kind, accepted) in enumerate(out["checks"]):
        what = f"check of certificate {index} ({kind or 'original'})"
        if isinstance(accepted, str):
            failures.append((len(certs) + j, "wrong", f"{what} raised {accepted}"))
        elif accepted != (kind is None):
            failures.append((len(certs) + j, "wrong", f"{what}: accepted={accepted}"))
    return failures


# ------------------------------------------------------------ degree_query

QUERY_CONTEXTS = (
    {"case": "end_z", "g": 1},
    {"case": "end_z", "g": 2},
    {"case": "end_z", "g": 3},
    {"case": "cm", "disc": -20},
    {"case": "cm", "disc": -1671},
    {"case": "cm", "disc": -5291},
    {"case": "supersingular", "p": 101},
    {"case": "ordinary_cm", "disc": -84, "p": 5},
    {"case": "char_p_end_z", "p": 7},
)
QUERY_ROUNDS = 600
QUERY_FLOOR = 2000
# The shares below are design choices, not measured usage.  The factoring
# tail is one query per round (about 2% of queries, in a rotating context)
# on a uniform integer up to 10^12.  Trial division runs to a number's
# second-largest prime factor, so its cost on such integers is heavy-tailed
# (p50 0.1 ms, p98 9 ms, max 28 ms): drawn per seed, a run's tail would hang
# on a few draws.  So the tail integers are drawn once, from TAIL_SEED, and
# are the same for every seed, as certify's tail pairs are.  Other operands:
# 20% repeat from a per-seed pool of 32 integers up to 10^6 (factor-cache
# reuse); the rest are fresh integers up to 10^6.  A fifth of operands get a
# denominator up to 10^3.  The second operand of a product is 97-smooth, so a
# product is no harder to factor than its first operand.
TAIL_MAX = 10**12
TAIL_SEED = 0
POOL_SHARE = 0.20
POOL_SIZE = 32
FRACTION_SHARE = 0.20


def _is_prime(n: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5, 7: exact below 3.2 * 10^9."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


SMALL_PRIMES = [q for q in range(3, 300) if _is_prime(q)]
SMOOTH_PRIMES = [2] + [q for q in SMALL_PRIMES if q < 100]


def _prime_factors(n: int) -> list[int]:
    from k0av.oracle import prime_exponents

    return sorted(prime_exponents(n))


def _legendre(a: int, q: int) -> int:
    r = pow(a % q, (q - 1) // 2, q)
    return -1 if r == q - 1 else r


def _genus_trivial(d: int, ell: int) -> bool:
    """For an odd prime ell not dividing the fundamental discriminant d:
    ell is a norm from Q(sqrt d), i.e. its degree class is trivial, iff every
    genus character of d is +1 at ell (Gauss: the principal genus is C^2)."""
    m = -d
    chars = []
    if m % 4 == 0:
        m //= 4
        chi4 = 1 if ell % 4 == 1 else -1
        chi8 = 1 if ell % 8 in (1, 7) else -1
        if m % 2 == 0:
            m //= 2
            # d/4 = -2 * odd: the 2-part is 8 or -8 by the sign of the odd part
            chars.append(chi8 if (-m) % 4 == 1 else chi4 * chi8)
        else:
            chars.append(chi4)
    for q in _prime_factors(m):
        chars.append(_legendre(ell, q))
    return all(c == 1 for c in chars)


def _known_primes(spec: dict) -> list[tuple[int, bool]]:
    """Primes with a triviality known by construction, as (prime, trivial)."""
    case = spec["case"]
    if case == "end_z":
        return [(q, False) for q in SMALL_PRIMES]
    if case == "supersingular":
        return [(q, True) for q in SMALL_PRIMES]
    if case == "char_p_end_z":
        return [(q, False) for q in SMALL_PRIMES if q != spec["p"]]
    from k0av.oracle import check_witness, norm_witness_search

    d = spec["disc"]
    out = []
    for q in SMALL_PRIMES:
        if d % q == 0:
            continue
        trivial = _genus_trivial(d, q)
        witness = norm_witness_search(q, d, t_bound=12, xy_bound=2000)
        if witness is not None and not trivial:
            raise AssertionError(f"genus theory says {q} is no norm for {d}, oracle found one")
        if trivial and (witness is None or not check_witness(q, d, witness)):
            continue  # not confirmed by the oracle: leave it out
        out.append((q, trivial))
    return out


def _render(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _strip(n: int, p: int | None) -> int:
    while p and n % p == 0:
        n //= p
    return n


def make_degree_query(seed: int) -> dict:
    rng, tail_rng = random.Random(seed), random.Random(TAIL_SEED)
    pool = [rng.randint(2, 10**6) for _ in range(POOL_SIZE)]

    def integer() -> int:
        if rng.random() < POOL_SHARE:
            return rng.choice(pool)
        return rng.randint(2, 10**6)

    def smooth() -> int:
        v = 1
        for _ in range(rng.randint(1, 4)):
            v *= rng.choice(SMOOTH_PRIMES)
        return v

    def degree(p: int | None, smooth_only: bool = False) -> Fraction:
        num = _strip(smooth() if smooth_only else integer(), p)
        den = _strip(rng.randint(2, 1000), p) if rng.random() < FRACTION_SHARE else 1
        return Fraction(num, den)

    known = [_known_primes(spec) for spec in QUERY_CONTEXTS]
    queries = []
    for r in range(QUERY_ROUNDS):
        block = []
        ci = r % len(QUERY_CONTEXTS)
        p = QUERY_CONTEXTS[ci].get("p") if QUERY_CONTEXTS[ci]["case"] == "char_p_end_z" else None
        ell, trivial = rng.choice(known[ci])
        big = _strip(tail_rng.randint(2, TAIL_MAX), p)
        block.append([ci, f"[1; {big}] + [1; {ell}]", f"[2; {big}]", trivial])
        for ci, spec in enumerate(QUERY_CONTEXTS):
            p = spec.get("p") if spec["case"] == "char_p_end_z" else None
            x, y = degree(p), degree(p, smooth_only=True)
            block.append([ci, f"[1; {_render(x)}] + [2; {_render(y)}]", f"[3; {_render(x * y)}]", True])
            x, y = degree(p), degree(p, smooth_only=True)
            block.append([ci, f"dual([1; {_render(x)}] + [1; {_render(y)}])", f"[2; {_render(1 / (x * y))}]", True])
            a = _strip(rng.randint(2, 1000), p)
            block.append([ci, f"3*[1; {a}]", f"[3; {a**3}]", True])
            for _ in range(2):
                ell, trivial = rng.choice(known[ci])
                x = degree(p)
                block.append([ci, f"[1; {_render(x)}] + [1; {ell}]", f"[2; {_render(x)}]", trivial])
            if spec["case"] == "end_z":
                ell, _ = rng.choice(known[ci])
                block.append([ci, f"[1; {ell}]", f"dual([1; {ell}])", spec["g"] == 1])
            if spec["case"] == "char_p_end_z":
                zp, mup = rng.randint(0, 5), rng.randint(0, 5)
                c, c2 = _strip(integer(), p), _strip(smooth(), p)
                block.append([ci, f"[1; {{zp:{zp}, mup:{mup}, coprime:{c}}}]",
                              f"dual([1; {{zp:{mup}, mup:{zp}, coprime:{c}}}])", True])
                block.append([ci, f"[1; {{zp:{zp}, coprime:{c}}}] + [1; {{mup:{mup}, coprime:{c2}}}]",
                              f"[2; {{zp:{zp}, mup:{mup}, coprime:{c * c2}}}]", True])
                block.append([ci, f"[1; {{zp:{zp}, coprime:{c}}}]", f"[1; {{zp:{zp + 1}, coprime:{c}}}]", False])
                block.append([ci, f"[1; {c}]", f"[1; {{coprime:{c}}}]", True])
        rng.shuffle(block)
        queries.extend(block)
    return {"contexts": list(QUERY_CONTEXTS), "queries": queries, "floor": QUERY_FLOOR}


def check_degree_query(inputs: dict, out: dict) -> list[tuple[int, str, str]]:
    """`out`: answers (True/False per query, or the error it raised).  Every
    query is valid, so a raise is a wrong answer."""
    failures = []
    queries = inputs["queries"]
    for i, got in enumerate(out["answers"]):
        ci, left, right, want = queries[i % len(queries)]
        if isinstance(got, str):
            failures.append((i, "wrong", f"{QUERY_CONTEXTS[ci]}: {left} == {right} raised {got}"))
        elif got != want:
            failures.append((i, "wrong", f"{QUERY_CONTEXTS[ci]}: {left} == {right} gave {got}, expected {want}"))
    return failures


# -------------------------------------------------------------- classgroup

SMALL_BAND = 10**4
LARGE_BAND = (950_000, 1_050_000)
LARGE_EVERY = 6  # one discriminant of the 10^6 band after every six small ones
CLASSGROUP_FLOOR = 40 * (LARGE_EVERY + 1)
ORACLE_SAMPLE = 40
ORACLE_SAMPLE_LARGE = 3
SQUARE_SAMPLE = 30
SQUARE_SAMPLE_MAX = 3000


def _squarefree(n: int) -> bool:
    from k0av.oracle import prime_exponents

    return all(e == 1 for e in prime_exponents(n).values())


def is_fundamental(d: int) -> bool:
    if d >= 0:
        return False
    if d % 4 == 1:
        return _squarefree(-d)
    if d % 4 == 0:
        m = -d // 4
        return m % 4 in (1, 2) and _squarefree(m)
    return False


def make_classgroup(seed: int) -> dict:
    rng = random.Random(seed)
    small = [d for d in range(-3, -SMALL_BAND - 1, -1) if is_fundamental(d)]
    rng.shuffle(small)
    n_large = -(-len(small) // LARGE_EVERY)
    large: list[int] = []
    seen = set()
    while len(large) < n_large:
        d = -rng.randint(*LARGE_BAND)
        if d not in seen and is_fundamental(d):
            seen.add(d)
            large.append(d)
    discs = []
    for i, d in enumerate(small):
        discs.append(d)
        if i % LARGE_EVERY == LARGE_EVERY - 1:
            discs.append(large[i // LARGE_EVERY])
    return {"discs": discs, "seed": seed, "floor": CLASSGROUP_FLOOR}


def expected_structure(d: int) -> dict:
    """Genus theory: C/C^2 has order 2^(omega(d) - 1)."""
    t = len(_prime_factors(-d)) - 1
    factors = []
    if t > 0:
        factors.append({"modulus": 2, "count": t, "label": "class group mod squares"})
    factors.append({"modulus": 2, "count": None, "label": "per inert prime"})
    return {"free_rank": 0, "factors": factors}


def check_classgroup(inputs: dict, out: dict) -> list[tuple[int, str, str]]:
    """`out`: results ([forms, squares, structure] per discriminant, or the
    error it raised).  Every structure is checked against genus theory; a
    seeded sample of class groups against the oracle's enumeration and of
    square subgroups against its ideal squaring.  Every discriminant is
    valid, so a raise is a wrong answer."""
    from k0av.oracle import enumerate_reduced_forms, square_class_triples

    failures = []
    done = []
    for i, res in enumerate(out["results"]):
        d = inputs["discs"][i]
        if isinstance(res, str):
            failures.append((i, "wrong", f"classgroup {d} raised {res}"))
            continue
        forms, squares, structure = res
        got = {"free_rank": structure["free_rank"], "factors": structure["factors"]}
        if got != expected_structure(d):
            failures.append((i, "wrong", f"classgroup {d}: structure {got}"))
        if len(forms) != len(squares) * 2 ** (len(_prime_factors(-d)) - 1):
            failures.append((i, "wrong", f"classgroup {d}: |C| / |C^2| is not 2^(omega - 1)"))
        done.append((i, d, forms, squares))
    rng = random.Random(inputs["seed"] + 1)
    small = [r for r in done if -r[1] <= SMALL_BAND]
    large = [r for r in done if -r[1] > SMALL_BAND]
    sample = rng.sample(small, min(ORACLE_SAMPLE, len(small)))
    sample += rng.sample(large, min(ORACLE_SAMPLE_LARGE, len(large)))
    for i, d, forms, _ in sample:
        if forms != [list(f.triple()) for f in enumerate_reduced_forms(d)]:
            failures.append((i, "wrong", f"classgroup {d}: forms differ from the oracle's enumeration"))
    tiny = [r for r in done if -r[1] <= SQUARE_SAMPLE_MAX]
    for i, d, _, squares in rng.sample(tiny, min(SQUARE_SAMPLE, len(tiny))):
        if {tuple(s) for s in squares} != square_class_triples(d):
            failures.append((i, "wrong", f"classgroup {d}: square subgroup differs from the oracle's"))
    return failures


# --------------------------------------------------------------------- cli

CLI_ROUNDS = 400
CLI_CONTEXTS = {
    "end1.json": {"case": "end_z", "g": 1},
    "end2.json": {"case": "end_z", "g": 2},
    "end3.json": {"case": "end_z", "g": 3},
    "cm20.json": {"case": "cm", "disc": -20},
    "cm1671.json": {"case": "cm", "disc": -1671},
    "cm5291.json": {"case": "cm", "disc": -5291},
    "ss101.json": {"case": "supersingular", "p": 101},
    "ord84.json": {"case": "ordinary_cm", "disc": -84, "p": 5},
    "charp7.json": {"case": "char_p_end_z", "p": 7},
    "bad_case.json": {"case": "hilbert", "disc": -20},
}
# Inputs the CLI must refuse with exit 2 and an `error:` line.  The first
# and fourth are known to exit 1 with a traceback at the time of writing;
# they stay in the mix and count as failures until the CLI is fixed.
CLI_ERRORS = (
    ["dist", "--ctx", "cm20.json", "--degree", "0"],
    ["classgroup", "--disc", "-21"],
    ["eval", "--ctx", "cm20.json", "[1; 0]"],
    ["dist", "--ctx", "cm20.json", "--degree", "-3"],
    ["structure", "--ctx", "bad_case.json"],
    ["derive", "--n", "6", "--c1", "1,0,0,6", "--c2", "1,0,0,1"],
    ["check", "--cert", "missing.json"],
    ["eval", "--ctx", "end1.json", "[1; {zp:1}]"],
)


def make_cli(seed: int) -> dict:
    rng = random.Random(seed)
    from k0av.oracle import exhaustive_subgroups

    query = make_degree_query(seed)["queries"]
    by_level = {}
    for n in range(2, 13):
        subs = [(s.basis[0][0], s.basis[0][1], s.basis[1][1]) for s in exhaustive_subgroups(n)]
        by_level[n] = [s for s in subs if _order(n, s) == n]
    small_discs = [d for d in range(-3, -2001, -1) if is_fundamental(d)]
    structure_ctx = [k for k in CLI_CONTEXTS if k != "bad_case.json"]
    calls = []
    for r in range(CLI_ROUNDS):
        g = rng.randint(1, 3)
        q = Fraction(rng.randint(1, 10**6), rng.randint(1, 1000))
        calls.append({"kind": "dist", "argv": ["dist", "--json", "--ctx", f"end{g}.json", "--degree", _render(q)],
                      "expect": {"end_z": [g, _render(q)]}})
        zp, mup, c = rng.randint(0, 4), rng.randint(0, 4), _strip(rng.randint(1, 10**6), 7)
        calls.append({"kind": "dist", "argv": ["dist", "--json", "--ctx", "charp7.json", "--kernel",
                                               f"{{zp:{zp}, mup:{mup}, coprime:{c}}}"],
                      "expect": {"kernel": [zp - mup, c]}})
        ci, left, right, want = rng.choice(query)
        ctx = next(k for k, v in CLI_CONTEXTS.items() if v == QUERY_CONTEXTS[ci])
        calls.append({"kind": "eval", "argv": ["eval", "--json", "--ctx", ctx, left, "--equals", right],
                      "expect": {"equal": want}})
        d = rng.choice(small_discs)
        calls.append({"kind": "classgroup", "argv": ["classgroup", "--json", "--disc", str(d)],
                      "expect": {"classgroup": d}})
        ctx = structure_ctx[r % len(structure_ctx)]
        calls.append({"kind": "structure", "argv": ["structure", "--json", "--ctx", ctx],
                      "expect": {"structure": CLI_CONTEXTS[ctx]}})
        n = rng.randint(2, 12)
        c1, c2 = rng.sample(by_level[n], 2)
        out = f"cert{r}.json"
        calls.append({"kind": "derive", "argv": ["derive", "--json", "--n", str(n),
                                                 "--c1", f"{c1[0]},{c1[1]},0,{c1[2]}",
                                                 "--c2", f"{c2[0]},{c2[1]},0,{c2[2]}", "--out", out],
                      "expect": {"derive": [n, c1, c2, out]}})
        calls.append({"kind": "check", "argv": ["check", "--json", "--cert", out], "expect": {"valid": True}})
        kind = CORRUPTIONS[r % len(CORRUPTIONS)]
        calls.append({"kind": "check", "argv": ["check", "--json", "--cert", f"bad{r}.json"],
                      "expect": {"valid": False}, "corrupt": [out, f"bad{r}.json", kind]})
        for j in range(2):
            argv = CLI_ERRORS[(2 * r + j) % len(CLI_ERRORS)]
            calls.append({"kind": "error", "argv": list(argv), "expect": {"error": True}})
    # Four rounds always run: every subcommand is seen even in a short
    # traced run, and 40 calls put ten beyond the p75 a run reports.
    return {"calls": calls, "files": CLI_CONTEXTS, "floor": 4 * (len(calls) // CLI_ROUNDS)}


def _cli_expected_class(expect: dict) -> dict:
    from k0av.oracle import prime_exponents

    if "end_z" in expect:
        g, text = expect["end_z"]
        q = Fraction(text)
        exps = dict(prime_exponents(q.numerator))
        for p, e in prime_exponents(q.denominator).items():
            exps[p] = exps.get(p, 0) - e
        return {"case": "end_z", "modulus": 2 * g,
                "exponents": [[p, e % (2 * g)] for p, e in sorted(exps.items()) if e % (2 * g)]}
    p_degree, c = expect["kernel"]
    odd = [p for p, e in sorted(prime_exponents(c).items()) if e % 2] if c > 1 else []
    return {"case": "char_p_end_z", "p": 7, "p_degree": p_degree, "odd_primes": odd}


def _structure_of(spec: dict) -> dict:
    case = spec["case"]
    if case == "end_z":
        return {"free_rank": 0, "factors": [{"modulus": 2 * spec["g"], "count": None, "label": "per prime"}]}
    if case == "supersingular":
        return {"free_rank": 0, "factors": []}
    if case == "char_p_end_z":
        return {"free_rank": 1, "factors": [{"modulus": 2, "count": None, "label": f"per prime != {spec['p']}"}]}
    return expected_structure(spec["disc"])


def check_cli_call(call: dict, code: int, stdout: str, stderr: str, files: dict) -> tuple[str, str] | None:
    """None when the call kept the CLI contract and answered right; else
    ("wrong", why) when a valid input got a wrong answer, a traceback or an
    exit code other than 0 or 1, or ("failed", why) when a refused input did
    not exit 2 with an `error:` line and no traceback."""
    expect = call["expect"]
    if "error" in expect:
        if code != 2 or "Traceback" in stderr or not any(
            line.startswith("error:") for line in stderr.splitlines()
        ):
            return ("failed", f"exit {code}, stderr {stderr.strip().splitlines()[-1:]!r}")
        return None
    if "Traceback" in stderr or code not in (0, 1):
        return ("wrong", f"exit {code} on a valid input, stderr {stderr.strip().splitlines()[-1:]!r}")
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return ("wrong", f"exit {code} with non-JSON output")
    if "equal" in expect:
        want = expect["equal"]
        if code != (0 if want else 1) or payload.get("equal") is not want:
            return ("wrong", f"equal={payload.get('equal')} exit {code}, expected {want}")
        return None
    if "valid" in expect:
        want = expect["valid"]
        if code != (0 if want else 1) or payload.get("valid") is not want:
            return ("wrong", f"valid={payload.get('valid')} exit {code}, expected {want}")
        return None
    if code != 0:
        return ("wrong", f"exit {code} on a valid input")
    if "end_z" in expect or "kernel" in expect:
        if payload.get("class") != _cli_expected_class(expect):
            return ("wrong", f"class {payload.get('class')}")
    elif "classgroup" in expect:
        from k0av.oracle import enumerate_reduced_forms, square_class_triples

        d = expect["classgroup"]
        forms = [list(f.triple()) for f in enumerate_reduced_forms(d)]
        if payload.get("forms") != forms or {tuple(s) for s in payload.get("square_subgroup", [])} != square_class_triples(d):
            return ("wrong", f"class group of {d} differs from the oracle's")
    elif "structure" in expect:
        st = payload.get("structure", {})
        if {"free_rank": st.get("free_rank"), "factors": st.get("factors")} != _structure_of(expect["structure"]):
            return ("wrong", f"structure {st}")
    elif "derive" in expect:
        n, c1, c2, out = expect["derive"]
        cert = files.get(out)
        want = {"format": "k0-derivation/1", "level": n, "degree": n,
                "c1": canonical_lattice(n, c1), "c2": canonical_lattice(n, c2)}
        if cert is None or {k: cert.get(k) for k in want} != want or not payload.get("ok"):
            return ("wrong", "certificate does not state the input pair")
    return None


# ------------------------------------------------------------------ common


def src_env() -> dict:
    """The environment with the checkout's src/ first on PYTHONPATH."""
    src = os.path.abspath("src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)

MAKERS = {
    "certify": make_certify,
    "degree_query": make_degree_query,
    "classgroup": make_classgroup,
    "cli": make_cli,
}


def digest(items: list[str]) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(item.encode() + b"\n")
    return h.hexdigest()
