"""Seeded inputs, exact oracles and output digests for the four workloads.

`generate(name, seed, workdir)` draws every input from `random.Random` seeded
by (name, seed) and writes `inputs.json` (plus scan catalogs) to `workdir`.
The program only ever sees the generated CLI arguments and catalog files.

Coefficients are drawn here, never through the program's own samplers, so a
later change to `random_curve` or `Field.random` cannot change the inputs of a
seed.  The program is used only to accept or reject a draw (squarefree,
ordinary, dimension of the flat forms), and those answers are mathematical
facts that any correct version gives alike.

Each input carries `expect`, facts an exact oracle fixed at generation time;
`check` compares a call's output with them.  `digest` is the pinned reference:
the output with `timing` dropped at every depth.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import random
from pathlib import Path

# scan-smallp: each call scans one catalog of SCAN_PER_FIELD curves over each
# field in SCAN_PRIMES; a pass is SCAN_CATALOGS catalogs.  A curve with a line
# of rational flat forms costs about ten times one without (lemma checks run
# per nonzero form), so a pass holds each dimension in its exact share among
# all squarefree monic quintics over the field (`flat_dimension_shares`), and
# every catalog gets the same number of each, give or take one.
SCAN_PRIMES = (5, 7)
SCAN_PER_FIELD = 8
SCAN_CATALOGS = 6

# verify-midp: p = 13 outnumbers p = 11, so the median call is a p = 13 call
# rather than a mean of the two sizes.  The cost of a p = 13 call varies with
# the curve (2.7 s to 4.4 s on one machine), so a pass holds seven of them: the
# median of a seed's calls is then a median over curves, not a draw of one.
VERIFY_PRIMES = (13, 11, 13, 13, 13, 13, 13, 11, 13)

# curve-largep: one curve per entry.  The cost of a call jumps between primes
# (p = 503 takes about 0.8 s, p = 601 about 2 s, as the bits of (p-1)/2 fall),
# so with one curve per prime the median call would be the mean of the slowest
# call at one prime and the fastest at the next: two single calls.  Five of the
# eleven curves are at p = 503, the middle cost, so the median is the median of
# the p = 503 calls; they alternate with the others to sample the whole pass.
LARGE_PRIMES = (503, 1009, 503, 211, 503, 809, 503, 307, 503, 601, 401)

# torsion-ext: |F| between 2.8e4 and 3.9e5; TORSION_PER_FIELD curves each.
EXT_FIELDS = ((3, 10), (5, 8), (7, 6), (13, 4), (31, 3))
TORSION_PER_FIELD = 2


def _quintic(rng, p):
    return [rng.randrange(p) for _ in range(5)] + [1]


def _squarefree_quintic(rng, field):
    """Rejection-sample monic quintics until `make_curve` accepts one."""
    from g2frob.errors import NotSquarefree
    from g2frob.funcfield import make_curve

    while True:
        f = _quintic(rng, field.char)
        try:
            return f, make_curve(field, [field.from_int(c) for c in f])
        except NotSquarefree:
            continue


def _fstr(f):
    return ",".join(str(c) for c in f)


@functools.lru_cache(maxsize=None)
def flat_dimension_shares(p):
    """{dim: share} of the F_p-dimension of rational flat forms over all
    squarefree monic quintics over F_p, counted exhaustively (p^5 draws)."""
    from g2frob.errors import NotSquarefree
    from g2frob.exactnum import make_field
    from g2frob.funcfield import make_curve

    F, counts = make_field(p), {}
    for coeffs in itertools.product(range(p), repeat=5):
        f = list(coeffs) + [1]
        try:
            make_curve(F, [F.from_int(c) for c in f])
        except NotSquarefree:
            continue
        dim = flat_dimension(cartier_manin_oracle(f, p), p)
        counts[dim] = counts.get(dim, 0) + 1
    total = sum(counts.values())
    return {dim: n / total for dim, n in sorted(counts.items())}


def _apportion(shares, n):
    """n slots split by largest remainder; the result is sorted by dimension,
    highest first."""
    quota = {d: int(n * s) for d, s in shares.items()}
    rest = sorted(shares, key=lambda d: (-(n * shares[d] - quota[d]), d))
    for d in rest[:n - sum(quota.values())]:
        quota[d] += 1
    return [d for d in sorted(quota, reverse=True) for _ in range(quota[d])]


def _gen_scan(rng, workdir):
    from g2frob.exactnum import make_field

    # dims[i] lists the flat dimension of every curve catalog i draws, per field
    dims = [[] for _ in range(SCAN_CATALOGS)]
    for p in SCAN_PRIMES:
        pass_dims = _apportion(flat_dimension_shares(p), SCAN_CATALOGS * SCAN_PER_FIELD)
        for i in range(SCAN_CATALOGS):
            dims[i].append((p, pass_dims[i::SCAN_CATALOGS]))

    inputs, builds = [], []
    for i in range(SCAN_CATALOGS):
        catalog = []
        for p, wanted in dims[i]:
            F = make_field(p)
            for dim in wanted:
                while True:
                    f, _ = _squarefree_quintic(rng, F)
                    if flat_dimension(cartier_manin_oracle(f, p), p) == dim:
                        break
                catalog.append({"p": p, "f": f, "dim": dim})
                builds.append({"p": p, "k": 1, "f": f})
        rng.shuffle(catalog)
        path = workdir / f"catalog{i}.json"
        path.write_text(json.dumps([{"p": c["p"], "f": c["f"]} for c in catalog]),
                        encoding="utf-8")
        inputs.append({
            "argv": ["scan", "--catalog", str(path), "--workers", "1"],
            "curves": len(catalog),
            "expect": {"primes": [c["p"] for c in catalog], "dims": [c["dim"] for c in catalog]},
        })
    return inputs, builds


class _SpanTooLarge(Exception):
    pass


@contextlib.contextmanager
def _span_guard(limit):
    """Refuse, inside `verify`, to enumerate a span of more than `limit`
    vectors.  `enumerate_span_mod_p` has no resource guard of its own, and a
    rigidity kernel of dimension d lists p^d triples."""
    import g2frob.verify as verify

    original = getattr(verify, "enumerate_span_mod_p", None)

    def guarded(basis, ncols, p):
        if p ** len(basis) > limit:
            raise _SpanTooLarge
        return original(basis, ncols, p)

    if original is not None:
        verify.enumerate_span_mod_p = guarded
    try:
        yield
    finally:
        if original is not None:
            verify.enumerate_span_mod_p = original


def _gen_verify(rng, workdir):
    """Ordinary curves whose rational flat forms make one F_p-line through
    (a + b x) dx/y with a and b both nonzero, and whose split connection is
    rigid (the linear kernel is the two-dimensional trivial family).  That
    fixes the amount of work: a plane of forms means p + 1 lines and p^2 - 1
    lemma pairs, a line with a = 0 or b = 0 is two to four times cheaper, and
    a kernel of dimension d lists p^d triples (13^4 of them doubled the peak
    memory of a call), so any of these would turn a median into a draw."""
    from g2frob.cartier import cartier_manin, enumerate_p_torsion
    from g2frob.exactnum import make_field
    from g2frob.verify import rigidity_scan

    inputs, builds = [], []
    for p in VERIFY_PRIMES:
        F = make_field(p)
        while True:
            f, curve = _squarefree_quintic(rng, F)
            if not cartier_manin(curve).is_invertible():
                continue
            ts = enumerate_p_torsion(curve, "semilinear")
            if len(ts) != p or any(F.is_zero(c) for c in ts.nonzero(F)[0]):
                continue
            with _span_guard(p * p):
                try:
                    _, report = rigidity_scan(curve, ts.nonzero(F)[0], mode="linear")
                except _SpanTooLarge:
                    continue
            if report.status == "holds":
                break
        builds.append({"p": p, "k": 1, "f": f})
        # (a, b) is parallel to neither basis form, so no lemma is
        # inapplicable; the rigidity status is the one the search accepted
        inputs.append({
            "argv": ["verify", "--p", str(p), "--f", _fstr(f), "--rigidity", "linear"],
            "curves": 1,
            "expect": {"torsionCount": p, "lemmas": 4 * (p - 1), "rigidity": ["holds"]},
        })
    return inputs, builds


def _gen_curve(rng, workdir):
    from g2frob.exactnum import make_field

    inputs, builds = [], []
    for p in LARGE_PRIMES:
        f, _ = _squarefree_quintic(rng, make_field(p))
        A = cartier_manin_oracle(f, p)
        det = (A[0][0] * A[1][1] - A[0][1] * A[1][0]) % p
        builds.append({"p": p, "k": 1, "f": f})
        inputs.append({
            "argv": ["curve", "--p", str(p), "--f", _fstr(f)],
            "curves": 1,
            "expect": {"A": A, "ordinary": det != 0, "pRank": _p_rank_prime(A, p)},
        })
    return inputs, builds


def _gen_torsion(rng, workdir):
    from g2frob.exactnum import make_field

    inputs, builds = [], []
    for p, k in EXT_FIELDS:
        Fp = make_field(p)
        frob = make_field(p, k).frobenius_matrix()
        for _ in range(TORSION_PER_FIELD):
            # squarefree over F_p is squarefree over F_{p^k}: gcd(f, f') is
            # computed over F_p either way
            f, _ = _squarefree_quintic(rng, Fp)
            dim = flat_dimension(cartier_manin_oracle(f, p), p, frob)
            builds.append({"p": p, "k": k, "f": f})
            inputs.append({
                "argv": ["torsion", "--p", str(p), "--ext-k", str(k), "--f", _fstr(f),
                         "--method", "semilinear"],
                "curves": 1,
                "expect": {"torsionDim": dim, "torsionCount": p ** dim, "isSubspace": True},
            })
    return inputs, builds


GENERATORS = {
    "scan-smallp": _gen_scan,
    "verify-midp": _gen_verify,
    "curve-largep": _gen_curve,
    "torsion-ext": _gen_torsion,
}


def generate(name: str, seed: int, workdir: Path) -> Path:
    """Write the inputs of (name, seed) under workdir; return inputs.json."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    inputs, builds = GENERATORS[name](rng, workdir)
    path = workdir / "inputs.json"
    path.write_text(json.dumps({
        "workload": name, "seed": seed, "inputs": inputs, "builds": builds,
    }), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def _mul_mod(a, b, p):
    """Product of two F_p coefficient lists by Kronecker substitution."""
    width = (min(len(a), len(b)) * (p - 1) ** 2).bit_length() // 8 + 1
    pack = lambda c: int.from_bytes(  # noqa: E731
        b"".join(x.to_bytes(width, "little") for x in c), "little")
    n = len(a) + len(b) - 1
    blob = (pack(a) * pack(b)).to_bytes(n * width, "little")
    return [int.from_bytes(blob[i * width:(i + 1) * width], "little") % p for i in range(n)]


def cartier_manin_oracle(f, p):
    """A[i][j] = coefficient of x^(i p - j) in f^((p-1)/2), i, j in {1, 2}.

    Independent of the program: big-integer multiplication instead of
    schoolbook `poly.mul` over a field context."""
    n, acc, base = (p - 1) // 2, [1], list(f)
    while n:
        if n & 1:
            acc = _mul_mod(acc, base, p)
        n >>= 1
        if n:
            base = _mul_mod(base, base, p)
    coef = lambda e: acc[e] if e < len(acc) else 0  # noqa: E731
    return [[coef(i * p - j) for j in (1, 2)] for i in (1, 2)]


def _p_rank_prime(A, p):
    """Stable rank of A over F_p: 2 if invertible, 0 if nilpotent, else 1."""
    if (A[0][0] * A[1][1] - A[0][1] * A[1][0]) % p:
        return 2
    square = [[sum(A[i][m] * A[m][j] for m in range(2)) % p for j in range(2)]
              for i in range(2)]
    return 0 if not any(any(row) for row in square) else 1


def _rank_mod_p(rows, p):
    rows, rank = [list(r) for r in rows], 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                c = rows[i][col]
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def flat_dimension(A, p, frob=((1,),)):
    """F_p-dimension of {v in F_{p^k}^2 : A v = v^(p)}, the rational flat
    forms, with A from `cartier_manin_oracle`.  `frob` is the F_p-matrix of
    x -> x^p on F_{p^k} (column i is t^(i p)); the default is F_p itself.
    Row reduction here, not the program's kernel routine."""
    k, rows = len(frob), []
    for r in range(2):
        for comp in range(k):
            row = [0] * (2 * k)
            for s in range(2):
                row[s * k + comp] += A[r][s]
            for i in range(k):
                row[r * k + i] -= frob[comp][i]
            rows.append([x % p for x in row])
    return 2 * k - _rank_mod_p(rows, p)


def _lemma_consistent(report):
    """The two sums may vanish on a special curve, so a two-sums report may be
    violated, but only when its witness S1 or S2 is 0.  The off-diagonal
    report compares the engine's p-curvature with those same two sums, an
    identity, so it always holds."""
    if report["lemmaId"] == "offdiag-closed-forms":
        return report["status"] == "holds"
    w = report["witness"]
    vanishes = any(not any(w[s]["A"]) and not any(w[s]["B"]) for s in ("S1", "S2"))
    return report["status"] == ("violated" if vanishes else "holds")


def check(name: str, lines, expect) -> bool:
    """True iff a call's parsed output lines agree with its oracle facts and
    every oracle flag the program prints is true."""
    if name == "scan-smallp":
        rows, aggregate = lines[:-1], lines[-1]["aggregate"]
        return (
            len(rows) == len(expect["dims"]) == aggregate["curves"]
            and [r["index"] for r in rows] == list(range(len(rows)))
            and [r["torsionDim"] for r in rows] == expect["dims"]
            and [r["torsionCount"] for r in rows] == [
                p ** d for p, d in zip(expect["primes"], expect["dims"])]
            and all(r["agree"] and r["isSubspace"] for r in rows)
            and aggregate["torsionMatchesOrdinarity"]
        )
    (out,) = lines
    if name == "verify-midp":
        return (
            out["torsionCount"] == expect["torsionCount"]
            and len(out["lemmas"]) == expect["lemmas"]
            and all(_lemma_consistent(r) for r in out["lemmas"])
            and [r["status"] for r in out["rigidity"]] == expect["rigidity"]
            and out["violations"] == sum(
                r["status"] == "violated" for r in out["lemmas"] + out["rigidity"])
        )
    return all(out[key] == value for key, value in expect.items())


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------

def strip_timing(obj):
    """Drop every `timing` key at every depth."""
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k != "timing"}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def digest(lines) -> str:
    h = hashlib.sha256()
    for obj in lines:
        h.update(json.dumps(strip_timing(obj), sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def combined_digest(digests) -> str:
    """The pinned reference of one (workload, seed): its inputs' digests in order."""
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()[:32]
