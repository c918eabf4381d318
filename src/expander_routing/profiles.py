"""Constants profiles: every threshold the oracle and router run on.

All rational thresholds are exact `Fraction`s and every derived cap is
integer arithmetic, so profiles are reproducible bit for bit. Two entry
points exist: `derive_profile` computes the canonical formulas (and, in
strict mode, enforces the regime they are proved for), while
`desk_profile` produces a relaxed profile tuned to keep the machinery
live on desk-scale random graphs, where the canonical constants
degenerate (see the field comments).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CallerError, FormatError
from .graph import read_ascii


def ceil_log2(n: int) -> int:
    if n < 1:
        raise CallerError("ceil_log2 needs n >= 1")
    return (n - 1).bit_length()


@dataclass(frozen=True)
class OracleProfile:
    """The four thresholds an edge oracle runs on; `canonical_oracle_profile` sets them from d'."""

    out_cap: int             # hard out-degree cap in H u B; canonical floor(d'/2)
    in_cap: int              # hard in-degree cap in H u B, so |H| <= n*in_cap; canonical floor(d'/5)
    sat_threshold: Fraction  # in-degree at which a head saturates; canonical d'/10
    low_threshold: Fraction  # saturated out-neighbourhood that triggers buffering; canonical d'/4


def canonical_oracle_profile(d):
    """The canonical thresholds for an oracle over a d-regular host."""
    return OracleProfile(
        out_cap=d // 2,
        in_cap=d // 5,
        sat_threshold=Fraction(d, 10),
        low_threshold=Fraction(d, 4),
    )


@dataclass(frozen=True)
class RouterProfile:
    """Full constants set for the routing engine.

    `d` is the degree of the undirected input, `k` the degree of its
    orientation, `d_prime` the degree of the two oracle hosts, which both
    run on `oracle`. `k`, `c`, `depth_cap`, `bfs_vertex_cap` and
    `path_len_cap` follow from the fields, so they are properties.
    `depth_cap` = ceil(log2 n) is the one hop budget of each of a path's
    three segments: both tree segments and the G3 connector.
    `profile_items` lists it as its file does.
    """

    n: int
    d: int
    beta: Fraction
    relaxed: bool
    d_prime: int
    fanout: int               # oracle requests per dequeued vertex
    endpoint_cap: int         # a vertex may start (end) strictly fewer paths
    r: int                    # live-path volume cap; |H1|, |H2|, |H3| <= r * depth_cap
    oracle: OracleProfile     # thresholds of both oracles

    def __post_init__(self):
        # every ratio is positive; zero is legal for most counts (strict
        # profiles have r=0), but there is no graph with n=0, the split needs
        # d_prime >= 1, with fanout 0 no tree grows and with endpoint_cap 0
        # no vertex may start a path: every request would fail
        for key, value in profile_items(self):
            if isinstance(value, bool):
                continue
            least = 1 if key in ("n", "d_prime", "fanout", "endpoint_cap") else 0
            if isinstance(value, int) and value < least:
                raise CallerError("profile field %s must be at least %d, got %d" % (key, least, value))
            if isinstance(value, Fraction) and value <= 0:
                raise CallerError("profile field %s must be positive, got %s" % (key, value))
        if self.k - 2 * self.d_prime < 1:
            raise CallerError("profile field d_prime: k=%d leaves no edges for the connecting subgraph" % self.k)
        if not self.relaxed and self.d_prime < 10:
            raise CallerError("profile field d_prime: host degree below 10 needs a relaxed profile")

    @property
    def k(self) -> int:
        return self.d // 2

    @property
    def c(self) -> Fraction:
        return self.beta / 1200

    @property
    def depth_cap(self) -> int:
        """Hop budget: ceil(log2 n) hops per segment, tree or connector."""
        return ceil_log2(self.n)

    @property
    def bfs_vertex_cap(self) -> int:
        """Tree growth stops past this many vertices: ceil(beta*n/5), in integers."""
        return -(-self.beta.numerator * self.n // (5 * self.beta.denominator))

    @property
    def path_len_cap(self) -> int:
        """Max accepted total path length: three segments of depth_cap hops."""
        return 3 * self.depth_cap

    def max_r(self) -> int:
        """The largest r both capacity chains allow: r * depth_cap <= c*n*k/2
        and 300/beta * r <= beta*n*k/50. At n=1, depth_cap = 0 and only
        the second binds."""
        bound = self.beta * self.beta * self.n * self.k / 15000
        if self.depth_cap:
            bound = min(bound, self.c * self.n * self.k / (2 * self.depth_cap))
        return math.floor(bound)

    def capacity_chains_hold(self) -> bool:
        """The two inequalities a strict profile must satisfy."""
        return self.r <= self.max_r()


def derive_profile(n, d, beta, gamma, relaxed=False):
    """Compute every derived constant from (n, d, beta); r is `max_r`.

    Strict mode (relaxed=False) enforces gamma < 1/1000 and d > 200;
    gamma is checked here and not stored, since no constant depends on it.
    Premise caveat: for d < 1/(2 gamma) (d=402 at gamma=1/2000) two adjacent
    vertices exceed `check_expansion_exhaustive`'s small-set bound gamma*d*|S|,
    so strict runs rest on these constants, not on a checked premise.
    """
    beta = Fraction(beta)
    gamma = Fraction(gamma)
    if not (0 < beta < 1):
        raise CallerError("beta must lie in (0, 1)")
    if not (0 < gamma < 1):
        raise CallerError("gamma must lie in (0, 1)")
    if not relaxed:
        if gamma >= Fraction(1, 1000):
            raise CallerError("strict profiles need gamma < 1/1000")
        if d <= 200:
            raise CallerError("strict profiles need d > 200")
    if d < 20:
        raise CallerError("need d >= 20 so that d_prime >= 1 (got d=%d)" % d)
    d_prime = d // 2 // 10
    profile = RouterProfile(
        n=n,
        d=d,
        beta=beta,
        relaxed=relaxed,
        d_prime=d_prime,
        fanout=max(1, d_prime // 4),
        endpoint_cap=math.ceil(Fraction(d, 200)),
        r=0,
        oracle=canonical_oracle_profile(d_prime),
    )
    return dataclasses.replace(profile, r=profile.max_r())


def desk_profile(n, d):
    """Relaxed profile tuned for desk-scale runs on random regular graphs.

    The canonical constants collapse below d ~ 200: d_prime = floor(k/10)
    drops under 10, the saturation threshold d_prime/10 falls below one
    edge (so every used head saturates and buffering cascades), and the
    derived r rounds to zero. This profile keeps the structural ratios
    that make the machinery live instead: d_prime around 2k/5 but at
    least 6, an out cap near d_prime/2 (so buffered vertices still have
    free forward edges for their walks), absolute saturation and in caps
    of 2, and out_cap >= in_cap + endpoint_cap so a request's endpoints
    always have tree-growing headroom. Load caps were tuned on seeded
    runs.
    """
    if d < 26:
        raise CallerError("desk routing profiles need d >= 26 (got %d)" % d)
    if n < 1:
        raise CallerError("desk routing profiles need n >= 1 (got %d)" % n)
    k = d // 2
    d_prime = max(6, (2 * k) // 5)
    if k - 2 * d_prime < 2:
        d_prime = (k - 2) // 2
    out_cap = max(3, d_prime // 2)
    in_cap = max(2, d_prime // 5)
    endpoint_cap = max(1, min(3, out_cap - in_cap - 1))
    vertex_cap = max(6, -(-n // 50))  # sets beta: bfs_vertex_cap = ceil(beta*n/5) is this cap
    beta = Fraction(5 * vertex_cap, n)
    return RouterProfile(
        n=n,
        d=d,
        beta=beta,
        relaxed=True,
        d_prime=d_prime,
        fanout=2,
        endpoint_cap=endpoint_cap,
        r=max(8, n // 25),
        oracle=OracleProfile(
            out_cap=out_cap,
            in_cap=in_cap,
            sat_threshold=Fraction(max(2, d_prime // 10)),
            # trigger buffering exactly when free unsaturated out-edges could
            # run out; earlier triggering (the canonical d'/4) over-buffers at
            # desk load and the buffer growth feeds back into saturation
            low_threshold=Fraction(d_prime - out_cap),
        ),
    )


# --- profile files (key=value, one field per line) --------------------------


def _file_fields():
    """(file key, field) pairs in file order: RouterProfile's, then oracle_<OracleProfile's>."""
    own = [(f.name, f) for f in dataclasses.fields(RouterProfile) if f.name != "oracle"]
    return own + [("oracle_" + f.name, f) for f in dataclasses.fields(OracleProfile)]


def profile_items(profile: RouterProfile):
    """The profile as (file key, value) pairs, in file order."""
    return [
        (key, getattr(profile.oracle if key.startswith("oracle_") else profile, field.name))
        for key, field in _file_fields()
    ]


def format_profile(profile: RouterProfile) -> str:
    lines = []
    for key, value in profile_items(profile):
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, Fraction):
            text = "%d/%d" % (value.numerator, value.denominator)
        else:
            text = str(value)
        lines.append("%s=%s" % (key, text))
    return "\n".join(lines) + "\n"


def parse_profile(text: str) -> RouterProfile:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError("profile line %d: expected key=value" % lineno)
        key, _, val = line.partition("=")
        key = key.strip()
        if key in values:
            raise FormatError(
                "profile line %d: field %s repeats line %d" % (lineno, key, values[key][0])
            )
        values[key] = (lineno, val.strip())
    fields = dict(_file_fields())
    unknown = ["%s at line %d" % (key, lineno) for key, (lineno, _) in values.items() if key not in fields]
    if unknown:
        raise FormatError("profile has unknown fields: %s" % ", ".join(unknown))
    missing = fields.keys() - values.keys()
    if missing:
        raise FormatError("profile missing fields: %s" % ", ".join(sorted(missing)))
    kwargs = {}
    for key, (lineno, raw) in values.items():
        kind = fields[key].type
        try:
            if kind == "bool":
                if raw not in ("true", "false"):
                    raise ValueError(raw)
                kwargs[key] = raw == "true"
            elif kind == "Fraction":
                kwargs[key] = Fraction(raw)
            else:
                kwargs[key] = int(raw)
        except (ValueError, ZeroDivisionError):
            raise FormatError("profile line %d: field %s: bad value %r" % (lineno, key, raw)) from None
    oracle = {fields[key].name: kwargs.pop(key) for key in fields if key.startswith("oracle_")}
    try:
        profile = RouterProfile(oracle=OracleProfile(**oracle), **kwargs)
    except CallerError as exc:
        raise FormatError(str(exc)) from None
    if not profile.relaxed and not profile.capacity_chains_hold():
        lineno = values["r"][0]
        raise FormatError("profile line %d: field r: %d breaks a strict capacity chain" % (lineno, profile.r))
    return profile


def load_profile(path) -> RouterProfile:
    return parse_profile(read_ascii(path, "profile"))
