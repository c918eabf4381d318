import dataclasses
import hashlib
import math
import re
from fractions import Fraction

import pytest

from conftest import depth_capped
from expander_routing.errors import CallerError, FormatError
from expander_routing.profiles import (
    OracleProfile,
    RouterProfile,
    canonical_oracle_profile,
    ceil_log2,
    derive_profile,
    desk_profile,
    format_profile,
    parse_profile,
)


def test_ceil_log2():
    assert ceil_log2(1) == 0
    assert ceil_log2(2) == 1
    assert ceil_log2(600) == 10
    assert ceil_log2(1024) == 10
    assert ceil_log2(1025) == 11


def test_strict_profile_worked_example():
    # independent re-evaluation of every derived field at n=1024, d=400
    n, d = 1024, 400
    beta = Fraction(1, 100)
    gamma = Fraction(1, 2000)
    p = derive_profile(n, d, beta, gamma)
    k = 200
    assert p.k == k
    assert p.d_prime == 20
    assert p.c == beta / 1200
    lg = 10
    first = math.floor((beta / 1200) * n * k / (2 * lg))
    second = math.floor(beta * beta * n * k / 15000)
    assert p.r == min(first, second)
    assert p.bfs_vertex_cap == math.ceil(beta * n / 5)
    assert p.fanout == 5
    assert p.endpoint_cap == 2  # strictly fewer than 400/200 paths per endpoint
    assert p.path_len_cap == 3 * lg
    assert p.oracle.out_cap == 10
    assert p.oracle.in_cap == 4
    assert p.oracle.sat_threshold == Fraction(2)
    assert p.oracle.low_threshold == Fraction(5)
    assert p.capacity_chains_hold()


@pytest.mark.parametrize(
    "args",
    [(2048, 400, "1/100", "1/2000", False), (600, 30, "1/10", "1/50", True)],
    ids=["strict", "relaxed"],
)
def test_oracle_fields_are_the_canonical_oracle_profile(args):
    n, d, beta, gamma, relaxed = args
    p = derive_profile(n, d, beta, gamma, relaxed=relaxed)
    assert p.oracle == canonical_oracle_profile(p.d_prime)


def test_strict_profile_rejects_large_gamma():
    # gamma is checked on derivation and not stored: strict needs gamma < 1/1000
    for gamma in ("1/500", "1/1000"):
        with pytest.raises(CallerError, match="gamma"):
            derive_profile(1024, 400, "1/100", gamma)
    assert derive_profile(1024, 400, "1/100", "1/1001") == derive_profile(1024, 400, "1/100", "1/2000")
    assert derive_profile(1024, 400, "1/100", "1/10", relaxed=True).relaxed


def test_strict_profile_rejects_small_degree():
    with pytest.raises(CallerError):
        derive_profile(1024, 19, "1/100", "1/2000", relaxed=True)
    with pytest.raises(CallerError):
        derive_profile(1024, 150, "1/100", "1/2000")  # strict needs d > 200


def test_relaxed_profile_allows_small_degree():
    p = derive_profile(100, 20, "1/10", "1/50", relaxed=True)
    assert p.k == 10
    assert p.d_prime == 1
    assert p.relaxed


def test_profile_file_round_trip():
    # every shipped profile passes the range checks; zeros stay legal (strict r=0)
    for p in (
        derive_profile(2048, 400, "1/100", "1/2000"),
        derive_profile(600, 30, "1/10", "1/50", relaxed=True),
        desk_profile(600, 30),
        desk_profile(9600, 31),
    ):
        assert parse_profile(format_profile(p)) == p
    assert derive_profile(2048, 400, "1/100", "1/2000").r == 0


# sha256 of each profile's file as written while path_len_cap, then
# bfs_edge_cap and h_size_cap, then gamma and oracle_capacity, then
# bfs_vertex_cap, then depth_cap, then g3_path_cap were stored fields,
# with those lines taken out: depth_cap is ceil_log2(n) now, the value
# every constructor wrote, and the connector shares its budget, so no
# other line changed
PROFILE_FILE_GOLDEN = {
    "desk-600-30": "d80b4a96a9316b6f9bd6246c72e3b4e5a753a63d85e7d1099e4f9ad01a39d645",
    "desk-9600-31": "b2a4b5c9e24b8beca921d36253cc0e2f42d4a346f7687c1c0bd167d614bef280",
    "strict-2048-400": "acaf1ebb5eeac3cc7eccedcdbccdbcab563c8a0e699ce9ec08f98389ece0fe43",
    "relaxed-600-30": "4044cefde6dd562f11b8c05911f84780bf73a9ce21e9b1d28da9c4c7b81e7efb",
}


@pytest.mark.parametrize("name", sorted(PROFILE_FILE_GOLDEN))
def test_profile_file_text_is_unchanged(name):
    p = {
        "desk-600-30": lambda: desk_profile(600, 30),
        "desk-9600-31": lambda: desk_profile(9600, 31),
        "strict-2048-400": lambda: derive_profile(2048, 400, "1/100", "1/2000"),
        "relaxed-600-30": lambda: derive_profile(600, 30, "1/10", "1/50", relaxed=True),
    }[name]()
    text = format_profile(p)
    assert len(text.splitlines()) == 12
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == PROFILE_FILE_GOLDEN[name]


# desk_profile(150, 30) and the strict derive_profile(1024, 400, 1/100,
# 1/2000) as format_profile wrote them while g3_path_cap (a connector cap
# that never bound; the connector now shares the trees' depth_cap) was a
# stored field, in FOURTEEN_KEY_FILES while depth_cap (now derived from
# n) was too, in FIFTEEN_KEY_FILES while bfs_vertex_cap (now
# derived from beta) was too, in SEVENTEEN_KEY_FILES while gamma (a
# checked input no constant depends on) and oracle_capacity (a cap on |H|
# that in_cap already implies) were too, in NINETEEN_KEY_FILES while
# bfs_edge_cap (a per-tree edge cap) and h_size_cap (a verified bound on
# |H1|, |H2|) were as well, and, in OLDER_FILES, while k, c and
# path_len_cap were as well
THIRTEEN_KEY_FILES = {
    "desk": """n=150
d=30
beta=1/5
relaxed=true
d_prime=6
fanout=2
endpoint_cap=1
r=8
g3_path_cap=50
oracle_out_cap=3
oracle_in_cap=2
oracle_sat_threshold=2/1
oracle_low_threshold=3/1
""",
    "strict": """n=1024
d=400
beta=1/100
relaxed=false
d_prime=20
fanout=5
endpoint_cap=2
r=0
g3_path_cap=30001
oracle_out_cap=10
oracle_in_cap=4
oracle_sat_threshold=2/1
oracle_low_threshold=5/1
""",
}
FOURTEEN_KEY_FILES = {
    "desk": """n=150
d=30
beta=1/5
relaxed=true
d_prime=6
depth_cap=8
fanout=2
endpoint_cap=1
r=8
g3_path_cap=50
oracle_out_cap=3
oracle_in_cap=2
oracle_sat_threshold=2/1
oracle_low_threshold=3/1
""",
    "strict": """n=1024
d=400
beta=1/100
relaxed=false
d_prime=20
depth_cap=10
fanout=5
endpoint_cap=2
r=0
g3_path_cap=30001
oracle_out_cap=10
oracle_in_cap=4
oracle_sat_threshold=2/1
oracle_low_threshold=5/1
""",
}
FIFTEEN_KEY_FILES = {
    "desk": """n=150
d=30
beta=1/5
relaxed=true
d_prime=6
depth_cap=8
bfs_vertex_cap=6
fanout=2
endpoint_cap=1
r=8
g3_path_cap=50
oracle_out_cap=3
oracle_in_cap=2
oracle_sat_threshold=2/1
oracle_low_threshold=3/1
""",
    "strict": """n=1024
d=400
beta=1/100
relaxed=false
d_prime=20
depth_cap=10
bfs_vertex_cap=3
fanout=5
endpoint_cap=2
r=0
g3_path_cap=30001
oracle_out_cap=10
oracle_in_cap=4
oracle_sat_threshold=2/1
oracle_low_threshold=5/1
""",
}
SEVENTEEN_KEY_FILES = {
    "desk": """n=150
d=30
beta=1/5
gamma=1/50
relaxed=true
d_prime=6
depth_cap=8
bfs_vertex_cap=6
fanout=2
endpoint_cap=1
r=8
g3_path_cap=50
oracle_out_cap=3
oracle_in_cap=2
oracle_sat_threshold=2/1
oracle_low_threshold=3/1
oracle_capacity=300
""",
    "strict": """n=1024
d=400
beta=1/100
gamma=1/2000
relaxed=false
d_prime=20
depth_cap=10
bfs_vertex_cap=3
fanout=5
endpoint_cap=2
r=0
g3_path_cap=30001
oracle_out_cap=10
oracle_in_cap=4
oracle_sat_threshold=2/1
oracle_low_threshold=5/1
oracle_capacity=1
""",
}
NINETEEN_KEY_FILES = {
    "desk": """n=150
d=30
beta=1/5
gamma=1/50
relaxed=true
d_prime=6
depth_cap=8
bfs_vertex_cap=6
bfs_edge_cap=36
fanout=2
endpoint_cap=1
r=8
g3_path_cap=50
h_size_cap=64
oracle_out_cap=3
oracle_in_cap=2
oracle_sat_threshold=2/1
oracle_low_threshold=3/1
oracle_capacity=300
""",
    "strict": """n=1024
d=400
beta=1/100
gamma=1/2000
relaxed=false
d_prime=20
depth_cap=10
bfs_vertex_cap=3
bfs_edge_cap=0
fanout=5
endpoint_cap=2
r=0
g3_path_cap=30001
h_size_cap=0
oracle_out_cap=10
oracle_in_cap=4
oracle_sat_threshold=2/1
oracle_low_threshold=5/1
oracle_capacity=1
""",
}
OLDER_FILES = {
    "desk": """n=150
d=30
beta=1/5
gamma=1/50
relaxed=true
k=15
d_prime=6
c=1/6000
depth_cap=8
bfs_vertex_cap=6
bfs_edge_cap=36
fanout=2
endpoint_cap=1
r=8
g3_path_cap=50
path_len_cap=66
h_size_cap=64
oracle_out_cap=3
oracle_in_cap=2
oracle_sat_threshold=2/1
oracle_low_threshold=3/1
oracle_capacity=300
""",
    "strict": """n=1024
d=400
beta=1/100
gamma=1/2000
relaxed=false
k=200
d_prime=20
c=1/120000
depth_cap=10
bfs_vertex_cap=3
bfs_edge_cap=0
fanout=5
endpoint_cap=2
r=0
g3_path_cap=30001
path_len_cap=30021
h_size_cap=0
oracle_out_cap=10
oracle_in_cap=4
oracle_sat_threshold=2/1
oracle_low_threshold=5/1
oracle_capacity=1
""",
}
RETIRED_KEYS = {"gamma", "depth_cap", "g3_path_cap", "bfs_vertex_cap", "bfs_edge_cap", "h_size_cap", "oracle_capacity"}


def _kept_lines_are_the_profile(kind, text):
    expected = {
        "desk": desk_profile(150, 30),
        "strict": derive_profile(1024, 400, "1/100", "1/2000"),
    }[kind]
    kept = [line for line in text.splitlines() if line.split("=")[0] not in RETIRED_KEYS]
    assert format_profile(expected).splitlines() == kept


@pytest.mark.parametrize("kind", sorted(THIRTEEN_KEY_FILES))
def test_13_key_profile_file_fails_naming_g3_path_cap(kind):
    # a stored connector cap is refused, not ignored: the connector shares
    # the trees' budget of ceil_log2(n) hops now
    text = THIRTEEN_KEY_FILES[kind]
    with pytest.raises(FormatError, match=r"unknown fields: g3_path_cap at line 9$"):
        parse_profile(text)
    _kept_lines_are_the_profile(kind, text)


@pytest.mark.parametrize("kind", sorted(FOURTEEN_KEY_FILES))
def test_14_key_profile_file_fails_naming_depth_cap(kind):
    # a stored depth budget is refused, not ignored: n sets it now, and a
    # larger one would let finds serve paths longer than path_len_cap
    text = FOURTEEN_KEY_FILES[kind]
    with pytest.raises(FormatError, match=r"unknown fields: depth_cap at line 6, g3_path_cap at line 10$"):
        parse_profile(text)
    _kept_lines_are_the_profile(kind, text)


@pytest.mark.parametrize("kind", sorted(FIFTEEN_KEY_FILES))
def test_15_key_profile_file_fails_naming_bfs_vertex_cap(kind):
    # a stored cap is refused, not ignored: beta sets it now
    text = FIFTEEN_KEY_FILES[kind]
    with pytest.raises(
        FormatError,
        match=r"unknown fields: depth_cap at line 6, bfs_vertex_cap at line 7, g3_path_cap at line 11$",
    ):
        parse_profile(text)
    _kept_lines_are_the_profile(kind, text)


@pytest.mark.parametrize("kind", sorted(SEVENTEEN_KEY_FILES))
def test_17_key_profile_file_fails_naming_gamma_and_oracle_capacity(kind):
    text = SEVENTEEN_KEY_FILES[kind]
    with pytest.raises(
        FormatError,
        match=r"unknown fields: gamma at line 4, depth_cap at line 7, bfs_vertex_cap at line 8, "
        r"g3_path_cap at line 12, oracle_capacity at line 17$",
    ):
        parse_profile(text)
    _kept_lines_are_the_profile(kind, text)


@pytest.mark.parametrize("kind", sorted(NINETEEN_KEY_FILES))
def test_19_key_profile_file_fails_naming_the_retired_keys(kind):
    # a retired cap is refused, not ignored: a tight one set on purpose
    # would otherwise be dropped without a word
    text = NINETEEN_KEY_FILES[kind]
    with pytest.raises(
        FormatError,
        match=r"unknown fields: gamma at line 4, depth_cap at line 7, bfs_vertex_cap at line 8, "
        r"bfs_edge_cap at line 9, g3_path_cap at line 13, h_size_cap at line 14, oracle_capacity at line 19$",
    ):
        parse_profile(text)
    _kept_lines_are_the_profile(kind, text)


@pytest.mark.parametrize("kind", sorted(OLDER_FILES))
def test_older_profile_file_with_k_and_c_fails(kind):
    with pytest.raises(
        FormatError,
        match=r"unknown fields: gamma at line 4, k at line 6, c at line 8, depth_cap at line 9, "
        r"bfs_vertex_cap at line 10, bfs_edge_cap at line 11, g3_path_cap at line 15, path_len_cap at line 16, "
        r"h_size_cap at line 17, "
        r"oracle_capacity at line 22$",
    ):
        parse_profile(OLDER_FILES[kind])


def test_misspelt_key_is_named_with_its_line_before_the_missing_one():
    text = format_profile(desk_profile(600, 30))
    lineno = text.splitlines().index("r=24") + 1
    with pytest.raises(FormatError, match=r"unknown fields: rr at line %d$" % lineno):
        parse_profile(text.replace("\nr=24\n", "\nrr=24\n"))


def test_profile_file_rejects_missing_field():
    text = format_profile(desk_profile(600, 30))
    broken = "\n".join(text.splitlines()[1:])
    with pytest.raises(Exception):
        parse_profile(broken)


def test_profile_file_bad_value_names_the_line():
    text = re.sub(r"(?m)^fanout=.*$", "fanout=x", format_profile(desk_profile(600, 30)))
    lineno = text.splitlines().index("fanout=x") + 1
    with pytest.raises(FormatError, match=r"line %d: field fanout: bad value 'x'" % lineno):
        parse_profile(text)


def test_profile_file_rejects_a_repeated_field():
    text = format_profile(desk_profile(600, 30))
    first = next(i for i, line in enumerate(text.splitlines(), 1) if line.startswith("r="))
    last = len(text.splitlines()) + 1
    with pytest.raises(FormatError, match=r"line %d: field r repeats line %d" % (last, first)):
        parse_profile(text + "r=3\n")


def test_desk_profile_structure():
    p = desk_profile(600, 30)
    assert p.relaxed
    assert p.d_prime >= 6
    assert p.k - 2 * p.d_prime >= 2
    assert p.fanout >= 2
    # endpoints must always be able to start growing a tree
    assert p.oracle.out_cap >= p.oracle.in_cap + p.endpoint_cap
    assert p.bfs_vertex_cap == math.ceil(p.beta * p.n / 5)


def test_desk_vertex_cap_is_the_cap_it_stored():
    # desk_profile sets beta from the cap max(6, ceil(n/50)); the cap
    # derived from that beta is that number
    for n in list(range(28, 3000, 7)) + [4800, 9600, 19200]:
        for d in (26, 27, 30, 31, 40):
            assert desk_profile(n, d).bfs_vertex_cap == max(6, math.ceil(n / 50))


def test_path_len_cap_follows_a_lowered_depth_cap():
    # derived, so it follows the one hop budget the tests lower
    p = depth_capped(desk_profile(600, 30), 4)
    assert p.depth_cap == 4
    assert p.path_len_cap == 12


@pytest.mark.parametrize("n", [1, 2, 150, 600, 9600])
def test_depth_cap_is_ceil_log2_n(n):
    # one home for the hop budget: the three segment checks, the |H1|,
    # |H2|, |H3| checks and the total length cap all read ceil_log2(n)
    for p in (desk_profile(n, 30), derive_profile(n, 400, "1/100", "1/2000"),
              derive_profile(n, 30, "1/10", "1/50", relaxed=True)):
        assert p.depth_cap == ceil_log2(n)
        assert p.path_len_cap == 3 * p.depth_cap
        assert "depth_cap" not in {f.name for f in dataclasses.fields(p)}


@pytest.mark.parametrize("n", [0, -5])
def test_desk_profile_needs_a_vertex(n):
    # n = 0 used to raise a bare ZeroDivisionError from the beta it derives
    with pytest.raises(CallerError, match="need n >= 1 \\(got %d\\)" % n):
        desk_profile(n, 30)


def test_desk_profile_needs_room():
    with pytest.raises(CallerError):
        desk_profile(600, 20)


def test_strict_profile_file_needs_oracle_hosts_of_degree_10():
    text = format_profile(derive_profile(1024, 400, "1/100", "1/2000"))
    assert "d_prime=20" in text.splitlines()
    with pytest.raises(FormatError, match=r"\bd_prime\b"):
        parse_profile(text.replace("d_prime=20", "d_prime=9"))
    relaxed = derive_profile(600, 30, "1/10", "1/50", relaxed=True)
    assert relaxed.d_prime < 10 and parse_profile(format_profile(relaxed)) == relaxed


def chains_hold(p, r):
    """The two capacity chains as stated: r * ceil_log2(n) <= c*n*k/2 and
    300/beta * r <= beta*n*k/50."""
    first = r * ceil_log2(p.n) <= p.c * p.n * p.k / 2
    second = Fraction(300) / p.beta * r <= p.beta * p.n * p.k / 50
    return first and second


def test_derive_profile_at_one_vertex():
    # ceil_log2(1) = 0, so only the second chain bounds r there; deriving
    # used to divide by ceil_log2(n) and raise ZeroDivisionError
    p = derive_profile(1, 400, "1/100", "1/2000")
    assert p.depth_cap == 0 and p.r == 0 and p.max_r() == 0
    assert p.capacity_chains_hold()
    assert parse_profile(format_profile(p)) == p


@pytest.mark.parametrize("beta", ["1/100", "1/3"])
@pytest.mark.parametrize("d", [201, 400])
@pytest.mark.parametrize("n", [1, 2, 1024, 10**6])
def test_max_r_is_the_largest_r_the_chains_allow(n, d, beta):
    p = derive_profile(n, d, beta, "1/2000")
    r = p.max_r()
    assert p.r == r
    assert chains_hold(p, r) and not chains_hold(p, r + 1)
    assert p.capacity_chains_hold()
    assert not dataclasses.replace(p, r=r + 1).capacity_chains_hold()


def test_strict_profile_file_must_hold_the_capacity_chains():
    # derive_profile writes r=1 here; r=2 breaks the second chain,
    # 300/beta * r <= beta * n * k / 50, and is refused at load
    text = format_profile(derive_profile(10**6, 400, "1/100", "1/2000"))
    lineno = text.splitlines().index("r=1") + 1
    assert parse_profile(text).capacity_chains_hold()
    with pytest.raises(FormatError, match=r"^profile line %d: field r: 2 breaks a strict capacity chain$" % lineno):
        parse_profile(text.replace("\nr=1\n", "\nr=2\n"))
    # a relaxed file is not held to the strict regime
    relaxed = text.replace("relaxed=false", "relaxed=true").replace("\nr=1\n", "\nr=2\n")
    assert parse_profile(relaxed).r == 2


def test_endpoint_cap_reading():
    # strictly fewer than d/200 path starts, rounding up the rational cap
    assert derive_profile(10**6, 400, "1/100", "1/2000").endpoint_cap == 2
    assert derive_profile(10**6, 300, "1/100", "1/2000").endpoint_cap == 2
    assert derive_profile(10**6, 201, "1/100", "1/2000").endpoint_cap == 2


def test_router_profile_is_complete():
    # the file has one key per value: the router's own fields, then the
    # oracle's four thresholds keyed oracle_<field>, and no derived value
    keys = list(DESK_FILE_VALUES)
    own = [f.name for f in dataclasses.fields(RouterProfile) if f.name != "oracle"]
    assert keys == own + ["oracle_" + f.name for f in dataclasses.fields(OracleProfile)]
    assert len(keys) == 12 and len(dataclasses.fields(OracleProfile)) == 4
    derived = {"k", "c", "depth_cap", "bfs_vertex_cap", "path_len_cap"}
    assert not (derived | {"gamma", "oracle_capacity", "g3_path_cap"}) & set(keys)
    assert all(isinstance(getattr(RouterProfile, name), property) for name in derived)


@pytest.mark.parametrize("field", ["fanout", "endpoint_cap"])
def test_router_profile_rejects_zero(field):
    with pytest.raises(CallerError, match=field):
        dataclasses.replace(desk_profile(600, 30), **{field: 0})
    text = re.sub(r"(?m)^%s=.*$" % field, field + "=0", format_profile(desk_profile(600, 30)))
    with pytest.raises(FormatError, match=field):
        parse_profile(text)


@pytest.mark.parametrize(
    "text",
    [
        format_profile(desk_profile(600, 30)),
        format_profile(derive_profile(2048, 400, "1/100", "1/2000")),
    ],
    ids=["desk", "strict"],
)
def test_profile_file_with_no_vertices_fails_naming_n(text):
    # checked first, before the strict capacity chains take ceil_log2(n)
    with pytest.raises(FormatError, match=r"^profile field n must be at least 1, got 0$"):
        parse_profile(re.sub(r"(?m)^n=.*$", "n=0", text))


@pytest.mark.parametrize(
    "d_prime, message",
    [(0, "must be at least 1, got 0"), (8, "k=15 leaves no edges for the connecting subgraph")],
)
def test_profile_file_refuses_a_split_it_cannot_make(d_prime, message):
    # the split needs d_prime >= 1 and k - 2*d_prime >= 1; the file fails
    # at load, before any engine is built
    with pytest.raises(FormatError, match=r"\bd_prime\b.*" + message):
        parse_profile(_desk_file_with("d_prime", d_prime))
    assert parse_profile(_desk_file_with("d_prime", 7)).d_prime == 7


def _desk_file_with(field, value):
    text = format_profile(desk_profile(600, 30))
    return re.sub(r"(?m)^%s=.*$" % field, "%s=%s" % (field, value), text)


DESK_FILE_VALUES = dict(
    line.split("=", 1) for line in format_profile(desk_profile(600, 30)).splitlines()
)
INT_KEYS = [key for key, value in DESK_FILE_VALUES.items() if value.isdigit()]
RATIO_KEYS = [key for key, value in DESK_FILE_VALUES.items() if "/" in value]


@pytest.mark.parametrize(
    "field,value",
    [(key, -1) for key in INT_KEYS] + [(key, 0) for key in RATIO_KEYS] + [("relaxed", "false")],
)
def test_profile_file_rejects_out_of_range_values(field, value):
    # relaxed=false on a desk file fails on its d_prime of 6
    name = "d_prime" if field == "relaxed" else field
    with pytest.raises(FormatError, match=r"\b%s\b" % name):
        parse_profile(_desk_file_with(field, value))
