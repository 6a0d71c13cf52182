import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from banachkit import (GrowthSequence, NormedSpace, SubspaceSpace,
                       cotype_index, fundamental_function, gweak, gweak_norm,
                       lorentz, lorentz_norm, lp, parse_family, parse_space,
                       rearrange)
from banachkit.spaces import DescriptorError, _conjugate


def random_spaces(dims, rng):
    for dim in dims:
        yield NormedSpace(lp(float(rng.uniform(1, 5))), dim)
        yield NormedSpace(lp(math.inf), dim)
        yield NormedSpace(lorentz(float(rng.uniform(1, 4)), 1.0), dim)
        yield NormedSpace(lorentz(2.0, math.inf), dim)
        yield NormedSpace(gweak(GrowthSequence.power(float(rng.uniform(0.1, 1.0)))), dim)


def test_norm_axioms_on_random_vectors():
    rng = np.random.default_rng(5)
    for space in random_spaces((3, 5), rng):
        for _ in range(20):
            x = rng.standard_normal(space.dim)
            lam = rng.uniform(0.1, 3.0)
            assert space.norm(lam * x) == pytest.approx(lam * space.norm(x), rel=1e-12)
            assert space.norm(np.zeros(space.dim)) == 0.0
            assert space.norm(x) > 0
            if not space.is_quasi:
                y = rng.standard_normal(space.dim)
                assert space.norm(x + y) <= space.norm(x) + space.norm(y) + 1e-10


def test_quasi_families_flagged_with_constant():
    weak = NormedSpace(lorentz(2.0, math.inf), 6)
    assert weak.is_quasi
    gw = NormedSpace(gweak(GrowthSequence.power(0.5)), 6)
    assert gw.is_quasi
    assert not NormedSpace(lp(1), 4).is_quasi
    # the quasi-triangle inequality of l_{2,inf} holds at 2^(1/2)
    rng = np.random.default_rng(1)
    for _ in range(50):
        x, y = rng.standard_normal((2, 6))
        assert weak.norm(x + y) <= math.sqrt(2) * (weak.norm(x) + weak.norm(y)) * (1 + 1e-12)


def test_between_sup_and_sum():
    rng = np.random.default_rng(9)
    for space in random_spaces((4,), rng):
        for _ in range(20):
            x = rng.standard_normal(4)
            v = space.norm(x)
            assert np.max(np.abs(x)) <= v * (1 + 1e-12)
            assert v <= np.sum(np.abs(x)) * (1 + 1e-12)


def test_fundamental_functions():
    assert fundamental_function(lp(3), 27) == pytest.approx(3.0, rel=1e-14)
    assert fundamental_function(gweak(GrowthSequence.power(0.5)), 9) == 3.0
    assert fundamental_function(lorentz(2, 1), 2) == pytest.approx(1 + 2**-0.5, abs=1e-14)
    # matches the norm of the constant-one vector
    for fam in (lp(2), lorentz(3, 2), gweak(GrowthSequence.power(0.4))):
        assert fam.fundamental(5) == pytest.approx(fam.norm(np.ones(5)), rel=1e-12)


def test_cotype_index_surrogate():
    for p in (1.0, 2.0, 3.0):
        assert cotype_index(lp(p), 64) == pytest.approx(p, rel=1e-12)
    assert cotype_index(lorentz(2, math.inf), 64) == pytest.approx(2.0, rel=1e-12)
    assert cotype_index(gweak(GrowthSequence.power(0.0)), 32) == math.inf


def test_dual_norm_closed_forms():
    assert NormedSpace(lp(1), 2).dual_exact([1, 2]) == 2.0
    assert NormedSpace(lp(2), 3).dual_exact([1, 2, 2]) == 3.0
    assert NormedSpace(lp(math.inf), 2).dual_exact([1, -2]) == 3.0
    weak = NormedSpace(lorentz(2, math.inf), 3)
    # extreme profile 1/sqrt(k) aligned against the rearrangement
    assert weak.dual_exact([1, 1, 1]) == pytest.approx(1 + 2**-0.5 + 3**-0.5, abs=1e-14)
    value_at_constant = 3 / weak.norm(np.ones(3))
    assert weak.dual_exact([1, 1, 1]) >= value_at_constant - 1e-12


def test_dual_pairing_bound_on_random_pairs():
    rng = np.random.default_rng(21)
    for space in random_spaces((4,), rng):
        for _ in range(30):
            x = rng.standard_normal(4)
            y = rng.standard_normal(4)
            pairing = abs(float(x @ y))
            assert pairing <= space.norm(x) * space.dual_upper(y) * (1 + 1e-10)


def test_dual_upper_dominates_search_witnesses():
    # the certified upper bound must dominate every feasible pairing
    rng = np.random.default_rng(4)
    space = NormedSpace(lorentz(2.0, 1.5), 4)
    y = rng.standard_normal(4)
    upper = space.dual_upper(y)
    for _ in range(200):
        x = rng.standard_normal(4)
        x = x / space.norm(x)
        assert abs(float(x @ y)) <= upper * (1 + 1e-10)


@pytest.mark.parametrize("family", ["lp:1", "lp:1.5", "lp:2", "lp:3", "lp:inf", "lorentz:2:1",
                                    "lorentz:3:2", "lorentz:1:2", "lorentz:1.5:4",
                                    "lorentz:2:inf", "gweak:pow:0.5", "gweak:file"])
def test_dual_upper_rows_match_dual_upper(family, tmp_path):
    if family == "gweak:file":
        path = tmp_path / "g.txt"
        path.write_text("".join(f"{k} {k ** 0.4 + 0.1 * (k > 1)}\n" for k in range(1, 7)))
        family = f"gweak:file:{path}"
    X = parse_space(f"{family}:6")
    rng = np.random.default_rng(len(family))
    m = rng.standard_normal((12, 6))
    m[rng.random(m.shape) < 0.2] = 0.0
    m[3] = 0.0
    sub = SubspaceSpace(rng.standard_normal((6, 4)), X)
    for space, rows in ((X, m), (sub, m[:, :4])):
        got = space.dual_upper_rows(rows)
        assert got.shape == (12,)
        assert same_bits(got, np.array([space.dual_upper(row) for row in rows]))
        assert got[3] == 0.0


def test_norm_rows_matches_scalar_norm():
    rng = np.random.default_rng(12)
    m = rng.standard_normal((200, 5))
    for space in random_spaces((5,), rng):
        scalar = np.array([space.norm(x) for x in m])
        assert same_bits(space.norm_rows(m), scalar)
        family = space.space
        if family.family == "lorentz":
            assert same_bits(np.array([lorentz_norm(x, family.p, family.q) for x in m]), scalar)
        elif family.family == "gweak":
            assert same_bits(np.array([gweak_norm(x, family.g) for x in m]), scalar)


def test_subspace_space():
    rng = np.random.default_rng(8)
    ambient = NormedSpace(lp(math.inf), 4)
    basis = rng.standard_normal((4, 2))
    sub = SubspaceSpace(basis, ambient)
    c = rng.standard_normal(2)
    assert sub.norm(c) == pytest.approx(ambient.norm(basis @ c), rel=1e-14)
    assert sub.ge_euclid() * sub.norm(c) >= np.linalg.norm(c) - 1e-10
    assert sub.le_euclid() * np.linalg.norm(c) >= sub.norm(c) - 1e-10


def test_descriptor_grammar(tmp_path):
    sp = parse_space("lp:2:8")
    assert sp.dim == 8 and sp.is_euclidean
    sp = parse_space("lorentz:2:1:4")
    assert sp.space.q == 1.0
    sp = parse_space("gweak:pow:0.5:16")
    assert sp.space.g(4) == 2.0
    path = tmp_path / "g.txt"
    path.write_text("1 1\n2 2\n3 3\n")
    sp = parse_space(f"gweak:file:{path}:3")
    assert sp.norm([1, 0, 0]) == 1.0
    fam, dim = parse_family("lp:inf")
    assert fam.p == math.inf and dim is None
    for bad in ("lp", "lp:0.5:4", "what:2:3", "lorentz:2:4", "gweak:pow:x:4"):
        with pytest.raises(DescriptorError):
            if bad == "lorentz:2:4":
                parse_space("lorentz:2")  # missing q entirely
            else:
                parse_space(bad)


EUCLIDEAN = {"lp:2:3", "lorentz:2:2:3"}
QUASI = {"lorentz:2:inf:3", "gweak:pow:0.5:3"}


@pytest.mark.parametrize("descriptor, l1, linf", [
    ("lp:1:3", True, False), ("lp:inf:3", False, True), ("lp:2:3", False, False),
    ("lp:1.5:3", False, False), ("lorentz:2:1:3", False, False),
    ("lorentz:2:2:3", False, False), ("lorentz:2:inf:3", False, False),
    ("gweak:pow:0.5:3", False, False),
])
def test_l1_and_linf_capabilities(descriptor, l1, linf):
    X = parse_space(descriptor)
    quasi = descriptor in QUASI
    assert (X.is_l1, X.is_linf) == (l1, linf)
    assert (X.is_euclidean, X.is_quasi) == (descriptor in EUCLIDEAN, quasi)
    assert repr(X) == f"NormedSpace({descriptor})"
    # a subspace keeps neither the extreme points nor the coordinate
    # functionals, nor a Euclidean norm; it is as quasi as its ambient space
    sub = SubspaceSpace(np.eye(3)[:, :2], X)
    assert (sub.is_l1, sub.is_linf, sub.is_euclidean, sub.is_quasi) == (False, False, False, quasi)
    assert repr(sub) == f"SubspaceSpace(sub:2<{descriptor})"


@pytest.mark.parametrize("descriptor, exact_dual", [
    ("lp:1:3", True), ("lp:inf:3", True), ("lp:1.5:3", True), ("lorentz:2:inf:3", True),
    ("gweak:pow:0.5:3", True), ("lorentz:2:1:3", False), ("lorentz:3:2:3", False),
])
def test_exact_dual_capability(descriptor, exact_dual):
    X = parse_space(descriptor)
    y = np.array([1.0, -2.0, 0.5])
    assert X.has_exact_dual == X.space.has_exact_dual == exact_dual
    assert (X.dual_exact(y) is not None) == exact_dual
    if exact_dual:
        # the closed forms the into-l_inf operator-norm route scores rows with
        assert X.dual_upper_rows(y[None])[0] == pytest.approx(X.dual_exact(y), rel=1e-12)
    sub = SubspaceSpace(np.eye(3)[:, :2], X)
    assert not sub.has_exact_dual and sub.dual_exact(y[:2]) is None


# -- the row kernels against the out-of-place expressions they replaced ------

ROW_FAMILIES = ["lp:1", "lp:1.5", "lp:2", "lp:3", "lp:inf", "lorentz:2:1", "lorentz:3:2",
                "lorentz:1:2", "lorentz:2:4", "lorentz:2:inf", "lorentz:1.5:inf",
                "gweak:pow:0.5", "gweak:pow:0.1", "gweak:file"]
ROW_DIM_MAX = 40


def reference_norm_rows(space, m):
    """SeqSpace.norm_rows as it read before it worked in one buffer, with
    integer blocks cast to float before abs (|-128| wrapped in int8)."""
    m = np.abs(np.asarray(m).astype(float))
    if space.family == "lp":
        if space.p == math.inf:
            return np.max(m, axis=1)
        return np.sum(m**space.p, axis=1) ** (1.0 / space.p)
    s = -np.sort(-m, axis=1)
    n = np.arange(1, m.shape[1] + 1, dtype=float)
    if space.family == "lorentz":
        if space.q == math.inf:
            return np.max(n ** (1.0 / space.p) * s, axis=1)
        e = space.q / space.p - 1.0
        return np.sum(s**space.q * n**e, axis=1) ** (1.0 / space.q)
    w = space.g(np.arange(1, m.shape[1] + 1))
    return np.max(w * s, axis=1)


def reference_dual_upper_rows(space, m):
    """SeqSpace.dual_upper_rows as it read before it worked in one buffer."""
    m = np.asarray(m, dtype=float)
    if space.family == "lp":
        return reference_norm_rows(lp(_conjugate(space.p)), m)
    if space.family == "lorentz" and space.q != math.inf:
        return reference_norm_rows(lorentz(_conjugate(space.p), _conjugate(space.q)), m)
    s = -np.sort(-np.abs(m), axis=1)
    ks = np.arange(1, m.shape[1] + 1)
    w = ks ** (-1.0 / space.p) if space.family == "lorentz" else 1.0 / space.g(ks)
    return np.sum(s * w, axis=1)


@pytest.fixture(scope="module")
def row_families(tmp_path_factory):
    path = tmp_path_factory.mktemp("growth") / "g.txt"
    ks = range(1, ROW_DIM_MAX + 1)
    path.write_text("".join(f"{k} {k ** 0.4 + 0.1 * (k > 1)}\n" for k in ks))
    return {name: parse_family(f"gweak:file:{path}" if name == "gweak:file" else name)[0]
            for name in ROW_FAMILIES}


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def row_blocks(draw):
    """A 2-d block in float64, float32 or int8, with some rows set to 0.0
    or -0.0; one row and one column are among the shapes drawn."""
    dtype = draw(st.sampled_from([np.float64, np.float32, np.int8]))
    shape = (draw(st.integers(1, 24)), draw(st.integers(1, ROW_DIM_MAX)))
    if dtype == np.int8:
        elements = st.integers(-128, 127)
    else:
        width = 64 if dtype == np.float64 else 32
        elements = st.floats(-1e6, 1e6, width=width, allow_subnormal=False)
    m = draw(hnp.arrays(dtype, shape, elements=elements))
    for i in draw(st.sets(st.integers(0, shape[0] - 1), max_size=3)):
        m[i] = draw(st.sampled_from([0.0, -0.0]))
    return m


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(ROW_FAMILIES), m=row_blocks(), data=st.data())
def test_row_kernels_match_reference_bit_for_bit(row_families, name, m, data):
    space = row_families[name]
    before = m.copy()
    assert same_bits(space.norm_rows(m), reference_norm_rows(space, m))
    assert same_bits(space.dual_upper_rows(m), reference_dual_upper_rows(space, m))
    assert same_bits(m, before)
    # a subspace hands its ambient space the fresh product m @ basis.T
    ambient_dim = data.draw(st.integers(m.shape[1], ROW_DIM_MAX), label="ambient_dim")
    basis = np.eye(ambient_dim)[:, :m.shape[1]] + data.draw(
        hnp.arrays(np.float64, (ambient_dim, m.shape[1]), elements=st.floats(-0.25, 0.25)),
        label="basis")
    try:
        sub = SubspaceSpace(basis, NormedSpace(space, ambient_dim))
    except ValueError:  # a rank-deficient draw
        return
    expected = reference_norm_rows(space, np.asarray(m, dtype=float) @ sub.basis.T)
    assert same_bits(sub.norm_rows(m), expected)
    assert same_bits(m, before)


@pytest.mark.parametrize("name", ROW_FAMILIES)
def test_norm_rows_peak_memory_is_one_block(row_families, name):
    # the kernels work in place on one copy of |m|: the out-of-place
    # expressions peaked at 2 to 4 blocks
    space = row_families[name]
    m = np.random.default_rng(3).standard_normal((8192, 32))
    tracemalloc.start()
    try:
        space.norm_rows(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * m.nbytes


@pytest.mark.parametrize("name", ROW_FAMILIES)
def test_subspace_norm_rows_peak_memory_is_one_product(row_families, name):
    # the ambient kernel takes |.| in place in the fresh product m @ basis.T,
    # which held a second ambient-size copy of it (2.03x its bytes)
    rng = np.random.default_rng(4)
    sub = SubspaceSpace(rng.standard_normal((ROW_DIM_MAX, 32)),
                        NormedSpace(row_families[name], ROW_DIM_MAX))
    m = rng.standard_normal((8192, 32))
    before = m.copy()
    expected = sub.ambient.norm_rows(m @ sub.basis.T)
    tracemalloc.start()
    try:
        got = sub.norm_rows(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * m.shape[0] * ROW_DIM_MAX * 8
    assert same_bits(got, expected)
    assert same_bits(m, before)


def test_subspace_of_a_subspace_norm_rows():
    rng = np.random.default_rng(5)
    inner = SubspaceSpace(rng.standard_normal((9, 6)), parse_space("lp:3:9"))
    outer = SubspaceSpace(rng.standard_normal((6, 4)), inner)
    m = rng.standard_normal((7, 4))
    expected = inner.ambient.norm_rows((m @ outer.basis.T) @ inner.basis.T)
    assert same_bits(outer.norm_rows(m), expected)


@pytest.mark.parametrize("name", ["lp:1", "lp:1.5", "lp:2", "lp:inf", "lorentz:2:1",
                                  "lorentz:2:inf", "gweak:pow:0.5", "gweak:file"])
def test_integer_inputs_equal_their_float_copies(row_families, name):
    # abs in the input's dtype wrapped |-128| to -128 in int8: lp:1.5 gave
    # nan, lp:1 -127, lp:inf 1, and the lorentz:2:1 scalar norm 1.0
    space = row_families[name]
    for dtype in (np.int8, np.int64, np.bool_):
        m = np.array([[-128, 1, 0], [5, -7, 127], [0, 0, -1]]).astype(dtype)
        ref = m.astype(float)
        assert same_bits(space.norm_rows(m), space.norm_rows(ref))
        assert [space.norm(x) for x in m] == [space.norm(x) for x in ref]
        assert same_bits(NormedSpace(space, 3).norm_rows(m), space.norm_rows(ref))
    x = np.array([-128, 1], dtype=np.int8)
    assert same_bits(rearrange(x), np.array([128.0, 1.0]))
    assert lp(1).norm_rows(x[None])[0] == 129.0
    assert lp(math.inf).norm(x) == 128.0


@pytest.mark.parametrize("name", ["lp:1", "lp:1.5", "lp:2", "lp:inf", "lorentz:3:2",
                                  "lorentz:2:inf", "gweak:pow:0.5", "gweak:file"])
def test_normed_space_rows_equal_one_row_and_scalar_calls(row_families, name):
    # a NormedSpace takes its weights once, in __init__; every row of a
    # block must still read as its one-row call and its scalar form
    space = NormedSpace(row_families[name], 7)
    for kept, fresh in ((space._norm_weights, space.space._weights(7)),
                        (space._dual_weights, space.space._dual_weights(7))):
        assert (kept is None and fresh is None) or same_bits(kept, fresh)  # None for l_p
    m = np.random.default_rng(31).standard_normal((7, 7))
    before = m.copy()
    rows, duals = space.norm_rows(m), space.dual_upper_rows(m)
    assert same_bits(m, before)
    assert same_bits(rows, space.space.norm_rows(m))
    assert same_bits(duals, space.space.dual_upper_rows(m))
    for i, x in enumerate(m):
        assert same_bits(space.norm_rows(m[i:i + 1]), rows[i:i + 1])
        assert same_bits(space.dual_upper_rows(m[i:i + 1]), duals[i:i + 1])
        assert space.norm(x) == rows[i] and space.dual_upper(x) == duals[i]
    assert same_bits(m, before)


def test_subspace_kernel_is_built_once(monkeypatch):
    rng = np.random.default_rng(32)
    sub = SubspaceSpace(rng.standard_normal((9, 7)), parse_space("lorentz:3:2:9"))
    # norm_rows no longer asks the ambient space for its kernel
    monkeypatch.setattr(NormedSpace, "_row_kernel", lambda self: pytest.fail("rebuilt"))
    m = rng.standard_normal((7, 7))
    before = m.copy()
    rows, duals = sub.norm_rows(m), sub.dual_upper_rows(m)
    assert same_bits(m, before)
    # a block goes through one gemm with the basis, one row through a gemv,
    # which may round apart; each is the ambient norm of its own product
    assert same_bits(rows, sub.ambient.norm_rows(m @ sub.basis.T))
    for i, x in enumerate(m):
        one = sub.norm_rows(m[i:i + 1])
        assert same_bits(one, sub.ambient.norm_rows(m[i:i + 1] @ sub.basis.T))
        assert sub.norm(x) == one[0]
        assert same_bits(sub.dual_upper_rows(m[i:i + 1]), duals[i:i + 1])
        assert sub.dual_upper(x) == duals[i]
    assert same_bits(m, before)
