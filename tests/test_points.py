import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import sigma_nabla

from sigma_nabla.errors import (
    CocycleViolated,
    PreconditionFailed,
    SingularFrobenius,
)
from sigma_nabla.linalg import (
    _dot,
    _ring_int,
    mat_agree,
    mat_inv,
    mat_mul,
)
from sigma_nabla.padic import (
    IntPolynomial,
    PadicNumber,
    UnramifiedField,
)
from sigma_nabla.points import (
    PointFrobenius,
    _berkowitz,
    _rational_char_coeffs,
    average_projector,
    average_projector_group,
    block_companion,
    char_coeffs,
    frob_iterate,
    newton_slopes_frob,
    purity_check,
)

F = Fraction


def frac_mat(rows):
    return [[F(x) for x in row] for row in rows]


# ---------------------------------------------------------------------------
# frob_iterate.
# ---------------------------------------------------------------------------


def test_iterate_diag_square():
    m = frac_mat([[2, 0], [0, 3]])
    assert frob_iterate(m, 2) == frac_mat([[4, 0], [0, 9]])


def test_iterate_zero_is_identity():
    m = frac_mat([[2, 1], [1, 1]])
    assert frob_iterate(m, 0) == frac_mat([[1, 0], [0, 1]])


def test_iterate_negative_is_inverse():
    m = frac_mat([[2, 1], [1, 1]])
    prod = mat_mul(frob_iterate(m, -2), frob_iterate(m, 2))
    assert prod == frac_mat([[1, 0], [0, 1]])


def test_iterate_singular_negative():
    with pytest.raises(SingularFrobenius):
        frob_iterate(frac_mat([[1, 1], [1, 1]]), -1)


def test_iterate_twisted_toy():
    field = UnramifiedField(5, 2, 8)
    g = field.gen()
    m = [[field.zero(), field.one()], [g, field.zero()]]
    sq = frob_iterate(m, 2)
    direct = mat_mul(m, [[x.frobenius() for x in row] for row in m])
    assert mat_agree(sq, direct)


def test_iterate_cocycle(rng):
    for _ in range(10):
        m = frac_mat([[rng.randint(1, 5), rng.randint(0, 3)],
                      [rng.randint(0, 3), rng.randint(1, 5)]])
        a, b = rng.randint(0, 3), rng.randint(0, 3)
        lhs = frob_iterate(m, a + b)
        rhs = mat_mul(frob_iterate(m, a), frob_iterate(m, b)) \
            if a and b else frob_iterate(m, a + b)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# Projector averaging.
# ---------------------------------------------------------------------------


SWAP = frac_mat([[0, 1], [1, 0]])
PI_DIAG_SUM = frac_mat([[0, 1], [0, 1]])


def test_average_commuting_projector_unchanged():
    pi = frac_mat([[1, 0], [0, 0]])
    frob = frac_mat([[2, 0], [0, 3]])
    assert average_projector(pi, frob, 3) == pi


def test_average_swap_worked_example():
    out = average_projector(PI_DIAG_SUM, SWAP, 2)
    assert out == frac_mat([["1/2", "1/2"], ["1/2", "1/2"]])


def test_average_detects_unstable_image():
    with pytest.raises(PreconditionFailed) as exc:
        average_projector(frac_mat([[1, 0], [0, 0]]), SWAP, 2)
    assert exc.value.which == "image_not_stable"


def test_average_detects_non_idempotent():
    with pytest.raises(PreconditionFailed) as exc:
        average_projector(frac_mat([[1, 1], [0, 1]]), SWAP, 2)
    assert exc.value.which == "pi_not_idempotent"


def test_average_detects_non_endomorphism():
    # pi commutes with F^[1] trivially checked at n=1; build a case where
    # the image is stable for i < n but pi fails against F^[n]
    frob = frac_mat([[1, 0], [0, 2]])
    pi = frac_mat([[1, 1], [0, 0]])
    with pytest.raises(PreconditionFailed) as exc:
        average_projector(pi, frob, 2)
    assert exc.value.which in ("pi_not_endomorphism_of_iterate",
                               "image_not_stable")


def rand_valid_projector_instance(rng, size):
    """A projector commuting with a block-permutation Frobenius."""
    # F permutes two blocks; pi projects onto an F-stable subspace
    perm = list(range(size))
    rng.shuffle(perm)
    frob = [[F(int(perm[i] == j)) for j in range(size)]
            for i in range(size)]
    # projector onto the span of the all-ones vector (F-stable for any
    # permutation), along the coordinate complement
    col = [F(1)] * size
    pi = [[col[i] * F(1, size) for _ in range(size)] for i in range(size)]
    return pi, frob


def test_average_random_outputs_are_projectors(rng):
    for _ in range(10):
        size = rng.randint(2, 4)
        n = rng.randint(1, 4)
        pi, frob = rand_valid_projector_instance(rng, size)
        out = average_projector(pi, frob, n)
        assert mat_agree(mat_mul(out, out), out)
        assert mat_agree(mat_mul(pi, out), out)
        assert mat_agree(mat_mul(out, pi), pi)
        finv = frob_iterate(frob, -1)
        assert mat_agree(mat_mul(mat_mul(frob, out), finv), out)


def test_group_average_trivial_group():
    pi = frac_mat([[1, 0], [0, 0]])
    ident = frac_mat([[1, 0], [0, 1]])
    out = average_projector_group(pi, [("e", ident)], {("e", "e"): "e"})
    assert out == pi


def test_group_average_z2_swap():
    ident = frac_mat([[1, 0], [0, 1]])
    table = {("e", "e"): "e", ("e", "g"): "g",
             ("g", "e"): "g", ("g", "g"): "e"}
    out = average_projector_group(PI_DIAG_SUM,
                                  [("e", ident), ("g", SWAP)], table)
    assert out == frac_mat([["1/2", "1/2"], ["1/2", "1/2"]])


def test_group_average_cocycle_violation():
    ident = frac_mat([[1, 0], [0, 1]])
    bad = frac_mat([[1, 1], [0, 1]])
    table = {("e", "e"): "e", ("e", "g"): "g",
             ("g", "e"): "g", ("g", "g"): "e"}
    with pytest.raises(CocycleViolated):
        average_projector_group(PI_DIAG_SUM,
                                [("e", ident), ("g", bad)], table)


# ---------------------------------------------------------------------------
# Block companion.
# ---------------------------------------------------------------------------


def test_companion_scalar():
    comp = block_companion([[F(5)]], 2)
    assert comp == frac_mat([[0, 1], [5, 0]])
    assert frob_iterate(comp, 2) == frac_mat([[5, 0], [0, 5]])


def test_companion_n1_is_input():
    m = frac_mat([[1, 2], [3, 4]])
    assert block_companion(m, 1) == m


def test_companion_general(rng):
    for n in range(1, 7):
        for r in range(1, 4):
            f_g = [[F(rng.randint(-4, 4)) for _ in range(r)]
                   for _ in range(r)]
            f_g[0][0] += F(9)    # keep invertible-ish
            comp = block_companion(f_g, n)
            power = frob_iterate(comp, n)
            for bi in range(n):
                for bj in range(n):
                    block = [[power[bi * r + a][bj * r + b]
                              for b in range(r)] for a in range(r)]
                    if bi == bj:
                        assert block == f_g
                    else:
                        assert all(x == 0 for row in block for x in row)


# ---------------------------------------------------------------------------
# Slopes, purity, characteristic coefficients.
# ---------------------------------------------------------------------------


def padic_mat(rows, p=5, nrel=10):
    return [[PadicNumber.from_rational(p, nrel, F(x)) for x in row]
            for row in rows]


def test_slopes_mixed():
    poly = newton_slopes_frob(padic_mat([[1, 0], [0, 5]]))
    assert poly.multiset() == [F(0), F(1)]
    assert not poly.unit_root


def test_slopes_half():
    poly = newton_slopes_frob(padic_mat([[0, 5], [1, 0]]))
    assert poly.multiset() == [F(1, 2), F(1, 2)]


def test_unit_root_permutation():
    poly = newton_slopes_frob(padic_mat([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))
    assert poly.unit_root


def test_purity_examples():
    assert purity_check(IntPolynomial([1, -3, 4]), 4, 1, 1).pure
    v = purity_check(IntPolynomial([1, -5, 4]), 4, 1, 1)
    assert not v.pure and v.witness == pytest.approx(4.0)
    q, d = 3, 2
    assert purity_check(IntPolynomial([1] + [0] * (d - 1) + [-q ** d]),
                        q, d, 2).pure


# Factors that a relative tolerance of 1e-6 on float magnitudes called pure
# at w = 2 (magnitudes 10000.00005 and 3.0000000044): the product of their
# roots is 10^8 + 1, not Q = 10^8, and 3^16 + 1, not Q^8 = 3^16.
NEAR_THE_CIRCLE = [(IntPolynomial([1, 0, 10 ** 8 + 1]), 10 ** 4),
                   (IntPolynomial([1] + [0] * 15 + [3 ** 16 + 1]), 3)]


@pytest.mark.parametrize("poly, q", NEAR_THE_CIRCLE)
def test_purity_is_exact_near_the_circle(poly, q):
    verdict = purity_check(poly, q, 1, 2)
    assert not verdict.pure
    assert verdict.witness == pytest.approx(q, rel=1e-6)
    # the factor one step nearer, 1 + Q^(n/2) t^n, is pure
    top = IntPolynomial(poly.coeffs[:-1] + (poly.coeffs[-1] - 1,))
    assert purity_check(top, q, 1, 2).pure


def test_purity_of_weil_products(rng):
    """Products of Weil quadratics 1 - a s + Q s^2 with a^2 <= 4Q (a^2 = 4Q,
    a double root, among them when Q is a square) and of the real factors
    1 -+ sqrt(Q) s (square Q) or 1 - Q s^2 are pure, with s = t^deg.  One
    more or one less in the top coefficient makes them impure, and so does
    one more factor that keeps the functional equation but is off the
    circle: a real pair with a^2 just above 4Q, or the quadruple of
    alpha + Q/alpha = +-i."""
    for trial in range(200):
        q, w, deg = rng.choice([2, 3, 4, 5, 9]), rng.randint(1, 3), \
            rng.randint(1, 2)
        Q = q ** (w * deg)
        root, bound = math.isqrt(Q), math.isqrt(4 * Q)
        choices = [[1, -rng.randint(-bound, bound), Q]]
        if root * root == Q:
            choices += [[1, -2 * root, Q], [1, 2 * root, Q], [1, -root],
                        [1, root]]
        else:
            choices.append([1, 0, -Q])
        poly = IntPolynomial([1])
        for _ in range(rng.randint(1, 4)):
            poly = poly * IntPolynomial(rng.choice(choices))
        coeffs = list(poly.coeffs)
        assert purity_check(in_t_deg(coeffs, deg), q, deg, w).pure, \
            (trial, coeffs)
        for step in (1, -1):
            bent = coeffs[:-1] + [coeffs[-1] + step]
            assert not purity_check(in_t_deg(bent, deg), q, deg, w).pure, \
                (trial, bent)
        for off in ([1, rng.choice([-1, 1]) * (bound + 1), Q],
                    [1, 0, 2 * Q + 1, 0, Q * Q]):
            moved = list((poly * IntPolynomial(off)).coeffs)
            assert not purity_check(in_t_deg(moved, deg), q, deg, w).pure, \
                (trial, moved)


def in_t_deg(coeffs, deg):
    """sum(coeffs[i] s^i) at s = t^deg."""
    out = [0] * (deg * (len(coeffs) - 1) + 1)
    out[::deg] = coeffs
    return IntPolynomial(out)


def test_cli_import_leaves_numpy_out():
    # no library path needs numpy, and the command line does not need
    # click: with both imports blocked, the magnitudes, the purity verdict
    # and the purity command run all the same
    table = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures",
                         "charpoly", "table.json")
    code = "\n".join((
        "import sys",
        "sys.modules['numpy'] = None",
        "sys.modules['click'] = None",
        "import sigma_nabla.cli",
        "from sigma_nabla.padic import IntPolynomial, complex_root_magnitudes",
        "from sigma_nabla.points import purity_check",
        "mags = complex_root_magnitudes(IntPolynomial([1, 0, 0, -8]))",
        "assert [round(m, 12) for m in mags] == [2.0, 2.0, 2.0], mags",
        "assert purity_check(IntPolynomial([1, 0, 9]), 3, 1, 2).pure",
        "assert not purity_check(IntPolynomial([1, 0, 10]), 3, 1, 2).pure",
        "assert sigma_nabla.cli.main(['purity', '-w', '1', %r],"
        " standalone_mode=False) == 0" % table,
    ))
    src = os.path.dirname(os.path.dirname(sigma_nabla.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert '"verdict": "pure"' in out.stdout


def test_char_coeffs_examples():
    assert char_coeffs(frac_mat([[2, 0], [0, 3]])) == [F(1), F(-5), F(6)]
    assert char_coeffs(frac_mat([[0, 1], [7, 0]])) == [F(1), F(0), F(-7)]


def test_char_coeffs_conjugation_invariance(rng):
    for _ in range(15):
        n = rng.randint(2, 4)
        f = [[F(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        g = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            g[i][i] += F(7)
        try:
            ginv = mat_inv(g)
        except Exception:
            continue
        conj = mat_mul(mat_mul(g, f), ginv)
        assert char_coeffs(conj) == char_coeffs(f)


def test_rational_char_coeffs_integer_matrix_gives_ints():
    # d = 1: Berkowitz's integers come back as they are; char_coeffs
    # still returns Fractions, and other entries return None at the gate
    for mat in ([[2, 0], [0, 3]], frac_mat([[0, 1], [7, 0]]), [[-5]],
                [[1, F(4), 0], [2, 3, -1], [0, 6, 5]]):
        got = _rational_char_coeffs(mat)
        assert all(type(c) is int for c in got), mat
        want = char_coeffs(mat)
        assert all(type(c) is F for c in want), mat
        assert got == want
    assert _rational_char_coeffs(padic_mat([[1, 0], [0, 5]])) is None


def test_purity_invariant_under_conjugation():
    f = frac_mat([[0, -4], [1, 3]])       # char poly T^2 - 3T + 4
    g = frac_mat([[1, 1], [0, 1]])
    ginv = frac_mat([[1, -1], [0, 1]])
    conj = mat_mul(mat_mul(g, f), ginv)
    pf = PointFrobenius(4, 1, conj)
    assert purity_check(pf.local_polynomial(), 4, 1, 1).pure


def test_point_frobenius_local_polynomial_deg2():
    pf = PointFrobenius(4, 2, frac_mat([[2, 0], [0, 2]]))
    assert pf.local_polynomial() == IntPolynomial([1, 0, -4, 0, 4])


# ---------------------------------------------------------------------------
# Oracle: char_coeffs by the n!-term permutation expansion of det(T*I - F).
# ---------------------------------------------------------------------------


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _poly_mul_linear(poly, const, zero):
    # poly * (T + const), ascending coefficients
    out = [zero] * (len(poly) + 1)
    for k, c in enumerate(poly):
        out[k + 1] = out[k + 1] + c
        out[k] = out[k] + c * const
    return out


def permutation_char_coeffs(mat):
    n = len(mat)
    zero, one = _ring_int(0, mat[0][0]), _ring_int(1, mat[0][0])
    total = [zero] * (n + 1)
    for perm in itertools.permutations(range(n)):
        poly = [one]
        for i in range(n):
            entry_const = zero - mat[i][perm[i]]
            if perm[i] == i:
                poly = _poly_mul_linear(poly, entry_const, zero)
            else:
                poly = [c * entry_const for c in poly]
        if _perm_sign(perm) < 0:
            poly = [zero - c for c in poly]
        for k, c in enumerate(poly):
            total[k] = total[k] + c
    return list(reversed(total))


def conjugated_diagonal(rng, diag):
    """G * diag * G^-1 with G a random unit upper-triangular integer
    matrix, so the eigenvalues are the diagonal entries."""
    n = len(diag)
    g = [[F(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            g[i][j] = F(rng.randint(-3, 3))
    dmat = [[diag[i] if i == j else F(0) for j in range(n)]
            for i in range(n)]
    return mat_mul(mat_mul(g, dmat), mat_inv(g))


def test_char_coeffs_berkowitz_matches_permutations_fraction(rng):
    for n in range(1, 7):
        for _ in range(6):
            f = [[F(rng.randint(-5, 5), rng.choice([1, 1, 2, 3]))
                  for _ in range(n)] for _ in range(n)]
            assert char_coeffs(f) == permutation_char_coeffs(f), f


def test_char_coeffs_berkowitz_matches_permutations_padic(rng):
    # the slopes input: eigenvalues c_i p^a_i over Z_p, conjugated; the
    # claimed precision of every coefficient must match too
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        nrel = rng.choice([6, 12])
        n = rng.randint(1, 5)
        diag = []
        for _ in range(n):
            c = rng.randrange(1, p * p)
            while c % p == 0:
                c = rng.randrange(1, p * p)
            diag.append(F(c * p ** rng.randint(0, 2)))
        f = [[PadicNumber.from_rational(p, nrel, x) for x in row]
             for row in conjugated_diagonal(rng, diag)]
        got = char_coeffs(f)
        assert repr(got) == repr(permutation_char_coeffs(f)), f
        assert repr(got) == repr(ring_char_coeffs(f))


def test_char_coeffs_berkowitz_matches_permutations_unramified(rng):
    field = UnramifiedField(3, 2, 8)
    for _ in range(10):
        n = rng.randint(1, 4)
        f = [[field.scalar([rng.randint(-9, 9), rng.randint(-9, 9)])
              for _ in range(n)] for _ in range(n)]
        got, want = char_coeffs(f), permutation_char_coeffs(f)
        assert len(got) == len(want) == n + 1
        assert all(a.agrees(b) for a, b in zip(got, want)), f
        assert repr(got) == repr(ring_char_coeffs(f))


def ring_char_coeffs(mat):
    """Berkowitz on the entries themselves, through the left fold, from the
    zero and one of the ring of mat[0][0] (a Fraction for a rational one)."""
    like = mat[0][0]
    return _berkowitz(mat, _ring_int(0, like), _ring_int(1, like), _dot)


def test_char_coeffs_integer_path_matches_ring_path(rng):
    # rational matrices run on integers over one common denominator; the
    # ring path on Fractions is the reference
    dens = (1, 2, 3, 4, 7, 9, 1_000_003, 2 ** 61 - 1)

    def fraction():
        return F(rng.randint(-30, 30), rng.choice(dens))

    def mixed():
        return rng.choice((rng.randint(-9, 9), fraction()))

    entries = (lambda: rng.randint(-9, 9), fraction, mixed)
    cases = [[[0]], [[F(-7, 3)]], [[2 ** 61 - 1]], [[0] * 3 for _ in range(3)],
             [[F(0)] * 4 for _ in range(4)]]
    for n in range(1, 9):
        for entry in entries:
            for _ in range(2):
                cases.append([[entry() for _ in range(n)] for _ in range(n)])
    for mat in cases:
        got = char_coeffs(mat)
        assert got == ring_char_coeffs(mat), mat
        assert len(got) == len(mat) + 1
        assert all(type(c) is F for c in got), mat


def fraction_local_polynomial(mat, deg):
    """det(1 - t^deg * F) through Berkowitz on the Fraction entries, each
    coefficient turned back into an int when integral."""
    coeffs = ring_char_coeffs([[F(x) for x in row] for row in mat])
    expanded = []
    for c in coeffs:
        expanded.extend([c] + [0] * (deg - 1))
    return IntPolynomial(expanded[:len(coeffs) * deg - (deg - 1)])


def test_local_polynomial_integer_path_matches_fraction_path(rng):
    # the local polynomial takes Berkowitz's integers over d^k directly;
    # the ring path on Fractions is the reference, value and type (int
    # when integral) alike
    dens = (1, 2, 3, 4, 7, 9, 1_000_003, 2 ** 61 - 1)

    def fraction():
        return F(rng.randint(-30, 30), rng.choice(dens))

    def mixed():
        return rng.choice((rng.randint(-9, 9), fraction()))

    entries = (lambda: rng.randint(-9, 9), fraction, mixed)
    cases = [[[0]], [[F(-7, 3)]], [[F(1, 2 ** 61 - 1)]],
             [[F(0)] * 4 for _ in range(4)]]
    for n in range(1, 9):
        for entry in entries:
            for _ in range(2):
                cases.append([[entry() for _ in range(n)] for _ in range(n)])
    for mat in cases:
        for deg in (1, 2):
            got = PointFrobenius(2, deg, mat).local_polynomial().coeffs
            want = fraction_local_polynomial(mat, deg).coeffs
            assert got == want, mat
            assert [type(c) for c in got] == [type(c) for c in want], mat


def test_point_frobenius_local_polynomial_rank_10(rng):
    lams = [F(rng.choice([-3, -2, -1, 1, 2, 3, 4, 5])) for _ in range(10)]
    expected = IntPolynomial([1])
    for lam in lams:
        expected = expected * IntPolynomial([1, -lam])
    f = conjugated_diagonal(rng, lams)
    assert PointFrobenius(2, 1, f).local_polynomial() == expected
