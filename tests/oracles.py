"""Independent reference implementations used as test oracles.

Everything here is deliberately written against field scalar operations
only, with no shared code paths with the package's vectorized
implementations, and this module imports nothing from the package. The
scan oracles form their words through sum and product tables filled from
the scalar operations; numpy only indexes those tables. The field's
scalar and vectorized products read the same discrete-log tables, so
products have their own oracle, :func:`ref_mul`, which multiplies
polynomials over F_p and never touches those tables; tests check the
field's products against it.
"""

from __future__ import annotations

import itertools

import numpy as np


def ref_mul(field, a, b):
    """Schoolbook product of two element indices as polynomials over F_p
    (base-p digits, constant first), reduced modulo the monic field.modulus."""
    p, e, mod = field.p, field.e, field.modulus
    da = [a // p**i % p for i in range(e)]
    db = [b // p**i % p for i in range(e)]
    prod = [0] * (2 * e - 1)
    for i in range(e):
        for j in range(e):
            prod[i + j] = (prod[i + j] + da[i] * db[j]) % p
    for d in range(2 * e - 2, e - 1, -1):
        c = prod[d]
        for t in range(e + 1):
            prod[d - e + t] = (prod[d - e + t] - c * mod[t]) % p
    return sum(prod[i] * p**i for i in range(e))


def ref_rref(field, M):
    """Textbook RREF over a field, one scalar operation at a time."""
    M = [[int(x) for x in row] for row in np.asarray(M)]
    rows = len(M)
    cols = len(M[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        sel = None
        for i in range(r, rows):
            if M[i][c] != 0:
                sel = i
                break
        if sel is None:
            continue
        M[r], M[sel] = M[sel], M[r]
        g = field.inv(M[r][c])
        M[r] = [field.mul(g, x) for x in M[r]]
        for i in range(rows):
            if i != r and M[i][c] != 0:
                fac = M[i][c]
                M[i] = [field.sub(M[i][j], field.mul(fac, M[r][j])) for j in range(cols)]
        pivots.append(c)
        r += 1
    return np.array(M, dtype=np.int32).reshape(rows, cols), tuple(pivots)


def ref_rowspace(field, M):
    """Every vector of the row space, as a set of tuples (exponential)."""
    M = np.asarray(M)
    rows = M.shape[0]
    out = set()
    for coeffs in itertools.product(range(field.q), repeat=rows):
        v = [0] * M.shape[1]
        for coef, row in zip(coeffs, M):
            for j in range(M.shape[1]):
                v[j] = field.add(v[j], field.mul(coef, int(row[j])))
        out.add(tuple(v))
    return out


def ref_orthogonal(field, M):
    """Every vector orthogonal to all rows of M, as a set of tuples (exponential)."""
    M = np.asarray(M)
    out = set()
    for v in itertools.product(range(field.q), repeat=M.shape[1]):
        for row in M:
            dot = 0
            for x, y in zip(v, row):
                dot = field.add(dot, field.mul(x, int(y)))
            if dot:
                break
        else:
            out.add(v)
    return out


def ref_matmul(field, A, B):
    """Triple-loop exact matrix product."""
    A = np.asarray(A)
    B = np.asarray(B)
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int32)
    for i in range(A.shape[0]):
        for j in range(B.shape[1]):
            acc = 0
            for t in range(A.shape[1]):
                acc = field.add(acc, field.mul(int(A[i, t]), int(B[t, j])))
            out[i, j] = acc
    return out


def ref_projective_points(q: int, n: int):
    """Standard representatives of P^n(F_q), prime q only.

    Stratified: leading coordinate 1 moves rightward; within a stratum,
    lexicographic with the last coordinate fastest.
    """
    points = []
    for lead in range(n + 1):
        for tail in itertools.product(range(q), repeat=n - lead):
            points.append((0,) * lead + (1,) + tail)
    return points


def ref_evaluate(exponents, points, q: int):
    """Evaluate a monomial at integer points mod prime q, with 0^0 = 1."""
    out = []
    for pt in points:
        val = 1
        for coord, exp in zip(pt, exponents):
            if exp > 0:
                val = val * pow(coord, exp, q) % q
        out.append(val)
    return out


def ref_words(field, G):
    """All q^K words mG, one row per message, the last symbol fastest.

    The words are formed through q x q sum and product tables filled from
    the field's scalar add and mul; numpy only indexes those tables.
    """
    G = np.asarray(G)
    K, N = G.shape
    q = field.q
    add = np.array([[field.add(a, b) for b in range(q)] for a in range(q)])
    mul = np.array([[field.mul(a, b) for b in range(q)] for a in range(q)])
    msgs = np.array(list(itertools.product(range(q), repeat=K)), dtype=np.intp)
    words = np.zeros((q**K, N), dtype=np.intp)
    for coef, row in zip(msgs.reshape(q**K, K).T, G):
        words = add[words, mul[coef[:, None], row]]
    return words


def ref_weight_distribution(field, G):
    """Exhaustive weight counts over all q^K messages."""
    words = ref_words(field, G)
    weights = np.count_nonzero(words, axis=1)
    return np.bincount(weights, minlength=words.shape[1] + 1).tolist()


def ref_supports(field, G, w):
    """Sorted supports of the weight-w words, over all q^K messages."""
    words = ref_words(field, G)
    words = words[np.count_nonzero(words, axis=1) == w]
    return tuple(sorted({tuple(np.flatnonzero(x).tolist()) for x in words}))
