"""Seeded generator of the code files the benchmark hands to the program.

Everything here is plain numpy written against the documented code-file
grammar (header ``p=<prime> n=<count> format=symplectic``, then one
``a_1 ... a_n | b_1 ... b_n`` line per generator). The program under test
is never asked to build its own inputs, apart from the ``builtin:`` specs
a user would also type.

Each generator returns a generator matrix over F_p with rows (a | b) of
length 2n; ``write_code`` writes one to a file.
"""

from __future__ import annotations

import numpy as np


def qudit_bacon_shor(p: int, l: int) -> np.ndarray:
    """Bacon-Shor on an l x l grid of p-level qudits.

    Row-adjacent sites carry X X^-1 gauge pairs, column-adjacent sites
    Z Z^-1 pairs; at p = 2 this is the usual qubit code.
    """
    n = l * l
    rows = []
    for i in range(l):
        for j in range(l - 1):
            v = np.zeros(2 * n, dtype=np.int64)
            v[i * l + j], v[i * l + j + 1] = 1, p - 1
            rows.append(v)
    for i in range(l - 1):
        for j in range(l):
            v = np.zeros(2 * n, dtype=np.int64)
            v[n + i * l + j], v[n + (i + 1) * l + j] = 1, p - 1
            rows.append(v)
    return np.array(rows, dtype=np.int64)


def five_qudit(p: int) -> np.ndarray:
    """The [[5,1,0]]_p code with d = 3: cyclic shifts of X Z Z^-1 X^-1 I."""
    site = [(1, 0), (0, 1), (0, p - 1), (p - 1, 0), (0, 0)]
    rows = []
    for shift in range(4):
        v = np.zeros(10, dtype=np.int64)
        for j, (a, b) in enumerate(site):
            v[(j + shift) % 5], v[5 + (j + shift) % 5] = a, b
        rows.append(v)
    return np.array(rows, dtype=np.int64)


FIVE_QUBIT = ("ZXXZI", "IZXXZ", "ZIZXX", "XZIZX")


def five_qubit() -> np.ndarray:
    """The [[5,1,0]] qubit code, from the same Pauli strings as the paper."""
    letters = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
    rows = []
    for word in FIVE_QUBIT:
        pairs = [letters[c] for c in word]
        rows.append([a for a, _ in pairs] + [b for _, b in pairs])
    return np.array(rows, dtype=np.int64)


def random_gauge(p: int, n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """`dim` uniformly random generators in F_p^{2n}."""
    return rng.integers(0, p, size=(dim, 2 * n), dtype=np.int64)


def doubled(gens: np.ndarray, p: int) -> np.ndarray:
    """Generator-level doubling map: (a|b) -> (a||b | 0) and (0 | b||-a)."""
    n = gens.shape[1] // 2
    rows = []
    for g in gens:
        a, b = g[:n], g[n:]
        zero = np.zeros(2 * n, dtype=np.int64)
        rows.append(np.concatenate([a, b, zero]))
        rows.append(np.concatenate([zero, b, (-a) % p]))
    return np.array(rows, dtype=np.int64)


def write_code(path: str, gens: np.ndarray, p: int, note: str) -> None:
    n = gens.shape[1] // 2
    lines = [f"# {note}", f"p={p} n={n} format=symplectic"]
    for g in gens % p:
        a = " ".join(str(int(v)) for v in g[:n])
        b = " ".join(str(int(v)) for v in g[n:])
        lines.append(f"{a} | {b}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
