"""Seeded input for the ``estimate-strata`` workload: many small strata.

Strata are laid out by count, not by draw, so the design is the same for
every seed: only the treatment positions, outcomes, selection and the
covariate change. The seven stratum types give treated shares 1/3, 1/2, 2/5
and 2/3; the (3, 1) strata have a single treated unit and the (3, 2) strata a
single control, and both counts are forced odd so the design variance takes
the odd-leftover pairing path in both arms.

Uses numpy only. ``generate`` returns the arrays the checks work from;
``write_csv`` writes them in the program's input format (``repr`` floats, so
parsing gives back the identical values).
"""

from __future__ import annotations

import csv

import numpy as np

# (size, treated) and share of the strata
STRATUM_TYPES = (
    ((3, 1), 0.25),
    ((3, 2), 0.25),
    ((4, 2), 0.20),
    ((5, 2), 0.15),
    ((6, 2), 0.05),
    ((6, 3), 0.05),
    ((6, 4), 0.05),
)
N_STRATA = 10_000
RATE_TREATED = 0.85  # selection probability, treated arm
RATE_CONTROL = 0.70  # selection probability, control arm


def stratum_counts(n_strata: int) -> list[int]:
    """Strata per type; both singleton types get an odd count."""
    counts = [int(share * n_strata) for _, share in STRATUM_TYPES]
    for i in (0, 1):
        if counts[i] % 2 == 0:
            counts[i] += 1
    counts[2] += n_strata - sum(counts)
    return counts


def generate(seed: int, n_strata: int = N_STRATA) -> dict:
    """Arrays y (nan when unobserved), s, d, x1, codes, labels and sizes."""
    rng = np.random.default_rng(seed)
    kinds = np.repeat(np.arange(len(STRATUM_TYPES)), stratum_counts(n_strata))
    kinds = kinds[rng.permutation(n_strata)]
    size_of = np.array([t[0][0] for t in STRATUM_TYPES])
    treated_of = np.array([t[0][1] for t in STRATUM_TYPES])
    sizes = size_of[kinds]
    treated = treated_of[kinds]

    n = int(sizes.sum())
    codes = np.repeat(np.arange(n_strata), sizes)
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    pos = np.arange(n) - starts[codes]
    # a random rank inside each stratum; the lowest t_g ranks are treated
    order = np.lexsort((rng.random(n), codes))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = pos
    d = (rank < treated[codes]).astype(np.int64)

    centre = rng.standard_normal(n_strata)
    x1 = centre[codes] + 0.5 * rng.standard_normal(n)
    y_full = 1.0 + 2.0 * x1 + rng.standard_normal(n) + 1.0 * d
    u = rng.random(n)
    s = np.where(d == 1, u < RATE_TREATED, u < RATE_CONTROL).astype(np.int64)
    y = np.where(s == 1, y_full, np.nan)

    width = len(str(n_strata - 1))
    labels = [f"g{g:0{width}d}" for g in range(n_strata)]
    return {
        "y": y, "s": s, "d": d, "x1": x1, "codes": codes,
        "labels": labels, "sizes": sizes, "treated": treated,
    }


def write_csv(arrays: dict, path: str) -> None:
    """Write columns y,s,d,block,x1; an unobserved outcome is an empty cell."""
    labels = arrays["labels"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("y", "s", "d", "block", "x1"))
        for y, s, d, g, x in zip(
            arrays["y"].tolist(), arrays["s"].tolist(), arrays["d"].tolist(),
            arrays["codes"].tolist(), arrays["x1"].tolist(),
        ):
            writer.writerow(("" if s == 0 else repr(y), s, d, labels[g], repr(x)))
