"""Random-length sums: when the index concentrates, the CLT survives.

Samples S_nu for a uniform iid array under two indices with the same
mean.  The Poisson index concentrates (spread / mean -> 0), so the
random sum converges to the standard normal.  The geometric index keeps
relative spread, the variance mixture never collapses, and the distance
parks at a positive constant no matter how large n gets.
"""

import numpy as np

import randsum as rs

array = rs.array_from_config(
    {"array": "iid", "base": {"family": "uniform", "low": -1.0, "high": 1.0}}
)

rng_pool = rs.spawn_streams(2024, 8)
print(f"{'n':>6s} {'poisson KS':>12s} {'geometric KS':>13s}   (DKW bound {rs.dkw_bound(50_000):.4f})")
for i, n in enumerate((16, 64, 256, 1024)):
    pois = rs.index_from_config({"family": "poisson", "mean": "n"}, n)
    geom = rs.index_from_config({"family": "geometric", "mean": "n"}, n)
    d_p = rs.empirical_delta(array, pois, n, rng_pool[2 * i], samples=50_000)
    d_g = rs.empirical_delta(array, geom, n, rng_pool[2 * i + 1], samples=50_000)
    print(f"{n:6d} {d_p.value:12.4f} {d_g.value:13.4f}")

print()
print("The geometric column stalls near 0.068, the distance between the")
print("Laplace-type variance mixture and the normal; that plateau is the")
print("index's relative spread showing through, not sampling noise.")

# the index-weighted mixture of per-length distances bounds the random sum's distance above
n = 256
pois = rs.index_from_config({"family": "poisson", "mean": "n"}, n)
mix = rs.delta_mixture(array, pois, n, rng=np.random.default_rng(5))
# uniform rows have no exact per-length law, so each length is sampled
how = "exact" if mix.params["per_k"] == 1.0 else "sampled per length k"
print(f"\nindex-weighted mixture distance at n={n} ({how}): "
      f"{mix.value:.4f} (+/- {mix.bound:.4f}, {mix.method})")
