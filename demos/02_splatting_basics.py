"""
Gaussian kernels and probabilistic splatting
============================================

Sample points become anisotropic Gaussians, and Gaussians become occupancy
by evaluating every kernel at nearby voxel centers. The score at a voxel is
1 - prod(1 - opacity * kernel): bounded, monotone, and zero far from all
kernels, so empty space stays empty by construction.
"""

import numpy as np

import splatocc as so

# One anisotropic Gaussian, a one-row GaussianSet: per-axis scales, quaternion
# orientation (w first), an opacity, and class logits (class 0 is reserved
# for "empty"). The world frame tag lets it splat.
g = so.GaussianSet(
    means=[0.8, 0.8, 0.4],
    scales=[0.2, 0.08, 0.08],
    rotations=[1.0, 0.0, 0.0, 0.0],
    opacities=0.9,
    logits=[0, 0, 0, 0, 0, 6.0],
    frame="world",
)
mean = g.means[0]

# Kernel values come from splat: one kernel of opacity 1 scores its own value
# at each voxel center. Centers 0.04 m apart, the first on the mean, reach one
# sigma along x (5 voxels) and the same Mahalanobis step along y (2 voxels).
unit = so.GaussianSet.from_covariances(g.means, g.cov, [1.0], g.logits, frame="world")
probe = so.splat(unit, so.GridSpec((6, 3, 1), 0.04, mean - 0.02, num_classes=6)).scores
at_mean, sigma_x, sigma_y = probe[0, 0, 0], probe[5, 0, 0], probe[0, 2, 0]
print("kernel at its own mean:     ", at_mean)
print("kernel one sigma away in x: ", sigma_x)
print("same Mahalanobis step in y: ", sigma_y)
print("covariance eigenvalues:     ", np.sort(np.linalg.eigvalsh(g.cov[0])))

# Splat a single kernel into a small grid and look at a horizontal slice.
spec = so.GridSpec((16, 16, 8), 0.1, np.zeros(3), num_classes=6)
grid = so.splat(g, spec)

iz = 4
print(f"\noccupancy scores, slice z={iz} (tenths, '.' = 0):")
for row in grid.scores[:, :, iz].T[::-1]:
    print("  " + "".join("." if s < 0.05 else str(min(9, int(s * 10))) for s in row))

# Culling: the kernel only reaches voxel centers within 7 standard deviations.
touched = np.argwhere(grid.scores > 0)
print(f"\nnonzero scores span voxels {touched.min(axis=0)} .. {touched.max(axis=0) + 1} (half-open)")

# Superposition is monotone: adding a second kernel never lowers any score.
# The third, faint kernel is for the pruning step below.
trio = so.GaussianSet(
    means=[mean, [0.5, 0.8, 0.4], [1.2, 1.2, 0.4]],
    scales=[[0.2, 0.08, 0.08], [0.1] * 3, [0.1] * 3],
    rotations=[[1, 0, 0, 0]] * 3,
    opacities=[0.9, 0.7, 0.005],
    logits=[g.logits[0], [0, 0, 6.0, 0, 0, 0], [0, 6.0, 0, 0, 0, 0]],
    frame="world",
)
both = so.splat(trio.subset([0, 1]), spec)
print("monotone superposition:", bool(np.all(both.scores >= grid.scores - 1e-12)))
print("max score with overlap:", both.scores.max(), "(never exceeds 1)")

# Opacity pruning drops faint kernels before splatting.
kept = so.prune(trio, tau=0.01)
print(f"\npruning at tau=0.01 keeps {len(kept)} of {len(trio)} kernels")
