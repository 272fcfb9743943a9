"""Independent reference implementations used to cross-check the library.

Everything here deliberately recomputes results along a different code path
than the module it checks: LU matrix inverses instead of closed-form Cholesky,
full all-pairs evaluation instead of culling, linear scans instead of spatial
hashes, prefix enumeration instead of closed-form gradients.
"""

import numpy as np


def quat_to_matrix(q):
    """Standalone quaternion (w, x, y, z) to rotation matrix."""
    w, x, y, z = np.asarray(q, dtype=np.float64)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def softmax_rows(z):
    z = np.asarray(z, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def dense_covariance(scale, rotation):
    rot = quat_to_matrix(rotation)
    return rot @ np.diag(np.asarray(scale, dtype=np.float64) ** 2) @ rot.T


def dense_evaluate(mean, cov, points):
    """Kernel values via an explicit (LU) inverse of the covariance."""
    inv = np.linalg.inv(np.asarray(cov, dtype=np.float64))
    d = np.atleast_2d(points) - np.asarray(mean, dtype=np.float64)
    m2 = np.einsum("ij,jk,ik->i", d, inv, d)
    return np.exp(-0.5 * m2)


def naive_splat(gset, spec, theta_occ=0.5):
    """All-pairs splat: every Gaussian against every voxel center, no
    culling, in chunks of Gaussians with a batched LU inverse of each
    covariance. Returns (scores, labels, masses) as flat arrays."""
    centers = spec.voxel_centers()
    free = np.ones(len(centers))
    masses = np.zeros((len(centers), gset.num_classes))
    chunk = max(1, 2**16 // len(centers))
    for lo in range(0, len(gset), chunk):
        rows = slice(lo, lo + chunk)
        diff = centers[None, :, :] - gset.means[rows, None, :]
        m2 = np.einsum("gvi,gvi->gv", diff @ np.linalg.inv(gset.cov[rows]), diff)
        contrib = gset.opacities[rows, None] * np.exp(-0.5 * m2)
        free *= np.prod(1.0 - contrib, axis=0)
        masses += contrib.T @ softmax_rows(gset.logits[rows])
    scores = 1.0 - free
    semantic = masses[:, 1:]
    labels = np.where(
        (scores >= theta_occ) & (semantic.max(axis=1) > 0),
        semantic.argmax(axis=1) + 1,
        0,
    )
    return scores, labels, masses


# Box radius, in standard deviations, of the standalone culling query.
CULL_MAHALANOBIS = 3.0


def neighbor_cull(g, spec, mahalanobis=CULL_MAHALANOBIS):
    """Voxel index box (lo, hi half-open) that covers every center within
    ``mahalanobis`` standard deviations of the first member of GaussianSet g.

    Conservative: uses the axis-aligned bound mahalanobis * max(scale), which
    contains the rotated ellipsoid. Clipped to the grid; both corners are
    zero when the box is empty.
    """
    mean, scale = g.means[0], g.scales[0]
    radius = mahalanobis * float(np.max(scale)) / spec.voxel_size
    lo = np.zeros(3, dtype=np.int64)
    hi = np.zeros(3, dtype=np.int64)
    for a in range(3):
        t = (mean[a] - spec.origin[a]) / spec.voxel_size - 0.5
        lo[a] = min(max(int(np.ceil(t - radius - 1e-9)), 0), spec.dims[a])
        hi[a] = min(max(int(np.floor(t + radius + 1e-9)) + 1, 0), spec.dims[a])
    if np.any(hi <= lo):
        lo[:] = hi[:] = 0
    return lo, hi


def classify_voxel(score, masses, theta_occ=0.5):
    """Label for one voxel: 0 when the score is below theta_occ, otherwise
    the semantic class (1..num_classes-1) with the largest mass; ties break
    to the lowest class id."""
    masses = np.asarray(masses, dtype=np.float64)
    if masses.ndim != 1 or masses.size < 2 or np.any(masses < 0):
        raise ValueError("masses must be a non-negative vector of length >= 2")
    if score < theta_occ:
        return 0
    semantic = masses[1:]
    if not np.any(semantic > 0):
        return 0
    return int(np.argmax(semantic)) + 1


def linear_radius_scan(means, center, eps):
    """Brute-force closed-ball neighbor search."""
    diff = np.asarray(means, dtype=np.float64) - np.asarray(center, dtype=np.float64)
    return np.flatnonzero(np.einsum("ij,ij->i", diff, diff) <= eps * eps)


def linear_nearest_within(means, queries, eps):
    """Brute-force nearest member within the closed ball of radius eps, per
    query row, or -1. Ties break to the lowest id."""
    out = np.full(len(queries), -1, dtype=np.int64)
    for i, q in enumerate(np.asarray(queries, dtype=np.float64)):
        within = linear_radius_scan(means, q, eps)
        if within.size:
            diff = np.asarray(means, dtype=np.float64)[within] - q
            out[i] = within[np.argmin(np.einsum("ij,ij->i", diff, diff))]
    return out


def cell_pairs(points, centers, radius, cell_size, z_split, reach=1.0, shift=(0, 0, 0)):
    """Brute-force (query row, member id) pairs of a grid index, member by
    member: a member pairs with a query when its cell lies in the cells of
    the query ball's bounding box, with the radius stretched by ``reach``, on
    every axis. Fine cells are ``cell_size`` wide in x and y and
    ``cell_size / z_split`` tall in z; an index coarsened by ``shift`` reads
    cells floor(fine / 2^shift). Sorted by row, then id."""
    scale = np.array([1.0, 1.0, z_split])
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)

    def cells(p):
        fine = np.floor(np.asarray(p, dtype=np.float64) * (1.0 / cell_size) * scale)
        return [int(v) // 2 ** s for v, s in zip(fine, shift)]

    member_cells = [cells(p) for p in points]
    rows, ids = [], []
    for row, c in enumerate(np.asarray(centers, dtype=np.float64).reshape(-1, 3)):
        lo, hi = cells(c - radius * reach), cells(c + radius * reach)
        for i, m in enumerate(member_cells):
            if all(a <= v <= b for a, v, b in zip(lo, m, hi)):
                rows.append(row)
                ids.append(i)
    return np.array(rows, dtype=np.int64), np.array(ids, dtype=np.int64)


def projection_frustum_mask(spec, cam, near, far):
    """Per-voxel projection test written against the camera matrix directly."""
    centers = spec.voxel_centers()
    mask = np.zeros(len(centers), dtype=bool)
    r_inv = cam.pose.rotation.T
    for i, c in enumerate(centers):
        local = r_inv @ (c - cam.pose.translation)
        if local[2] <= 0:
            continue
        u = cam.fx * local[0] / local[2] + cam.cx
        v = cam.fy * local[1] / local[2] + cam.cy
        dist = float(np.linalg.norm(local))
        mask[i] = (0 <= u < cam.width) and (0 <= v < cam.height) and (near <= dist <= far)
    return mask.reshape(spec.dims)


def tally_confusion(pred_labels, gt_labels, mask, num_classes):
    """Scalar per-voxel tallying of TP/FP/FN plus binary occupied counts."""
    tp = np.zeros(num_classes, dtype=np.int64)
    fp = np.zeros(num_classes, dtype=np.int64)
    fn = np.zeros(num_classes, dtype=np.int64)
    occ_tp = occ_fp = occ_fn = 0
    for p, g, m in zip(pred_labels.ravel(), gt_labels.ravel(), mask.ravel()):
        if not m:
            continue
        p, g = int(p), int(g)
        if p == g and p != 0:
            tp[p] += 1
        elif p != g:
            if p != 0:
                fp[p] += 1
            if g != 0:
                fn[g] += 1
        if p != 0 and g != 0:
            occ_tp += 1
        elif p != 0:
            occ_fp += 1
        elif g != 0:
            occ_fn += 1
    return tp, fp, fn, occ_tp, occ_fp, occ_fn


def lovasz_prefix_extension(errors, fg):
    """Lovasz extension by enumerating sorted prefixes of the Jaccard error
    set function: sum_i e_(i) * (Delta(S_i) - Delta(S_{i-1}))."""
    errors = np.asarray(errors, dtype=np.float64)
    fg = np.asarray(fg, dtype=np.float64)
    order = np.argsort(-errors, kind="stable")
    e = errors[order]
    f = fg[order]
    total_fg = f.sum()

    def delta(k):
        missed = f[:k].sum()
        extra = k - missed
        union = total_fg + extra
        if union == 0:
            return 0.0
        return 1.0 - (total_fg - missed) / union

    total = 0.0
    prev = delta(0)
    for i in range(len(e)):
        cur = delta(i + 1)
        total += e[i] * (cur - prev)
        prev = cur
    return total


def central_difference_gradient(func, x, h=1e-5):
    """Componentwise central differences of a scalar function."""
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    out = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = func(x)
        flat[i] = orig - h
        fm = func(x)
        flat[i] = orig
        out[i] = (fp - fm) / (2.0 * h)
    return grad


def slab_ray_box(origin, direction, lo, hi):
    """Branchy per-axis slab intersection; returns (t_enter, t_exit) or None."""
    tmin, tmax = -np.inf, np.inf
    for a in range(3):
        d = direction[a]
        if d == 0.0:
            if not lo[a] <= origin[a] <= hi[a]:
                return None
            continue
        t1 = (lo[a] - origin[a]) / d
        t2 = (hi[a] - origin[a]) / d
        if t1 > t2:
            t1, t2 = t2, t1
        tmin = max(tmin, t1)
        tmax = min(tmax, t2)
        if tmin > tmax:
            return None
    return tmin, tmax


def random_gaussian_set(rng, n, num_classes, span=1.6, scale_range=(0.02, 0.3), frame="world"):
    from splatocc.gaussians import GaussianSet

    return GaussianSet(
        means=rng.uniform(0.0, span, (n, 3)),
        scales=rng.uniform(scale_range[0], scale_range[1], (n, 3)),
        rotations=rng.normal(size=(n, 4)),
        opacities=rng.uniform(0.0, 1.0, n),
        logits=rng.normal(size=(n, num_classes)),
        frame=frame,
    )


def random_rigid(rng):
    from splatocc.camera import RigidTransform
    from splatocc import quaternions

    q = quaternions.normalize(rng.normal(size=4))
    return RigidTransform(quaternions.to_matrix(q), rng.uniform(-2.0, 2.0, 3))
