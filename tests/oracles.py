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


def einsum_coefficients(means, cov, lo, spec):
    """(n, 10) quadratic-form coefficients of splat's boxes in the (n, 3, 3)
    form: the full closed-form Cholesky precision P = W^T W, then P corner
    and corner' P corner by ``einsum``. splat forms them from P's six unique
    entries and must match this bit for bit."""
    a, b, c = cov[:, 0, 0], cov[:, 1, 1], cov[:, 2, 2]
    d, e, f = cov[:, 0, 1], cov[:, 0, 2], cov[:, 1, 2]
    l00 = np.sqrt(a)
    l10, l20 = d / l00, e / l00
    l11 = np.sqrt(b - l10 * l10)
    l21 = (f - l20 * l10) / l11
    w00, w11, w22 = 1.0 / l00, 1.0 / l11, 1.0 / np.sqrt(c - l20 * l20 - l21 * l21)
    w10, w21 = -l10 * w00 * w11, -l21 * w11 * w22
    w20 = -(l20 * w00 + l21 * w10) * w22
    p01, p02, p12 = w10 * w11 + w20 * w21, w20 * w22, w21 * w22
    prec = np.stack((w00 * w00 + w10 * w10 + w20 * w20, p01, p02, p01, w11 * w11 + w21 * w21,
                     p12, p02, p12, w22 * w22), axis=-1).reshape(-1, 3, 3)
    corner = spec.origin + (lo + 0.5) * spec.voxel_size - means
    pc = np.einsum("nij,nj->ni", prec, corner)
    coef = np.empty((len(prec), 10))
    coef[:, 0] = np.einsum("ni,ni->n", corner, pc)
    coef[:, 1:4] = 2.0 * spec.voxel_size * pc
    np.multiply(spec.voxel_size * spec.voxel_size, prec[:, [0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2]],
                out=coef[:, 4:])
    coef[:, 7:] *= 2.0
    return coef


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


def sequential_fuse(bank, incoming, eps, gamma):
    """Brute-force fusion of one frame, anchor by anchor: (means, cov,
    opacities, logits) of the bank GaussianSet ``bank`` after fusing
    ``incoming``. Each incoming takes its anchor from linear_nearest_within;
    an anchor's weighted sums start from 0.0 and add its matches one at a
    time in incoming order, and

        theta <- (gamma p_mem theta_mem + sum_j (1 - gamma) p_j theta_j)
                 / (gamma p_mem + sum_j (1 - gamma) p_j),

    p being the largest softmax probability. Unmatched incoming are
    appended in incoming order."""
    fields = ("means", "cov", "opacities", "logits")
    out = {name: np.array(getattr(bank, name), dtype=np.float64) for name in fields}
    anchors = linear_nearest_within(bank.means, incoming.means, eps)

    def confidence(logits):
        return float(softmax_rows(np.asarray(logits)[None, :]).max())

    for a in sorted(set(anchors[anchors >= 0].tolist())):
        sum_w = 0.0
        sums = {name: np.zeros_like(out[name][a]) for name in fields}
        for j in np.flatnonzero(anchors == a):
            w = (1.0 - gamma) * confidence(incoming.logits[j])
            sum_w += w
            for name in fields:
                sums[name] += w * getattr(incoming, name)[j]
        w_mem = gamma * confidence(bank.logits[a])
        for name in fields:
            out[name][a] = (w_mem * out[name][a] + sums[name]) / (w_mem + sum_w)
    new = anchors < 0
    return tuple(np.concatenate([out[name], getattr(incoming, name)[new]]) for name in fields)


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


def voxelize_by_loop(scene, spec):
    """Per-voxel label of the solid holding its center, one center at a time.

    A shell center is floor at z <= 0, ceiling at z >= the room's height and
    wall between, so floor and ceiling win at the shell's corners. A patch
    relabels the centers in its face's slab and closed rectangle that carry
    its face's label. Boxes are closed and win over the shell, later ones
    over earlier ones.
    """
    from splatocc.scenes import CEILING_LABEL, FLOOR_LABEL, WALL_LABEL

    ext, t = [float(e) for e in scene.extent], scene.shell_thickness
    labels = np.zeros(spec.dims, dtype=np.uint8)
    for index in np.ndindex(*spec.dims):
        p = [spec.origin[a] + (index[a] + 0.5) * spec.voxel_size for a in range(3)]
        in_outer = all(-t <= p[a] <= ext[a] + t for a in range(3))
        in_interior = all(0 < p[a] < ext[a] for a in range(3))
        if in_outer and not in_interior:
            base = FLOOR_LABEL if p[2] <= 0 else CEILING_LABEL if p[2] >= ext[2] else WALL_LABEL
            labels[index] = base
            for patch in scene.patches:
                a = patch.axis
                b, c = [axis for axis in range(3) if axis != a]
                if patch.side == "max":
                    on_face, face = p[a] >= ext[a], CEILING_LABEL if a == 2 else WALL_LABEL
                else:
                    on_face, face = p[a] <= 0, FLOOR_LABEL if a == 2 else WALL_LABEL
                if (on_face and base == face and patch.lo[0] <= p[b] <= patch.hi[0]
                        and patch.lo[1] <= p[c] <= patch.hi[1]):
                    labels[index] = patch.label
        for box in scene.boxes:
            if all(box.min_corner[a] <= p[a] <= box.max_corner[a] for a in range(3)):
                labels[index] = box.label
    return labels


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
