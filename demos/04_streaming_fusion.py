"""
Streaming fusion into a global memory bank
==========================================

Two cameras see opposite ends of a room. Each frame's Gaussians are fused
into a world-frame memory bank: incoming kernels within epsilon of an
existing one update it by confidence-weighted averaging, the rest are
inserted. Coverage grows; revisiting a view does not bloat the bank.
"""

import numpy as np

import splatocc as so

scene = so.SyntheticScene(extent=np.array([4.0, 4.8, 2.88]), shell_thickness=0.48)
cam_a = so.standard_camera([0.3, 2.4, 1.44], yaw_deg=0.0)    # faces the +x wall
cam_b = so.standard_camera([3.7, 2.4, 1.44], yaw_deg=180.0)  # faces the -x wall

cfg = so.PipelineConfig(
    attributes=so.AttributeConfig(opacity_decay=0.0),
    theta_occ=0.6,
    fusion=so.FusionConfig(epsilon=0.08, gamma=0.4),
)

frames = []
for cam in (cam_a, cam_b):
    depth, classes = so.render_depth(scene, cam)
    frames.append((depth, classes, cam))

# Drive the bank by hand to watch the per-frame bookkeeping.
bank = so.GaussianMemoryBank(cfg.attributes.num_classes, cfg.fusion)
for t, (depth, classes, cam) in enumerate(frames + frames[:1]):
    stats = bank.fuse_frame(so.frame_gaussians(depth, classes, cam, cfg))
    print(f"frame {t}: matched {stats.matched:6d}  inserted {stats.inserted:6d}  "
          f"bank {len(bank):6d}")
# Frame 2 repeats frame 0: everything matches, nothing inserted.

# Scene-level evaluation covers the whole room (no frustum mask here).
grid_spec = so.scene_grid(scene)
gt = so.oracle_occupancy(scene, grid_spec)

def scene_iou(frame_list):
    _, grid = so.run_streaming(frame_list, grid_spec, cfg)
    return so.iou_miou(so.confusion(grid, gt)).iou

print(f"\nscene IoU, camera A alone: {scene_iou(frames[:1]):.3f}")
print(f"scene IoU, camera B alone: {scene_iou(frames[1:]):.3f}")
print(f"scene IoU, both fused:     {scene_iou(frames):.3f}")

# The bank is an ordinary world-frame GaussianSet underneath: it can be
# splatted, pruned, checkpointed to disk, and queried spatially.
hits = bank.radius_neighbors(bank.means[0], 0.08)
print(f"\nneighbors within 8cm of the first kernel: {hits.size}")
print("confidence of that kernel:", round(float(so.top1_confidence(bank.logits)[0]), 4))
